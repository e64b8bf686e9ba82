"""Cyclotomic polynomials in integers.

Phi_n, built from x**n - 1 by one exact polynomial division, `_divmod`,
and the int matrices of multiplication on Z[x]/Phi_n.  The root table of a
Coxeter system computes in Z[x]/Phi_N with these alone, so it compiles
none of the CycloReal arithmetic in `gencactus.scalar`, which imports
`_divmod` and Phi_n from here.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def _divmod(num, den):
    """Exact quotient and remainder of the polynomial num by den, coefficient
    lists lowest degree first; the remainder keeps at most deg(den) entries.
    A monic den is never divided by, so int polynomials stay in ints."""
    k = len(den) - 1
    while not den[k]:
        k -= 1
    lead, den = den[k], den[: k + 1]
    rem = list(num)
    quot = [0] * (len(rem) - k)
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top]
        if c:
            if lead != 1:
                c = Fraction(c, lead)
            quot[top - k] = c
            for i, p in enumerate(den, top - k):
                rem[i] -= c * p
    return quot, rem[:k]


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first.  Phi_1 = x - 1."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


def multiplication_rows(poly: dict[int, int], n: int) -> tuple:
    """The int matrix of multiplication by the polynomial poly ({power:
    coefficient}) on Z[x]/Phi_n, in the basis 1, x, ..., x**(d-1) for
    d = deg(Phi_n): row i as the (column, entry) pairs of its nonzero
    entries."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    columns = []
    for k in range(d):  # x**k times poly, reduced
        product = [0] * (k + max(poly) + 1)
        for p, c in poly.items():
            product[k + p] = c
        rem = _divmod(product, phi)[1]
        columns.append(rem + [0] * (d - len(rem)))
    return tuple(tuple((k, col[i]) for k, col in enumerate(columns) if col[i]) for i in range(d))
