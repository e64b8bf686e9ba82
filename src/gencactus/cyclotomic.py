"""Cyclotomic polynomials in integers.

Phi_n, built from x**n - 1 by one exact polynomial division, `_divmod`.
The root table of a Coxeter system computes in Z[x]/Phi_N with Phi_N
alone, multiplying by x or 1/x as shifts of coefficients folded through
the monic Phi_N, so it compiles none of the CycloReal arithmetic in
`gencactus.scalar`, which imports `_divmod` and Phi_n from here.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import CactusError

# the largest conductor built: I2(1000)'s Phi_2000 has degree 800, and its
# root table takes about 2-3 s and 0.3 GB, nearly all of it the 2,000 x 2,000
# reflection rows of its 2,000 roots
MAX_CONDUCTOR = 2000


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
    """Coefficients of Phi_n, lowest degree first.  Phi_1 = x - 1.  A
    conductor above `MAX_CONDUCTOR` is a CactusError, raised before any work."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n > MAX_CONDUCTOR:
        raise CactusError(f"conductor too large: N = {n} exceeds the limit of {MAX_CONDUCTOR}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)
