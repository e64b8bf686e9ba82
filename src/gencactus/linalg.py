"""Exact linear algebra over int, Fraction or CycloReal entries.

Matrices are immutable tuples of row tuples.  Everything is pivot-exact: a
zero test is truthiness, exact for every scalar type, and two ints divide
as a Fraction (`_div`).  Every zero of a kernel or reduced-basis vector is
the shared `_ZERO`, whatever the entries (a zero test first asks for it by
identity), and a kernel vector whose only nonzero is 1 is the shared row of
`identity_matrix`, kept in `_IDENTITIES` up to a bound on their entries.
The one elimination is the fraction-free Gauss-Jordan `_integer_reduce`, on
int rows (rational rows times the lcm of their denominators) or on the
entries as they are, each pivot that is not an int divided out of its row;
it orders ints only, and a rank is the pivot count of its forward half.
`kernel_basis` reads the kernel core `integer_kernel`, and `reduced_basis`
the eliminated rows over their pivots.  There is no determinant, no inverse
and no solve.  Kernels come back as the reduced basis: one vector per free
column, ascending, with 1 on its own free column and 0 on the other free
columns; `reduced_basis` puts any spanning set in that form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple
Matrix = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _div(x, p):
    """x / p, exact: a Fraction, not a float, when both are ints (bools too)."""
    return Fraction(x, p) if isinstance(x, int) and isinstance(p, int) else x / p


# n -> the n x n identity.  Once they would hold more than _IDENTITY_CELLS
# entries (about 17 MB: an E6 Pi rep's identity and its quotient's, 1.13 M,
# beside the small ones) the widest go first, so the small ones most reps
# share stay
_IDENTITIES: dict[int, Matrix] = {}
_IDENTITY_CELLS = 1 << 21


def identity_matrix(n: int) -> Matrix:
    """The n x n identity over Fractions; one shared object per n while it
    is kept in `_IDENTITIES`."""
    rows = _IDENTITIES.get(n)
    if rows is None:
        cells = n * n + sum(k * k for k in _IDENTITIES)
        for k in sorted(_IDENTITIES, reverse=True):
            if cells <= _IDENTITY_CELLS:
                break
            del _IDENTITIES[k]
            cells -= k * k
        rows = _IDENTITIES[n] = tuple(
            tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
        )
    return rows


def _sparse_row(hits, m: int, zero) -> Vector:
    """The row of width m whose nonzero entries are the (column, value) hits.

    zero is a zero of the entries' type.  Over Fractions every zero is the
    shared `_ZERO` and a row whose only nonzero is 1 is the shared row of
    `identity_matrix(m)`.
    """
    if type(zero) is Fraction:
        if len(hits) == 1 and (hits[0][1] is _ONE or hits[0][1] == 1):
            return identity_matrix(m)[hits[0][0]]
        zero = _ZERO
    row = [zero] * m
    for k, v in hits:
        row[k] = v
    return tuple(row)


def _integer_rows(a):
    """Each row of a times the lcm of its denominators, as a list of ints,
    and the list of those lcms; None when an entry is not an int or a
    Fraction."""
    if not all(set(map(type, row)) <= {bool, int, Fraction} for row in a):
        return None
    scales = [lcm(*[x.denominator for x in row if x is not _ZERO]) for row in a]
    rows = [[0 if x is _ZERO else x.numerator * (d // x.denominator) for x in row]
            for d, row in zip(scales, a)]
    return rows, scales


def _integer_reduce(rows: list[list], ncols: int, jordan: bool = True):
    """Fraction-free Gauss-Jordan elimination in place on rows of exact
    entries.

    A pivot that is not an int is divided out of its row first, once, so
    every pivot is an int and a cyclotomic entry does not grow step by step.
    A row holding x in the pivot column becomes a*row - f*pivot_row: with
    a/f = pivot/x in lowest terms and a > 0 when both are ints, else with
    a = pivot and f = x, so only an int is ever ordered.  A row of ints is
    then divided by its content when a != 1; with a = 1 only the pivot
    row's nonzeros are touched.  A row with 0 there, or above the pivot
    with jordan False, is left alone.  Returns the pivot columns.  With
    jordan False only the rows below each pivot are cleared, which is all a
    rank needs: the pivot count.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pivot = prow[col]
        if type(pivot) is not int:
            inverse = _div(1, pivot)
            prow = rows[r] = [x * inverse if x else x for x in prow]
            prow[col] = pivot = 1
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(0 if jordan else r + 1, len(rows)):
            row, f = rows[i], rows[i][col]
            if i != r and f:
                a = pivot
                if type(pivot) is int and type(f) is int:
                    g = gcd(pivot, f) if pivot > 0 else -gcd(pivot, f)
                    a, f = pivot // g, f // g
                if a != 1:  # a scaled row, the only dense work, loses its content
                    row = [a * x for x in row]
                for j, y in nonzero:
                    row[j] -= f * y
                try:
                    c = gcd(*row) if a != 1 else 1
                except TypeError:  # an entry that is not an int: no content
                    c = 1
                rows[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    return pivots


def _eliminate(a, ncols: int):
    """The rows of a after `_integer_reduce` on their first ncols columns,
    int rows when every entry is an int or a Fraction, each pivot row read
    over its pivot with the shared zero; and the pivot columns."""
    got = _integer_rows(a)
    rows = [list(row) for row in a] if got is None else got[0]
    pivots = _integer_reduce(rows, ncols)
    for k, (row, col) in enumerate(zip(rows, pivots)):
        rows[k] = [_div(x, row[col]) if x else _ZERO for x in row]
    return rows, pivots


def integer_kernel(rows: list[list], ncols: int) -> list[list]:
    """The right null space of rows, which it eliminates in place: per free
    column f, ascending, the `kernel_basis` vector of f times s as
    (column, value) hits, f first.  s is the lcm L of the |pivots| (all
    ints) of the rows with x != 0 in column f, and such a row's pivot
    column holds -x L / pivot, an int on int rows.
    """
    pivots = _integer_reduce(rows, ncols)
    out = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        hits = [(col, row[free], row[col]) for row, col in zip(rows, pivots) if row[free]]
        scale = lcm(*[p for _, _, p in hits])
        out.append([(free, scale)] + [(col, -x * (scale // p)) for col, x, p in hits])
    return out


def kernel_basis(a: Matrix) -> list[Vector]:
    """Reduced basis of the right null space (see the module docstring)."""
    ncols = len(a[0]) if a else 0
    got = _integer_rows(a)
    rows = [list(row) for row in a] if got is None else got[0]
    return [_sparse_row([(c, _div(v, hits[0][1])) for c, v in hits], ncols, _ZERO)
            for hits in integer_kernel(rows, ncols)]


def reduced_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """The reduced basis of the span of vectors, read from the last coordinate.

    Each vector is 1 on its own coordinate and 0 on the others' coordinates,
    the coordinates are chosen greedily from the last one, and the vectors
    run in ascending order of their own coordinate.  It depends on the span
    alone; for the kernel of a matrix it is `kernel_basis`.
    """
    rows, pivots = _eliminate([row[::-1] for row in vectors], len(vectors[0]) if vectors else 0)
    return [tuple(row[::-1]) for row in reversed(rows[: len(pivots)])]
