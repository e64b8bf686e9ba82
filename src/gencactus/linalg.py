"""Exact linear algebra over Fraction or CycloReal entries.

Matrices are immutable tuples of row tuples.  Everything here is pivot-exact:
zero tests reduce to exact scalar equality.  Over Fractions every zero of a
kernel vector is one shared object (a zero test first asks for it by
identity) and a kernel vector whose only nonzero is 1 is the shared row of
`identity_matrix`, whose column `_UNIT_COLUMN` gives by lookup.
Kernels and reduced bases read one Gauss-Jordan elimination, fraction-free
on integer rows over ints and Fractions (`_integer_reduce`), else
`_row_reduce`; a rank is the pivot count of the forward half alone.  The
kernel core `integer_kernel` reads an int vector per free column off the
reduced rows, and the stable-line split uses it as it is; `kernel_basis`
reads the eliminated rows, a pivot row of integer rows over its pivot, for
any entries.  There is no determinant, no inverse and no solve.  Kernels
come back as the reduced basis: one vector per free column, ascending,
with 1 on its own free column and 0 on the other free columns;
`reduced_basis` puts any spanning set in that form.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple
Matrix = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact_rows(a) -> list[list]:
    # ints (bools too) next to CycloReals in a row for `_row_reduce`: true
    # division must not silently drop to float
    return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]


# id of each row of every `identity_matrix` -> the column of its 1; the rows
# live in that function's cache, which nothing clears, so an id is never reused
_UNIT_COLUMN: dict[int, int] = {}


@functools.cache
def identity_matrix(n: int) -> Matrix:
    """The n x n identity over Fractions; one shared object per n."""
    rows = tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )
    _UNIT_COLUMN.update((id(row), j) for j, row in enumerate(rows))
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


def _row_reduce(rows: list[list], ncols: int):
    """Gauss-Jordan elimination in place on the first ncols columns of rows.

    Each pivot row is scaled to 1 on its pivot and that column is cleared in
    every other row, so the first ncols columns end in reduced row echelon
    form; any later columns ride along.  Returns the pivot columns.  The
    pivot is the first row at or below the next pivot row with a nonzero in
    the column.  A zero test first asks whether an entry is the shared zero,
    which costs no scalar comparison.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next(
            (i for i in range(r, len(rows)) if rows[i][col] is not _ZERO and rows[i][col] != 0),
            None,
        )
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        inv = 1 / prow[col]
        # only the nonzero entries of the pivot row touch the other rows
        nonzero = [(j, x * inv) for j, x in enumerate(prow) if x is not _ZERO and x != 0]
        for j, x in nonzero:
            prow[j] = x
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f is not _ZERO and f != 0:
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(col)
    return pivots


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
    """Fraction-free Gauss-Jordan elimination in place on int rows.

    A row holding x in the pivot column becomes (a*row - f*pivot_row) / c
    with a/f = pivot/x in lowest terms, a > 0, and c the content of the
    result when a > 1 (else c = 1 and only the pivot row's nonzeros are
    touched).  A row with 0 there, or above the pivot with jordan False, is
    left alone.  Returns the pivot columns.  With jordan False only the rows
    below each pivot are cleared, which is all a rank needs: the pivot count.
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
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(0 if jordan else r + 1, len(rows)):
            row, f = rows[i], rows[i][col]
            if i != r and f:
                g = gcd(prow[col], f) if prow[col] > 0 else -gcd(prow[col], f)
                a, f = prow[col] // g, f // g
                if a != 1:  # a scaled row, the only dense work, loses its content
                    row = [a * x for x in row]
                for j, y in nonzero:
                    row[j] -= f * y
                c = gcd(*row) if a != 1 else 1
                rows[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    return pivots


def _eliminate(a, ncols: int):
    """The rows of a after one Gauss-Jordan elimination of their first ncols
    columns, and the pivot columns: by `_integer_reduce` when every entry is
    an int or a Fraction, with each pivot row then read over its pivot (as
    Fractions with the shared zero), else by `_row_reduce`."""
    got = _integer_rows(a)
    if got is None:
        rows = _exact_rows(a)
        return rows, _row_reduce(rows, ncols)
    rows, pivots = got[0], _integer_reduce(got[0], ncols)
    for k, (row, col) in enumerate(zip(rows, pivots)):
        rows[k] = [Fraction(x, row[col]) if x else _ZERO for x in row]
    return rows, pivots


def integer_kernel(rows: list[list], ncols: int) -> list[list]:
    """The right null space of int rows, which it eliminates in place: per
    free column f, ascending, the `kernel_basis` vector of f times L as
    (column, value) hits, f first.  L is the lcm of the |pivots| of the rows
    with x != 0 in column f, and such a row's pivot column holds -x L / pivot.
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
    rows, pivots = _eliminate(a, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        hits = [(free, _ONE)]
        for row, col in zip(rows, pivots):
            x = row[free]
            # a Fraction zero stays the shared zero; any other zero keeps its type
            if x is not _ZERO and (x != 0 or type(x) is not Fraction):
                hits.append((col, -x))
        basis.append(_sparse_row(hits, ncols, _ZERO))
    return basis


def reduced_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """The reduced basis of the span of vectors, read from the last coordinate.

    Each vector is 1 on its own coordinate and 0 on the others' coordinates,
    the coordinates are chosen greedily from the last one, and the vectors
    run in ascending order of their own coordinate.  It depends on the span
    alone; for the kernel of a matrix it is `kernel_basis`.
    """
    rows, pivots = _eliminate([row[::-1] for row in vectors], len(vectors[0]) if vectors else 0)
    return [tuple(row[::-1]) for row in reversed(rows[: len(pivots)])]

