"""Exact linear algebra over Fraction or CycloReal entries.

Matrices are immutable tuples of row tuples.  Everything here is pivot-exact:
zero tests reduce to exact scalar equality.  Products walk only the nonzero
entries of both factors, so the nearly monomial matrices of the Pi
representation multiply in time proportional to their nonzeros; over
Fractions every zero of a product is one shared object and every row whose
only nonzero is 1 is the shared row of `identity_matrix`.  Determinants,
kernels and span membership all read the result of one Gauss-Jordan
elimination, `_row_reduce`.  There is no inverse: a change of basis, or a
solve against a square matrix, is one `solve_in_span` over all the targets
at once.  Kernels come back as the reduced basis: one vector per free
column, in ascending order, with 1 on its own free column and 0 on the
other free columns; `reduced_basis` puts any spanning set of a subspace in
that form.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .scalar import Scalar

Vector = tuple
Matrix = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(x):
    # ints arrive from user-facing vector inputs; true division must not
    # silently drop to float
    return Fraction(x) if isinstance(x, int) else x


def _exact_rows(a) -> list[list]:
    return [[_exact(x) for x in row] for row in a]


@functools.cache
def identity_matrix(n: int) -> Matrix:
    """The n x n identity over Fractions; one shared object per n."""
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product a*b that walks only the nonzero entries of a and b.

    With entries of one scalar type (Fraction, or CycloReal at one
    conductor) every entry has the value, type and conductor of the dense
    sum.  The zeros of the result are one shared zero and, over Fractions,
    a row whose only nonzero is 1 is the shared row of `identity_matrix`.
    """
    if not a or not b or not b[0]:
        return tuple(() for _ in a)
    m = len(b[0])
    zero = a[0][0] * b[0][0] * 0
    bsupport = [[(k, y) for k, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row in a:
        acc = {}
        for x, support in zip(row, bsupport):
            if x != 0:
                for k, y in support:
                    acc[k] = acc[k] + x * y if k in acc else x * y
        out.append(_sparse_row([(k, v) for k, v in acc.items() if v != 0], m, zero))
    return tuple(out)


def _sparse_row(hits, m: int, zero) -> Vector:
    """The row of width m whose nonzero entries are the (column, value) hits.

    zero is a zero of the entries' type.  Over Fractions every zero is the
    shared `_ZERO` and a row whose only nonzero is 1 is the shared row of
    `identity_matrix(m)`.
    """
    if type(zero) is Fraction:
        if len(hits) == 1 and hits[0][1] == 1:
            return identity_matrix(m)[hits[0][0]]
        zero = _ZERO
    row = [zero] * m
    for k, v in hits:
        row[k] = v
    return tuple(row)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _row_reduce(rows: list[list], ncols: int):
    """Gauss-Jordan elimination in place on the first ncols columns of rows.

    Each pivot row is scaled to 1 on its pivot and that column is cleared in
    every other row, so the first ncols columns end in reduced row echelon
    form; any later columns ride along.  Returns the pivot columns and, for
    a square leading block, its determinant (a zero of the entries' type
    when the block is singular).
    """
    pivots = []
    det = _ONE
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            det = rows[r][col]
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        prow = rows[r]
        det = det * prow[col]
        inv = 1 / prow[col]
        # only the nonzero entries of the pivot row touch the other rows
        nonzero = [(j, x * inv) for j, x in enumerate(prow) if x != 0]
        for j, x in nonzero:
            prow[j] = x
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f != 0:
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(col)
    return pivots, det


def determinant(a: Matrix) -> Scalar:
    """Exact determinant; a zero of the entries' type when a is singular."""
    return _row_reduce(_exact_rows(a), len(a))[1]


def kernel_basis(a: Matrix) -> list[Vector]:
    """Reduced basis of the right null space (see the module docstring)."""
    rows = _exact_rows(a)
    ncols = len(rows[0]) if rows else 0
    pivots, _ = _row_reduce(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row, col in zip(rows, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def reduced_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """The reduced basis of the span of vectors, read from the last coordinate.

    Each vector is 1 on its own coordinate and 0 on the others' coordinates,
    the coordinates are chosen greedily from the last one, and the vectors
    run in ascending order of their own coordinate.  It depends on the span
    alone; for the kernel of a matrix it is `kernel_basis`.
    """
    rows = [row[::-1] for row in _exact_rows(vectors)]
    rank = len(_row_reduce(rows, len(rows[0]) if rows else 0)[0])
    return [tuple(row[::-1]) for row in reversed(rows[:rank])]


def solve_in_span(columns: Sequence[Vector], targets: Sequence[Vector]):
    """Coordinates of each target in the span of the columns, or None.

    columns must be linearly independent (ValueError otherwise).  Returns a
    list of coefficient vectors X with sum_j X[j]*columns[j] = target, or
    None when some target falls outside the span.
    """
    k = len(columns)
    rows = _exact_rows(zip(*columns, *targets))
    if len(_row_reduce(rows, k)[0]) < k:
        raise ValueError("columns are linearly dependent")
    if any(x != 0 for row in rows[k:] for x in row[k:]):
        return None
    return [tuple(row[k + q] for row in rows[:k]) for q in range(len(targets))]
