"""The exact matrix product and transpose the tests use, and the elimination
and the kernel the linalg module used before they passed over the shared
zero, kept as an oracle.

The library has no product: its queries multiply integer rows of their
own.  `mat_mul` multiplies every nonzero of a by the nonzeros of the
matching row of b, unit rows included, and finds the nonzeros of every row
of b up front.  It and `_row_reduce` compare every entry with 0 by scalar
equality, the shared zero included.  `_exact_rows` tests every entry for an
int, and `kernel_basis` negates every pivot-row entry of a free column,
zeros included.  `determinant`, `reduced_basis` and `solve_in_span` read the
Fraction elimination `_row_reduce`, as the module did before rational rows
went through its integer elimination.  The kernels that replaced them must
agree with them in every pivot, determinant and entry, in value and in type.
"""

from fractions import Fraction
from typing import Sequence

from gencactus.linalg import _ONE, _ZERO, Matrix, _sparse_row


def _exact_rows(a) -> list[list]:
    return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


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


def kernel_basis(a: Matrix) -> list:
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


def determinant(a: Matrix):
    return _row_reduce(_exact_rows(a), len(a))[1]


def reduced_basis(vectors: Sequence) -> list:
    rows = [row[::-1] for row in _exact_rows(vectors)]
    rank = len(_row_reduce(rows, len(rows[0]) if rows else 0)[0])
    return [tuple(row[::-1]) for row in reversed(rows[:rank])]


def solve_in_span(columns: Sequence, targets: Sequence):
    k = len(columns)
    rows = _exact_rows(zip(*columns, *targets))
    if len(_row_reduce(rows, k)[0]) < k:
        raise ValueError("columns are linearly dependent")
    if any(x != 0 for row in rows[k:] for x in row[k:]):
        return None
    return [tuple(row[k + q] for row in rows[:k]) for q in range(len(targets))]
