"""Exact dense linear algebra over Fraction or CycloReal entries.

Matrices are immutable tuples of row tuples.  Everything here is pivot-exact:
zero tests reduce to exact scalar equality, and rational kernels are computed
fraction-free (Bareiss-style elimination over the integers after clearing
denominators).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity_matrix(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def determinant(a: Matrix) -> Scalar:
    """Exact determinant by Gaussian elimination with exact zero tests."""
    n = len(a)
    if n == 0:
        return _ONE
    rows = [[_exact(x) for x in row] for row in a]
    det = _ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return rows[0][col] * 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def solve_columns(a: Matrix, b: Matrix) -> Matrix:
    """X with a @ X = b; a must be square and invertible."""
    n = len(a)
    m = len(b[0]) if b else 0
    aug = [[_exact(x) for x in list(a[i]) + list(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n : n + m]) for i in range(n))


def mat_inverse(a: Matrix) -> Matrix:
    return solve_columns(a, identity_matrix(len(a)))


def _integer_rows(a: Matrix) -> list[list[int]]:
    out = []
    for row in a:
        denom = 1
        for x in row:
            denom = lcm(denom, Fraction(x).denominator)
        out.append([int(x * denom) for x in row])
    return out


def rational_kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the right null space of a Fraction matrix.

    Row-scaling to integers preserves the kernel; the elimination itself is
    fraction-free (Bareiss), so every intermediate entry stays an integer.
    Returns canonically ordered vectors with Fraction entries.
    """
    if not a:
        return [tuple()]
    rows = _integer_rows(a)
    n_cols = len(a[0])
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            for j in range(col + 1, n_cols):
                rows[i][j] = (rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]) // prev
            rows[i][col] = 0
        prev = rows[r][col]
        piv_cols.append(col)
        r += 1
        if r == len(rows):
            break
    # back-substitute over Fractions for each free column
    rank = len(piv_cols)
    free_cols = [c for c in range(n_cols) if c not in piv_cols]
    basis = []
    for free in free_cols:
        vec = [_ZERO] * n_cols
        vec[free] = _ONE
        for i in range(rank - 1, -1, -1):
            col = piv_cols[i]
            s = sum(
                (Fraction(rows[i][j]) * vec[j] for j in range(col + 1, n_cols)),
                _ZERO,
            )
            vec[col] = -s / rows[i][col]
        basis.append(tuple(vec))
    return basis


def kernel_basis(a: Matrix) -> list[Vector]:
    """Right null space basis; fraction-free over Fractions, Gaussian otherwise."""
    if not a or all(isinstance(x, (int, Fraction)) for row in a for x in row):
        return rational_kernel_basis(a)
    rows = [list(row) for row in a]
    n_cols = len(rows[0])
    piv_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    for free in (c for c in range(n_cols) if c not in piv_cols):
        vec = [x * 0 for x in rows[0]] if rows else [_ZERO] * n_cols
        vec[free] = vec[free] + 1
        for i, col in enumerate(piv_cols):
            vec[col] = -rows[i][free]
        basis.append(tuple(vec))
    return basis


def column_matrix(vectors: Sequence[Sequence]) -> Matrix:
    return tuple(zip(*vectors))


def normalize_line(v: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1 (deterministic line rep)."""
    for x in v:
        if x != 0:
            return tuple(_exact(y) / x for y in v)
    return v


def proportional(u: Vector, v: Vector) -> bool:
    return normalize_line(u) == normalize_line(v)


def solve_in_span(columns: Sequence[Vector], targets: Sequence[Vector]):
    """Coordinates of each target in the span of the columns, or None.

    columns must be linearly independent.  Returns a list of coefficient
    vectors X with sum_j X[j]*columns[j] = target, or None as soon as some
    target falls outside the span.
    """
    k, m = len(columns), len(targets)
    if k == 0:
        return None if any(any(x != 0 for x in t) for t in targets) else [() for _ in targets]
    n = len(columns[0])
    rows = [
        [_exact(columns[j][i]) for j in range(k)]
        + [_exact(targets[q][i]) for q in range(m)]
        for i in range(n)
    ]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            raise ValueError("columns are linearly dependent")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, n):
        if any(x != 0 for x in rows[i][k:]):
            return None
    return [tuple(rows[j][k + q] for j in range(k)) for q in range(m)]
