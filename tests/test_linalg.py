import itertools
import random
from fractions import Fraction

import pytest
import sympy

from gencactus.linalg import (
    determinant,
    identity_matrix,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    solve_in_span,
    transpose,
)
from gencactus.scalar import CycloReal, cos_pi_over


def random_matrix(rng, n, m, lo=-6, hi=6, denom=3):
    return tuple(
        tuple(Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(m))
        for _ in range(n)
    )


def _to_sympy(a):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a]
    )


def test_determinant_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        ref = _to_sympy(a).det()
        got = determinant(a)
        assert got == Fraction(int(ref.p), int(ref.q))


def test_determinant_rank_deficient():
    a = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    assert determinant(a) == 0
    assert determinant(()) == 1


def _rank_deficient_matrix(rng, n, m):
    # a product through a narrow middle keeps the rank below min(n, m)
    r = rng.randint(0, min(n, m) - 1)
    if r == 0:
        return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))
    left = random_matrix(rng, n, r, lo=-3, hi=3, denom=2)
    right = random_matrix(rng, r, m, lo=-3, hi=3, denom=2)
    return mat_mul(left, right)


def test_kernel_against_sympy():
    # the reduced basis is pinned vector for vector, order included
    rng = random.Random(7)
    for shape in ("rank_deficient", "wide", "tall") * 25:
        if shape == "rank_deficient":
            n = m = rng.randint(1, 5)
            a = _rank_deficient_matrix(rng, n, m)
        elif shape == "wide":
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, rng.randint(n + 1, 6), lo=-3, hi=3, denom=2)
        else:
            m = rng.randint(1, 4)
            a = _rank_deficient_matrix(rng, rng.randint(m + 1, 6), m)
        ref = [
            tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in _to_sympy(a).nullspace()
        ]
        got = kernel_basis(a)
        assert got == ref
        assert all(isinstance(x, Fraction) for v in got for x in v)


def test_kernel_cyclotomic_entries():
    c = cos_pi_over(5)
    zero = c - c
    # rows (1, -1/c): kernel is the line through (1, c)... scaled
    a = ((c * 0 + 1, c),)
    basis = kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + c * v[1]).is_zero()


def test_inverse_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 15:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        if determinant(a) == 0:
            continue
        done += 1
        assert mat_mul(a, mat_inverse(a)) == identity_matrix(n)
    with pytest.raises(ValueError):
        mat_inverse(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))


def test_solve_in_span_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        cols = None
        while cols is None:
            cand = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(k)]
            g = sympy.Matrix([[int(x) for x in v] for v in cand])
            if g.rank() == k:
                cols = cand
        weights = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(k)) for _ in range(2)]
        targets = [
            tuple(sum(w[j] * cols[j][i] for j in range(k)) for i in range(n))
            for w in weights
        ]
        sol = solve_in_span(cols, targets)
        assert sol is not None
        for got, w in zip(sol, weights):
            assert got == w


def test_solve_in_span_outside():
    cols = [(Fraction(1), Fraction(0), Fraction(0))]
    assert solve_in_span(cols, [(Fraction(0), Fraction(1), Fraction(0))]) is None
    # dependent columns are a caller bug, not a "no solution"
    with pytest.raises(ValueError):
        solve_in_span([(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))], [(Fraction(0), Fraction(0))])


def test_solve_in_span_empty_columns():
    assert solve_in_span([], [(0, 0)]) == [()]
    assert solve_in_span([], [(0, 1)]) is None


def test_int_inputs_stay_exact():
    # plain int vectors arrive from the CLI; nothing may fall back to float
    det = determinant(((2, 1), (1, 1)))
    assert isinstance(det, Fraction) and det == 1
    inv = mat_inverse(((2, 1), (1, 1)))
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    sol = solve_in_span([(1, -1, 1)], [(2, -2, 2)])
    assert sol == [(Fraction(2),)]
    assert all(isinstance(x, Fraction) for v in sol for x in v)
    basis = kernel_basis(((1, 1, 0),))
    assert basis == [(-1, 1, 0), (0, 0, 1)]
    assert all(isinstance(x, Fraction) for v in basis for x in v)


def test_transpose():
    a = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)))
    assert transpose(a) == ((0, 1, 2), (1, 1, 3))
    assert transpose(transpose(a)) == a


# -- cyclotomic entries ---------------------------------------------------------


def _leibniz(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


def _rank(a):
    # largest nonzero minor, from the Leibniz expansion
    n, m = len(a), len(a[0])
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if _leibniz([[a[i][j] for j in cols] for i in rows]) != 0:
                    return k
    return 0


def _cyclo_matrix(rng, c, n, m, rank=None):
    """Random entries in Q(c); rows past `rank` are combinations of the first."""
    powers = [c ** k for k in range(4)]

    def entry():
        return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * p for p in powers), c * 0)

    rank = n if rank is None else rank
    rows = [[entry() for _ in range(m)] for _ in range(rank)]
    while len(rows) < n:
        weights = [entry() for _ in range(rank)]
        rows.append([sum((w * row[j] for w, row in zip(weights, rows)), c * 0) for j in range(m)])
    rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("m", [5, 8])
def test_cyclotomic_inverse_and_determinant(m):
    rng = random.Random(m)
    c = cos_pi_over(m)
    for n in range(1, 5):
        for rank in (n, n - 1):
            a = _cyclo_matrix(rng, c, n, n, rank)
            det = determinant(a)
            assert isinstance(det, CycloReal)
            assert det == _leibniz(a)
            if rank == n:
                assert det != 0
                assert mat_mul(a, mat_inverse(a)) == identity_matrix(n)
            else:
                assert det.is_zero()
                with pytest.raises(ValueError):
                    mat_inverse(a)


@pytest.mark.parametrize("m", [5, 8])
def test_cyclotomic_kernel(m):
    rng = random.Random(10 + m)
    c = cos_pi_over(m)
    for n in range(1, 5):
        for cols in range(1, 5):
            a = _cyclo_matrix(rng, c, n, cols, rng.randint(0, min(n, cols)))
            basis = kernel_basis(a)
            assert len(basis) == cols - _rank(a)
            for v in basis:
                assert all(x == 0 for x in mat_vec(a, v))
            if basis:
                assert _rank(basis) == len(basis)


@pytest.mark.parametrize("m", [5, 8])
def test_cyclotomic_solve_in_span(m):
    rng = random.Random(20 + m)
    c = cos_pi_over(m)
    for n in range(2, 5):
        for k in range(1, n + 1):
            cols = None
            while cols is None:
                cand = _cyclo_matrix(rng, c, k, n)
                if _rank(cand) == k:
                    cols = cand
            weights = [tuple(rng.randint(-2, 2) * c + rng.randint(-2, 2) for _ in range(k))
                       for _ in range(2)]
            targets = [
                tuple(sum((w[j] * cols[j][i] for j in range(k)), c * 0) for i in range(n))
                for w in weights
            ]
            assert solve_in_span(cols, targets) == weights
            if k < n:
                outside = _cyclo_matrix(rng, c, 1, n)
                if _rank(cols + outside) == k + 1:
                    assert solve_in_span(cols, targets + list(outside)) is None
            else:
                with pytest.raises(ValueError):
                    solve_in_span(cols + cols[:1], targets)
