import itertools
import random
import re
from fractions import Fraction

import pytest
import sympy

from gencactus.linalg import (
    _ZERO,
    _eliminate,
    _integer_reduce,
    identity_matrix,
    kernel_basis,
    reduced_basis,
)
from gencactus import linalg, rep as rep_module
from gencactus.errors import DegenerateFormError
from gencactus.racg import RacgContext
from gencactus.rep import Pi_rep, check_relations, rho_rep, stable_lines
import oracle_linalg
from oracle_linalg import determinant, mat_mul, solve_in_span, transpose
from oracle_rep import form_on_S, form_on_fset, pi_prime, reflection_in_form
from test_rep import FRESH_T, assert_identical, assert_shared
from gencactus.scalar import CycloReal, cos_pi_over


def mat_inverse(a):
    """The inverse as one solve against the unit columns; ValueError when singular."""
    return transpose(solve_in_span(transpose(a), identity_matrix(len(a))))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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


# the solve is the oracle's: the library has none, and `mat_inverse` and the
# rep oracles lean on it


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


def test_kernel_vectors_of_zero_columns_are_unit_rows():
    basis = kernel_basis(((1, 0, 0),))
    assert basis == [(0, 1, 0), (0, 0, 1)]
    assert basis[0] is identity_matrix(3)[1] and basis[1] is identity_matrix(3)[2]
    assert_shared(basis)
    assert_shared(kernel_basis(((1, 1, 0), (0, 0, 0))))


def test_transpose():
    a = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)))
    assert transpose(a) == ((0, 1, 2), (1, 1, 3))
    assert transpose(transpose(a)) == a


# -- Pi images against the dense reflections ---------------------------------------


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "D4", "B4", "F4"])
def test_pi_images_match_dense(context, name):
    ctx = context(name)
    for t in (Fraction(2), Fraction(5, 2)):
        images = Pi_rep(ctx, t)
        gram = form_on_S(ctx, t)
        for I, letter in ctx.letters.items():
            refl = reflection_in_form(gram, letter.racg_part[0])
            assert images[I] == mat_mul(refl, pi_prime(letter.aut_part))
            # column j of sigma_k P_g is column g(j) of sigma_k
            g = letter.aut_part.perm
            assert_identical(images[I], tuple(tuple(row[p] for p in g) for row in refl))
            assert_shared(images[I])


# -- reduced bases -----------------------------------------------------------------


def _other_bases(rng, basis, scalar):
    """Bases of the same span: scrambled, scaled, and padded with dependents."""
    k = len(basis)

    def combine(weights):
        return tuple(
            sum((w * v[i] for w, v in zip(weights, basis)), scalar(0))
            for i in range(len(basis[0]))
        )

    while True:
        mix = [[scalar(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
        if determinant(mix) != 0:
            break
    scrambled = [combine(w) for w in mix]
    weights = [scalar(rng.choice([-3, -1, 2, 5])) for _ in basis]
    scaled = [tuple(w * x for x in v) for w, v in zip(weights, basis[::-1])]
    padded = scrambled + [scrambled[0], combine([scalar(1)] * k), tuple(0 * x for x in basis[0])]
    rng.shuffle(padded)
    return scrambled, scaled, padded


def test_reduced_basis_of_a_kernel_is_kernel_basis():
    rng = random.Random(41)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(2, 7)
        rank = rng.randint(0, min(n, m - 1))
        a = mat_mul(random_matrix(rng, n, rank), random_matrix(rng, rank, m)) if rank else (
            (Fraction(0),) * m,
        )
        want = kernel_basis(a)
        assert reduced_basis(want) == want
        for other in _other_bases(rng, want, Fraction):
            assert reduced_basis(other) == want
    assert reduced_basis([]) == []


@pytest.mark.parametrize("m", [5, 8])
def test_reduced_basis_of_a_cyclotomic_kernel_is_kernel_basis(m):
    rng = random.Random(50 + m)
    c = cos_pi_over(m)
    for n in range(1, 4):
        for cols in range(2, 5):
            a = _cyclo_matrix(rng, c, n, cols, rng.randint(0, min(n, cols - 1)))
            want = kernel_basis(a)
            for other in _other_bases(rng, want, lambda x: c * 0 + x):
                assert reduced_basis(other) == want


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


def test_dense_cyclotomic_elimination_ends_in_reduced_echelon_form():
    # a dense 8 x 9 matrix over Q(cos pi/8) on 1, c, c^2, c^3: each pivot
    # that is not an int is divided out of its row once, so the eliminated
    # rows are the reduced echelon form itself and their coefficients never
    # grow past it; kernel and reduced basis equal the oracle's
    a = _cyclo_matrix(random.Random("dense-cyclo-8x9"), cos_pi_over(8), 8, 9)
    rows = [list(row) for row in a]
    pivots = _integer_reduce(rows, 9)
    want = oracle_linalg._exact_rows(a)
    assert pivots == oracle_linalg._row_reduce(want, 9)[0] == list(range(8))
    assert rows == want
    assert kernel_basis(a) == oracle_linalg.kernel_basis(a)
    assert reduced_basis(a) == oracle_linalg.reduced_basis(a)


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


# -- the elimination against the oracle -------------------------------------------


def _oracle_entries(rng, kind):
    """A draw of one entry: an integer or a Fraction, an element of Q(cos pi/5),
    or either of the two; zero with probability 1 - density."""
    c = cos_pi_over(5)

    def draw(density):
        if rng.random() >= density:
            return rng.choice([Fraction(0), _ZERO])  # a computed or the shared zero
        q = Fraction(rng.randint(-3, 3), 1 if kind == "int" else rng.randint(1, 3))
        if kind == "cyclo" or (kind == "mixed" and rng.random() < 0.5):
            return q * c + rng.randint(-1, 1)
        return q

    return draw


def _oracle_matrix(rng, kind, n, m, density, rank=None):
    """Random n x m entries; rows past rank are combinations of the first, so
    their reduction meets computed zeros; some rows are shared unit rows."""
    draw = _oracle_entries(rng, kind)
    rank = n if rank is None else rank
    rows = [tuple(draw(density) for _ in range(m)) for _ in range(rank)]
    while len(rows) < n:
        weights = [draw(1.0) for _ in range(rank)]
        rows.append(tuple(sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0))
                          for j in range(m)))
    units = identity_matrix(m)
    rows = [units[rng.randrange(m)] if rng.random() < 0.25 else row for row in rows]
    rng.shuffle(rows)
    return tuple(rows)


def assert_same_reduction(a, ncols):
    # the pivots of the one elimination, and each pivot row over its pivot,
    # equal the oracle's reduced rows in value; over rationals in type too,
    # and every zero of those rows is the shared zero
    rows, pivots = _eliminate(a, ncols)
    want = oracle_linalg._exact_rows(a)
    assert pivots == oracle_linalg._row_reduce(want, ncols)[0]
    assert rows[: len(pivots)] == want[: len(pivots)]
    assert all(x is _ZERO for row in rows[: len(pivots)] for x in row if not x)
    if all(type(x) is Fraction for row in want for x in row):
        assert_identical(rows[: len(pivots)], want[: len(pivots)])


@pytest.mark.parametrize("kind", ["int", "fraction", "cyclo", "mixed"])
def test_row_reduce_matches_oracle(kind):
    # square, wide and tall, sparse and dense, full rank and rank-deficient,
    # with columns past ncols riding along
    rng = random.Random(f"reduce-{kind}")
    for _ in range(150 if kind in ("int", "fraction") else 40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.choice([None, rng.randint(0, n)])
        a = _oracle_matrix(rng, kind, n, m, rng.choice([0.2, 0.5, 1.0]), rank)
        assert_same_reduction(a, m)
        assert_same_reduction(a, rng.randint(0, m))
    assert_same_reduction([], 0)


def _python_numbers(rng, kind, a):
    """a with about half its integral entries as Python ints (kind "int") or
    every entry as a bool (kind "bool"); shared unit rows stay shared."""
    units = set(map(id, identity_matrix(len(a[0]))))
    if kind == "bool":
        return tuple(row if id(row) in units else tuple(x != 0 for x in row) for row in a)
    return tuple(
        row if id(row) in units else tuple(
            int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row
        )
        for row in a
    )


@pytest.mark.parametrize("kind", ["int", "bool", "fraction", "cyclo", "mixed"])
def test_exact_rows_and_kernels_match_oracle(kind):
    # kernels and reduced bases of ints, bools, Fractions and cyclotomic
    # entries equal the oracle's in value, over rationals in type too; every
    # zero of their vectors is the shared zero, whatever the entries
    rng = random.Random(f"exact-{kind}")
    for _ in range(150 if kind in ("int", "bool", "fraction") else 40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.choice([None, rng.randint(0, n)])
        base = "fraction" if kind in ("int", "bool") else kind
        a = _oracle_matrix(rng, base, n, m, rng.choice([0.2, 0.5, 1.0]), rank)
        a = _python_numbers(rng, kind, a) if base != kind else a
        basis, reduced = kernel_basis(a), reduced_basis(a)
        assert basis == oracle_linalg.kernel_basis(a)
        assert reduced == oracle_linalg.reduced_basis(a)
        assert all(x is _ZERO for v in basis + reduced for x in v if x == 0)
        if kind in ("int", "bool", "fraction"):
            assert_identical(basis, oracle_linalg.kernel_basis(a))
            # a kernel vector is a unit vector only for a zero column of a,
            # and kernel_basis does not share those
            if basis and all(any(x != 0 for x in col) for col in zip(*a)):
                assert_shared(basis)


def test_rows_of_bools_ints_and_cyclotomic_entries_divide_exactly():
    # ints and bools stay next to CycloReals in a row, and a quotient of two
    # of them is a Fraction: true division would give True / 2 = 0.5
    c = cos_pi_over(5)
    got = reduced_basis([(c, True, 2)])
    assert got == [(c / 2, Fraction(1, 2), 1)]
    assert [type(x) for x in got[0]] == [CycloReal, Fraction, Fraction]
    # a bool pivot: each kernel entry is an int over it
    got = kernel_basis(((True, 3, c),))
    assert got == [(-3, 1, 0), (-c, 0, 1)]
    assert [type(x) for x in got[0]] == [Fraction] * 3
    # int pivots of a fraction-free elimination over a bool and a CycloReal
    rows, pivots = _eliminate(((True, 2, c), (0, 3, True)), 3)
    assert pivots == [0, 1]
    assert rows == [[1, 0, (3 * c - 2) / 3], [0, 1, Fraction(1, 3)]]
    assert type(rows[1][2]) is Fraction
    got = kernel_basis(((True, 2, c), (0, 3, True)))
    assert got == [(-(3 * c - 2) / 3, Fraction(-1, 3), 1)]
    assert [type(x) for x in got[0]] == [CycloReal, Fraction, Fraction]
    # a scaled row of ints loses its content next to a row holding a CycloReal
    a = ((3, 1, 0, 1), (2, 6, 4, 0), (0, 0, c, 1))
    assert kernel_basis(a) == oracle_linalg.kernel_basis(a)


PRODUCT_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(5)", "I2(8)"]


@pytest.mark.parametrize("name", PRODUCT_SYSTEMS)
def test_products_of_images_match_oracle(system, context, name):
    # the readings the relation checks compare, d^2 M_a M_b on the integer
    # rows of the images (on their entries, d = 1, for cyclotomic ones): a
    # row is a unit row exactly when its one nonzero is d^2, and a product of
    # two Pi images has at most 2 general rows
    sys_, ctx = system(name), context(name)
    for t in (Fraction(2), Fraction(5, 2), FRESH_T):
        pi = {s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)}
        for rep, most in ((rho_rep(sys_, t), None), (Pi_rep(ctx, t), 2), (pi, None)):
            d, images = rep_module._images(rep)
            d = d or 1
            for a, b in itertools.product(rep, repeat=2):
                want = [{c: d * d * x for c, x in enumerate(row) if x != 0}
                        for row in mat_mul(rep[a], rep[b])]
                units, general = rep_module._compose(images[a], d, images[b], d)
                assert set(general) == {i for i, u in enumerate(units) if u is None}
                assert [{u: d * d} if u is not None else general[i]
                        for i, u in enumerate(units)] == want
                assert all(list(general[i].values()) != [d * d] for i in general)
                assert most is None or len(general) <= most


def _count_fraction_ops(monkeypatch):
    """From now on, count Fraction multiplications and == calls (!= included)."""
    counts = {"mul": 0, "eq": 0}
    mul, eq = Fraction.__mul__, Fraction.__eq__

    def counted_mul(x, y):
        counts["mul"] += 1
        return mul(x, y)

    def counted_eq(x, y):
        counts["eq"] += 1
        return eq(x, y)

    monkeypatch.setattr(Fraction, "__mul__", counted_mul)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    return counts


def test_relation_checks_of_pi_count_their_operations(context, monkeypatch):
    ctx = context("F4")
    images = Pi_rep(ctx, Fraction(2))
    counts = _count_fraction_ops(monkeypatch)
    report = check_relations(ctx.system, images)
    done = dict(counts)
    monkeypatch.undo()
    assert report.ok
    # the oracle products make 15,990 multiplications and 1,397,990 zero tests
    assert done["mul"] <= 1_000
    assert done["eq"] <= 25_000


# -- the integer elimination against the Fraction elimination --------------------

GRAM_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4"]
# prime denominators above 1000, where no form on these systems degenerates
GRAM_TS = [FRESH_T, Fraction(8793, 1033), Fraction(-4099, 1019)]
# every rational t in [-16, 16] with denominator below 9 where the form on
# R^F(S) degenerates; the determinant on D4 factors into irreducible
# quadratics, so it has none at all
DEGENERATE_TS = {
    "A2": [Fraction(1), Fraction(-1)], "A3": [Fraction(1, 2)], "B3": [Fraction(1, 2)],
    "H3": [Fraction(1, 2)], "A4": [Fraction(1), Fraction(-1, 2)],
    "B4": [Fraction(1), Fraction(-1, 2)], "F4": [Fraction(1), Fraction(-1, 2)], "D4": [],
}


def assert_eliminations_match_oracle(a, targets):
    """Kernel, reduced basis of the rows and the elimination itself with
    targets riding along, all equal to the Fraction oracle's in value and
    type."""
    assert_identical(kernel_basis(a), oracle_linalg.kernel_basis(a))
    assert_identical(reduced_basis(a), oracle_linalg.reduced_basis(a))
    riding = [tuple(row) + tuple(t[i] for t in targets) for i, row in enumerate(a)]
    rows, pivots = _eliminate(riding, len(a[0]))
    want = oracle_linalg._exact_rows(riding)
    assert pivots == oracle_linalg._row_reduce(want, len(a[0]))[0]
    assert_identical(rows[: len(pivots)], want[: len(pivots)])


def _targets(rng, a):
    """Columns of a, two combinations of them and one column of big random
    entries, which falls outside the span unless the columns span it all."""
    columns = transpose(a)
    combos = [
        tuple(sum((w * x for w, x in zip(weights, row)), Fraction(0)) for row in a)
        for weights in ([_big(rng) for _ in columns], [Fraction(1)] + [_ZERO] * (len(columns) - 1))
    ]
    return list(columns[:2]) + combos + [tuple(_big(rng) for _ in a)]


def _big(rng):
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6))


@pytest.mark.parametrize("name", GRAM_SYSTEMS)
def test_integer_elimination_matches_oracle_on_grams(system, name):
    # the rho form at fresh and at degenerate t, as Fractions and as the
    # ints q B that rho solves against, which rho refuses exactly where the
    # form degenerates
    sys_ = system(name)
    rng = random.Random(f"gram-{name}")
    for t in GRAM_TS + DEGENERATE_TS[name]:
        gram = form_on_fset(sys_, t)
        scaled = tuple(tuple(int(x * t.denominator) for x in row) for row in gram)
        assert (determinant(gram) == 0) == (t in DEGENERATE_TS[name])
        if t in DEGENERATE_TS[name]:
            with pytest.raises(DegenerateFormError,
                               match=f"^{re.escape(f'degenerate form at t = {t}: full space')}$"):
                rep_module._nondegenerate_form(sys_, t)
        else:
            assert rep_module._nondegenerate_form(sys_, t) == [list(row) for row in scaled]
        for a in (gram, scaled):
            assert_eliminations_match_oracle(a, _targets(rng, a))


@pytest.mark.parametrize("shape", ["wide", "tall", "square"])
def test_integer_elimination_matches_oracle_on_big_entries(shape):
    # 30-digit numerators over denominators up to 10^6: full rank and
    # rank-deficient (later rows combine the first), sparse and dense
    rng = random.Random(f"big-{shape}")
    for _ in range(25):
        n = rng.randint(1, 7)
        m = {"wide": n + rng.randint(1, 4), "tall": max(1, n - rng.randint(1, 4)), "square": n}[shape]
        rank = rng.choice([None, rng.randint(0, min(n, m))])
        density = rng.choice([0.3, 0.7, 1.0])
        rows = [tuple(_big(rng) if rng.random() < density else _ZERO for _ in range(m))
                for _ in range(n if rank is None else rank)]
        while len(rows) < n:
            weights = [_big(rng) for _ in range(len(rows))]
            rows.append(tuple(sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0))
                              for j in range(m)))
        rng.shuffle(rows)
        assert_eliminations_match_oracle(tuple(rows), _targets(rng, tuple(rows)))


# -- the kept identities --------------------------------------------------------

BOUND = 600  # entries: a 24 x 24 identity fits, a 25 x 25 one is kept alone


@pytest.fixture
def small_identity_bound(monkeypatch):
    """The kept identities bounded at BOUND entries for one test; those kept
    before it are kept again after it."""
    kept = dict(linalg._IDENTITIES)
    monkeypatch.setattr(linalg, "_IDENTITY_CELLS", BOUND)
    linalg._IDENTITIES.clear()
    yield
    linalg._IDENTITIES.clear()
    linalg._IDENTITIES.update(kept)


def test_kept_identities_stay_within_their_bound(small_identity_bound):
    rng = random.Random("identity-widths")
    for n in [rng.randint(1, 30) for _ in range(400)]:
        ident = identity_matrix(n)
        assert identity_matrix(n) is ident
        assert ident == tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        kept = linalg._IDENTITIES
        assert kept[n] is ident
        assert sum(k * k for k in kept) <= BOUND or list(kept) == [n]
        # a read finds the unit rows of every kept identity, and each one alone
        for k, rows in kept.items():
            units, general = rep_module._images({"e": rows})[1]["e"]
            assert units == list(range(k)) and general == {}
    # the widest go first
    identity_matrix(25)
    for n in (5, 10, 20, 8):
        identity_matrix(n)
    assert sorted(linalg._IDENTITIES) == [5, 8, 10, 20]
    identity_matrix(12)
    assert sorted(linalg._IDENTITIES) == [5, 8, 10, 12]


def test_a_row_in_the_place_of_an_evicted_unit_row_reads_as_general(small_identity_bound):
    # CPython gives a freed tuple's memory to the next tuple of its size, so
    # the rows of a fresh diagonal matrix often take the ids of the unit
    # rows of an identity that just went; each must still read as general
    for n in range(2, 25):
        identity_matrix(n)
        identity_matrix(25)  # evicts every other identity, whose rows die
        diag = tuple(tuple(Fraction(i + 2) if i == j else _ZERO for j in range(n))
                     for i in range(n))
        d, images = rep_module._images({"g": diag})
        units, general = images["g"]
        assert units == [None] * n
        assert general == {i: {i: (i + 2) * d} for i in range(n)} and d == 1


def test_a_rep_reads_the_same_after_its_identity_goes(system, small_identity_bound):
    # a context of its own, so no shared cache keeps a Pi built on the
    # identities of this test
    sys_ = system("A3")
    for rep in (rho_rep(sys_, FRESH_T), Pi_rep(RacgContext(sys_), FRESH_T)):
        plain = dict(rep)
        before = check_relations(sys_, plain), stable_lines(plain)
        identity_matrix(25)  # evicts every other identity; plain's unit rows live on
        assert all(u is None for units, _ in rep_module._images(plain)[1].values() for u in units)
        assert (check_relations(sys_, plain), stable_lines(plain)) == before
        assert stable_lines(rep) == before[1]
