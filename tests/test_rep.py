import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

import oracle_rep
from oracle_linalg import determinant, mat_mul, transpose
from oracle_rep import form_on_S, form_on_fset, pi_prime, reflection_in_form
from gencactus import coxeter as coxeter_module, linalg, rep as rep_module
from gencactus.cactus import (
    CactusWord,
    apply_relation,
    commuting_subsets,
    evaluate_to_coxeter,
    is_pure,
    parse_word,
)
from gencactus.coxeter import (
    CoxeterSystem,
    GroupElement,
    _subset_key,
    conjugate_subset,
    connected_subsets,
    longest_element,
    presentation,
)
from gencactus.errors import (
    DegenerateFormError,
    InputError,
    RelationApplicationError,
    SubspaceError,
)
from gencactus.linalg import (
    _ZERO,
    identity_matrix,
    kernel_basis,
)
from gencactus.racg import RacgContext, SemidirectElement
from gencactus.scalar import CycloReal
from gencactus.rep import (
    Pi_of,
    RelationReport,
    Pi_rep,
    check_relations,
    quotient_rep,
    restrict_rep,
    rho_rep,
    signed_permutation_check,
    stable_lines,
)


F = Fraction
S1, S2, FULL = frozenset({0}), frozenset({1}), frozenset({0, 1})


def test_form_on_fset_a2(system):
    t = F(2)
    a2 = system("A2")
    gram = form_on_fset(a2, t)
    assert gram == (
        (F(1), -t, F(0)),
        (-t, F(1), F(0)),
        (F(0), F(0), F(1)),
    )
    assert determinant(gram) == 1 - t * t
    assert rep_module._nondegenerate_form(a2, t) == [[1, -2, 0], [-2, 1, 0], [0, 0, 1]]
    assert [a2.format_subset(I) for I in connected_subsets(a2)] == ["{s1}", "{s2}", "{s1,s2}"]


def test_form_on_s_a2_determinant(context):
    ctx = context("A2")
    for t in (F(0), F(2), F(5, 2), F(7, 3)):
        assert determinant(form_on_S(ctx, t)) == (1 + t) ** 2 * (1 - 2 * t)


def test_reflection_in_form_properties(context):
    ctx = context("B2")
    gram = form_on_S(ctx, F(2))
    n = len(gram)
    for k in range(n):
        m = reflection_in_form(gram, k)
        assert mat_mul(m, m) == identity_matrix(n)
        assert mat_mul(transpose(m), mat_mul(gram, m)) == gram


def test_pi_prime_shape():
    p = pi_prime((2, 0, 1))
    assert p == ((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1), F(0), F(0)))


def test_rho_goldens_a2(system):
    t = F(2)
    rho = rho_rep(system("A2"), t)
    assert rho[S1] == ((-1, 2 * t, 0), (0, 1, 0), (0, 0, 1))
    assert rho[S2] == ((1, 0, 0), (2 * t, -1, 0), (0, 0, 1))
    assert rho[FULL] == ((0, 1, 0), (1, 0, 0), (0, 0, -1))


def test_pi_goldens_a2(context):
    t = F(2)
    Pi = Pi_rep(context("A2"), t)
    assert Pi[S2] == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (2 * t, 2 * t, -1, 0),
        (0, 0, 0, 1),
    )
    assert Pi[FULL] == (
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, -1),
    )


def test_rho_degenerate_at_unit_parameter(system):
    with pytest.raises(DegenerateFormError):
        rho_rep(system("A2"), 1)
    with pytest.raises(DegenerateFormError):
        rho_rep(system("A2"), -1)


def test_rho_checks_the_full_form_once(system, monkeypatch):
    # one elimination sees |F(S)| rows per rho_rep: the int rows q B at
    # t = p/q, as they arrive; every other one eliminates a span of one I
    sys_ = system("A4")
    n = len(connected_subsets(sys_))
    full = []

    def integer_reduce(rows, *args, reduce=linalg._integer_reduce, **kwargs):
        if len(rows) == n:
            full.append([list(row) for row in rows])
        return reduce(rows, *args, **kwargs)

    monkeypatch.setattr(rep_module, "_integer_reduce", integer_reduce)
    for t in (F(2), FRESH_T, F(-4099, 1019)):
        full.clear()
        rho_rep(sys_, t)
        want = [[x * t.denominator for x in row] for row in form_on_fset(sys_, t)]
        assert full == [want] and all(type(x) is int for row in full[0] for x in row)
    with pytest.raises(DegenerateFormError, match="^degenerate form at t = 1: full space$"):
        rho_rep(sys_, F(1))


def test_rho_preserves_its_form(system):
    sys_ = system("B2")
    t = F(3)
    gram = form_on_fset(sys_, t)
    for m in rho_rep(sys_, t).values():
        assert mat_mul(transpose(m), mat_mul(gram, m)) == gram


def test_pi_preserves_its_form(context):
    ctx = context("B2")
    t = F(2)
    gram = form_on_S(ctx, t)
    for m in Pi_rep(ctx, t).values():
        assert mat_mul(transpose(m), mat_mul(gram, m)) == gram


def test_pi_of_routes_agree(context):
    ctx = context("A2")
    w = parse_word(ctx.system, "g{s1} g{s1,s2} g{s2}")
    # the letterwise product of the Pi_rep images is a path apart from the
    # embedding that Pi_of takes for both
    for t in (F(1), F(2)):
        want = oracle_rep.product_Pi_of(ctx, w, t)
        assert Pi_of(ctx, w, t) == want == Pi_of(ctx, ctx.embed(w), t)
    assert Pi_of(ctx, CactusWord(ctx.system), F(1)) == identity_matrix(4)


def test_pi_of_a_semidirect_element_matches_dense(context):
    # an empty racg part with a nontrivial permutation is P_g alone
    ctx = context("B3")
    g = next(x.aut_part for x in ctx.letters.values() if not x.aut_part.is_identity())
    w = ctx.embed(parse_word(ctx.system, "g{s1} g{s2,s3} g{s1,s2}"))
    assert w.racg_part and not w.aut_part.is_identity()
    for t in (F(2), F(0)):
        gram = oracle_rep.form_on_S(ctx, t)
        dense = identity_matrix(len(gram))
        for i in w.racg_part:
            dense = mat_mul(dense, reflection_in_form(gram, i))
        for x, want in (
            (SemidirectElement(ctx, (), g), pi_prime(g)),
            (w, mat_mul(dense, pi_prime(w.aut_part))),
        ):
            got = Pi_of(ctx, x, t)
            assert_identical(got, want)
            assert_shared(got)


def test_pi_of_rejects_other_objects(context):
    with pytest.raises(InputError):
        Pi_of(context("A2"), "g{s1}", F(1))


@pytest.mark.parametrize("bad", [0.1, 2.0, True, "abc", "1/0", None])
def test_t_must_be_an_exact_rational(context, bad):
    # a float would be read as its binary value (0.1 as 3602879701896397 /
    # 2**55), so it is refused along with a bool and what does not parse
    ctx = context("A2")
    sys_, word = ctx.system, parse_word(ctx.system, "g{s1} g{s1,s2}")
    calls = [
        lambda: rho_rep(sys_, bad),
        lambda: Pi_rep(ctx, bad),
        lambda: Pi_of(ctx, word, bad),
        lambda: sys_.bilinear_entry(0, 1, bad),
        lambda: sys_.gram_matrix(bad),
        lambda: sys_.reflection_matrix(0, bad),
    ]
    for call in calls:
        with pytest.raises(InputError, match="t must be an exact rational"):
            call()


def test_t_is_read_exactly_from_ints_and_strings(context):
    ctx = context("A2")
    assert rho_rep(ctx.system, "5/2") == rho_rep(ctx.system, F(5, 2))
    assert Pi_rep(ctx, "0.1") is Pi_rep(ctx, F(1, 10))
    assert Pi_of(ctx, ctx.letters[frozenset({0})], 2) == Pi_of(ctx, ctx.letters[frozenset({0})], F(2))
    assert ctx.system.gram_matrix("-1/2") == ctx.system.gram_matrix(F(-1, 2))


def test_pi_of_rejects_input_from_another_system(context):
    a2, a3 = context("A2"), context("A3")
    # a one-letter A3 element reads as a 4 x 4 matrix without the check, and
    # a longer one runs out of range
    short = a3.letters[frozenset({0})]
    long_ = a3.embed(parse_word(a3.system, "g{s1,s2} g{s2,s3} g{s3}"))
    for x in (short, long_):
        with pytest.raises(InputError, match="element from a different context"):
            Pi_of(a2, x, F(2))
    for text in ("g{s3}", "g{s1}"):
        with pytest.raises(InputError, match="word over a different system"):
            Pi_of(a2, parse_word(a3.system, text), F(2))
    assert Pi_of(a2, a2.letters[frozenset({0})], F(2)) == Pi_rep(a2, F(2))[frozenset({0})]


def test_pi_intertwines_permutation_and_reflections(context):
    # pi'(g) sigma_k pi'(g)^-1 = sigma_{g(k)}
    ctx = context("B2")
    gram = form_on_S(ctx, F(2))
    for I in ctx.family:
        g = ctx.letters[I].aut_part
        p = pi_prime(g)
        pinv = transpose(p)  # a permutation matrix's inverse
        for k in range(len(gram)):
            lhs = mat_mul(p, mat_mul(reflection_in_form(gram, k), pinv))
            assert lhs == reflection_in_form(gram, g(k))


def test_check_relations_passes(context):
    ctx = context("A2")
    rep = Pi_rep(ctx, F(2))
    report = check_relations(ctx.system, rep)
    assert report.ok
    assert report.checked == 5
    assert "all 5 relations hold" == report.summary()


@pytest.mark.parametrize("name, count", [("D4", 45), ("F4", 40)])
def test_check_relations_passes_on_d4_and_f4(context, name, count):
    # one involution per letter, one relation per commuting and per nested
    # pair; F4's diagram is a path, so it has A4's count
    ctx = context(name)
    report = check_relations(ctx.system, Pi_rep(ctx, F(2)))
    assert report.ok and report.checked == count


def test_check_relations_detects_violations(context):
    ctx = context("A2")
    rep = dict(Pi_rep(ctx, F(2)))
    bad = tuple(tuple(x + 1 for x in row) for row in rep[S1])
    rep[S1] = bad
    report = check_relations(ctx.system, rep)
    assert not report.ok
    assert any(kind == "involution" for kind, _ in report.violations)
    assert "fail" in report.summary()


def test_check_relations_missing_conjugate(context):
    ctx = context("A2")
    rep = dict(Pi_rep(ctx, F(2)))
    del rep[S2]
    report = check_relations(ctx.system, rep)
    assert any(kind == "missing-conjugate" for kind, _ in report.violations)


def test_check_relations_names_a_key_that_is_not_a_set_of_generators(system):
    # keys that are generator indices, not sets of them, are refused up front
    sys_ = system("I2(5)")
    rep = {s: sys_.reflection_matrix(s, 1) for s in range(2)}
    with pytest.raises(InputError, match="not a set of generator indices.*: 0$"):
        check_relations(sys_, rep)


def test_reps_read_again_must_be_square_of_one_size(context):
    # a Pi rep cut to 3 rows of 4 entries, a ragged image, and one 1 x 1
    # image among 4 x 4 ones: each named, by every query that reads a rep
    ctx = context("A2")
    Pi = dict(Pi_rep(ctx, F(2)))
    I, J = list(Pi)[:2]
    for rep, key in (
        ({K: m[:3] for K, m in Pi.items()}, I),
        ({I: ((1, 0), (0,))}, I),
        ({**Pi, J: ((F(1),),)}, J),
    ):
        n = len(rep[I])
        v = [1] + [0] * (n - 1)
        for query in (
            lambda: check_relations(ctx.system, rep),
            lambda: stable_lines(rep),
            lambda: restrict_rep(rep, [v]),
            lambda: quotient_rep(rep, [v], list(range(1, n))),
        ):
            with pytest.raises(InputError, match=re.escape(f"image of {key!r} is not {n} rows")):
                query()


def test_relation_report_keeps_its_dataclass_behaviour():
    # values printed by the report when it was a dataclass
    empty = RelationReport()
    assert repr(empty) == "RelationReport(checked=0, violations=[])"
    assert empty.ok and empty.summary() == "all 0 relations hold"
    bad = RelationReport(3, [("involution", "{a}")])
    assert repr(bad) == "RelationReport(checked=3, violations=[('involution', '{a}')])"
    assert not bad.ok and bad.summary() == "1 of 3 relations fail:\n  involution: {a}"
    two = RelationReport(checked=2, violations=[("x", "y"), ("z", "w")])
    assert two.summary() == "2 of 2 relations fail:\n  x: y\n  z: w"
    assert RelationReport() == RelationReport(checked=0, violations=[])
    assert RelationReport(1) != RelationReport() and RelationReport() != (0, [])
    assert RelationReport().__eq__((0, [])) is NotImplemented
    assert RelationReport.__hash__ is None
    first, second = RelationReport(), RelationReport()
    first.violations.append(("involution", "{a}"))
    assert second.violations == [] and first.checked == 0


def test_stable_lines_a2_restricted(context):
    ctx = context("A2")
    Pi = Pi_rep(ctx, F(2))
    u1 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    lines = stable_lines(restrict_rep(Pi, u1))
    assert len(lines) == 1
    vec, signs = lines[0]
    assert vec == (1, -1, 1)
    assert signs == {S1: -1, S2: -1, FULL: 1}


def test_stable_lines_full_space(context):
    ctx = context("A2")
    lines = stable_lines(Pi_rep(ctx, F(2)))
    assert len(lines) == 2
    sign_sets = {tuple(sorted((k, s) for k, s in signs.items())) for _, signs in lines}
    assert len(sign_sets) == 2


def test_restrict_rep_rejects_noninvariant(context):
    ctx = context("A2")
    Pi = Pi_rep(ctx, F(2))
    with pytest.raises(SubspaceError):
        restrict_rep(Pi, [(1, 0, 0, 0)])


def test_restrict_and_quotient_check_vector_lengths(context):
    Pi = Pi_rep(context("A2"), F(2))
    u3 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    for bad, text in (((0, 0, 0, 1, 9), "0,0,0,1,9"), ((0, 0, 1), "0,0,1")):
        message = f"vector '{text}' needs 4 coordinates"
        with pytest.raises(InputError, match=message):
            restrict_rep(Pi, u3[:2] + [bad])
        with pytest.raises(InputError, match=message):
            quotient_rep(Pi, [bad], keep=[0, 1, 2])
    r3 = restrict_rep(Pi, u3)
    with pytest.raises(InputError, match="vector '1,-1,1,0' needs 3 coordinates"):
        quotient_rep(r3, [(1, -1, 1, 0)], keep=[0, 2])
    assert quotient_rep(r3, [(1, -1, 1)], keep=[0, 2]) == quotient_rep(r3, [(F(1), -1, 1)], [0, 2])


def test_quotient_by_zero_subspace(system):
    rho = rho_rep(system("A2"), F(2))
    again = quotient_rep(rho, [], keep=[0, 1, 2])
    assert again == rho


def test_quotient_identity_with_shift(context):
    ctx = context("A2")
    t = F(3)
    Pi = Pi_rep(ctx, t)
    r3 = restrict_rep(Pi, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    q = quotient_rep(r3, [(1, -1, 1)], keep=[0, 2])
    shifted = rho_rep(ctx.system, t + F(1, 2))
    rr = restrict_rep(shifted, [(1, 0, 0), (0, 1, 0)])
    assert q == rr


def test_quotient_errors(context):
    ctx = context("A2")
    Pi = Pi_rep(ctx, F(2))
    r3 = restrict_rep(Pi, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(SubspaceError):
        quotient_rep(r3, [(1, -1, 1)], keep=[0])  # wrong dimension
    with pytest.raises(SubspaceError):
        quotient_rep(r3, [(1, 0, 0)], keep=[0, 1])  # axes not transverse
    with pytest.raises(SubspaceError):
        quotient_rep(r3, [(1, 0, 0)], keep=[1, 2])  # not invariant
    with pytest.raises(SubspaceError, match="subspace vectors are linearly dependent"):
        quotient_rep(r3, [(0, 0, 0)], keep=[0, 1])
    with pytest.raises(SubspaceError, match="subspace vectors are linearly dependent"):
        quotient_rep(r3, [(1, -1, 1), (2, -2, 2)], keep=[0])


def test_signed_permutation_degeneration(system, context):
    assert signed_permutation_check(rho_rep(system("A2"), F(0)))
    assert signed_permutation_check(Pi_rep(context("B2"), F(0)))
    assert not signed_permutation_check(rho_rep(system("A2"), F(2)))
    # a row longer or shorter than the number of rows is not square
    assert not signed_permutation_check({"x": ((1, 1),)})
    assert not signed_permutation_check({"x": ((1, 0),)})
    assert not signed_permutation_check({"x": ((0, 1), (1,))})


def test_rho_i25_equals_rho_a2(system):
    t = F(2)
    left = rho_rep(system("I2(5)"), t)
    right = rho_rep(system("A2"), t)
    assert left == right


# -- closed forms against the eigenspace-intersection oracle ---------------------

ORACLE_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "I2(5)", "I2(8)", "A1*A1"]
# 1511/1009: a parameter no cache or golden has seen, with a prime denominator
FRESH_T = F(1511, 1009)
ORACLE_TS = [F(2), F(5, 2), F(0), F(1, 3), FRESH_T]


def assert_identical(got, want):
    """Equal in value and in type, element by element and in order; the
    dict subclass rho_rep and Pi_rep return counts as a dict."""
    assert type(got) is type(want) or (type(got), type(want)) == (rep_module._Rep, dict)
    if isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert_identical(x, y)
    elif isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            assert_identical(got[key], want[key])
    else:
        assert got == want
        assert getattr(got, "conductor", None) == getattr(want, "conductor", None)


def assert_shared(mat):
    """Every zero is one shared zero, which over Fractions is `_ZERO`, and
    over Fractions every unit row is an identity row."""
    zeros = [x for row in mat for x in row if x == 0]
    assert all(x is zeros[0] for x in zeros)
    if not zeros or type(zeros[0]) is not Fraction:
        return
    assert zeros[0] is _ZERO
    units = identity_matrix(len(mat[0]))
    for row in mat:
        hits = [x for x in row if x != 0]
        if len(hits) == 1 and hits[0] == 1:
            assert any(row is unit for unit in units)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_rho_matches_oracle(system, name):
    sys_ = system(name)
    for t in ORACLE_TS:
        rho = rho_rep(sys_, t)
        assert_identical(rho, oracle_rep.rho_rep(sys_, t))
        for m in rho.values():
            assert_shared(m)


@pytest.mark.parametrize(
    "name, t, where",
    [("A2", -1, "full space"), ("A3", -1, "span(e_I, E_I) for I = {s1,s2}"),
     ("A3", F(1, 2), "full space")],
)
def test_rho_degenerate_cases_match_oracle(system, name, t, where):
    sys_ = system(name)
    with pytest.raises(Exception) as got:
        rho_rep(sys_, t)
    with pytest.raises(Exception) as want:
        oracle_rep.rho_rep(sys_, t)
    assert type(got.value) is type(want.value) is DegenerateFormError
    assert str(got.value) == str(want.value) == f"degenerate form at t = {t}: {where}"


@pytest.mark.parametrize("name", ORACLE_SYSTEMS + ["F4"])
def test_rho_matches_oracle_at_negative_and_fresh_t(system, name):
    # rho divides by the pivots of one fraction-free elimination, which can
    # be negative: at t < 0 the images must still be the oracle's (no form
    # degenerates at these t)
    sys_ = system(name)
    for t in (F(-4099, 1019), F(-7, 3), F(3)):
        rho = rho_rep(sys_, t)
        assert_identical(rho, oracle_rep.rho_rep(sys_, t))
        for m in rho.values():
            assert_shared(m)


def _complements_of_lines(rep, gram):
    # the form-orthocomplement of a stable line is invariant as well
    for vec, _ in stable_lines(rep)[:2]:
        yield restrict_rep(rep, kernel_basis(mat_mul((vec,), gram)))


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_stable_lines_match_oracle(system, context, name):
    sys_, ctx = system(name), context(name)
    ts = ORACLE_TS if len(ctx.conjugates) < 40 else [F(2), FRESH_T]
    small = len(ctx.conjugates) < 20
    for t in ts:
        Pi = Pi_rep(ctx, t)
        reps = [Pi, rho_rep(sys_, t)]
        reps.append({s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)})
        if small:
            reps.extend(_complements_of_lines(Pi, form_on_S(ctx, t)))
            reps.extend(_complements_of_lines(reps[1], form_on_fset(sys_, t)))
        for rep in reps:
            assert_identical(stable_lines(rep), oracle_rep.stable_lines(rep))


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(5)", "A1*A1"])
def test_stable_lines_match_oracle_at_fresh_t(system, context, name):
    # rho and Pi at t with prime denominators above 1000, where the pieces
    # are split on integer rows
    sys_, ctx = system(name), context(name)
    for t in (F(8793, 1033), F(-4099, 1019)):
        for rep in (rho_rep(sys_, t), Pi_rep(ctx, t)):
            assert rep_module._images(rep)[0] is not None
            assert_identical(stable_lines(rep), oracle_rep.stable_lines(rep))


def test_stable_lines_match_oracle_on_a_two_dimensional_piece(context):
    # D4 Pi at t = -1 keeps a piece of dimension 2: the vectors of a piece
    # must come in the oracle's order
    Pi = Pi_rep(context("D4"), F(-1))
    lines = stable_lines(Pi)
    patterns = [tuple(signs.values()) for _, signs in lines]
    assert any(patterns.count(p) == 2 for p in patterns)
    assert_identical(lines, oracle_rep.stable_lines(Pi))


@pytest.mark.parametrize("name", ["H3", "I2(5)", "I2(8)"])
def test_stable_lines_match_oracle_on_cyclotomic_pi(system, name):
    sys_ = system(name)
    for t in ORACLE_TS + [F(1), F(-1)]:
        pi = {s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)}
        assert_identical(stable_lines(pi), oracle_rep.stable_lines(pi))


def test_stable_lines_of_a_three_cycle_keep_only_the_plus_line():
    # the unit rows of a 3-cycle join its coordinates into one odd cycle,
    # so v_j = -v_i around it forces v = 0: no -1 line, only (1, 1, 1).
    # The unit-row kernel of _split_piece would drop a -1 vector as well, so
    # the odd-cycle rule of _unit_solutions is checked on its own first
    assert rep_module._unit_solutions([1, 2, 0], -1, 0) == []
    assert rep_module._unit_solutions([1, 2, 0], 1, 0) == [{0: 1, 1: 1, 2: 1}]
    e = identity_matrix(3)
    rep = {"g": (e[1], e[2], e[0])}
    lines = stable_lines(rep)
    assert lines == [((F(1), F(1), F(1)), {"g": 1})]
    assert_identical(lines, oracle_rep.stable_lines(rep))


# -- stable lines against the piece-splitting oracle ------------------------------

PIECE_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(5)", "I2(8)", "A1*A1"]
PIECE_TS = [F(2), F(5, 2), F(0), F(-1), FRESH_T]


def _reps_with_forms(sys_, ctx, t):
    yield Pi_rep(ctx, t), form_on_S(ctx, t)
    try:
        yield rho_rep(sys_, t), form_on_fset(sys_, t)
    except DegenerateFormError:
        pass
    yield {s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)}, sys_.gram_matrix(t)


def assert_as_piece_oracle(rep):
    lines = stable_lines(rep)
    assert_identical(lines, oracle_rep.piece_stable_lines(rep))
    return lines


@pytest.mark.parametrize("name", PIECE_SYSTEMS)
def test_stable_lines_match_the_piece_oracle(system, context, name):
    sys_, ctx = system(name), context(name)
    for t in PIECE_TS:
        for rep, gram in _reps_with_forms(sys_, ctx, t):
            lines = assert_as_piece_oracle(rep)
            # restricted reps: the form-orthocomplement of the first line, and
            # the span of all the lines, whose generators are diagonal
            for vec, _ in lines[:1]:
                assert_as_piece_oracle(restrict_rep(rep, kernel_basis(mat_mul((vec,), gram))))
            if len(lines) > 1:
                restricted = restrict_rep(rep, [vec for vec, _ in lines])
                assert len(assert_as_piece_oracle(restricted)) == len(lines)


def test_stable_lines_match_the_piece_oracle_on_a_two_dimensional_piece(context):
    Pi = Pi_rep(context("D4"), F(-1))
    patterns = [tuple(signs.values()) for _, signs in assert_as_piece_oracle(Pi)]
    assert any(patterns.count(p) == 2 for p in patterns)


def test_stable_lines_match_the_piece_oracle_on_h4(context):
    assert len(assert_as_piece_oracle(Pi_rep(context("H4"), F(2)))) == 1


def test_stable_lines_take_no_n_by_n_step(context, monkeypatch):
    # F4 Pi: the first generator's eigenspaces come from its cycles and one
    # general row, so no kernel sees all n columns; the pieces stay sparse,
    # so no row is scanned for its nonzeros but the images' general rows
    Pi = Pi_rep(context("F4"), F(2))
    n = len(Pi[next(iter(Pi))])
    general = sum(len(rows) for _, rows in rep_module._images(Pi)[1].values())
    kernels, scans = [], []

    def integer_kernel(rows, ncols):
        kernels.append((len(rows), ncols))
        return linalg.integer_kernel(rows, ncols)

    def nonzeros(row, scan=rep_module._nonzeros):
        scans.append(len(row))
        return scan(row)

    monkeypatch.setattr(rep_module, "integer_kernel", integer_kernel)
    monkeypatch.setattr(rep_module, "_nonzeros", nonzeros)
    lines = stable_lines(Pi)
    monkeypatch.undo()
    assert_identical(lines, oracle_rep.piece_stable_lines(Pi))
    assert kernels[0][0] == 1
    assert all(cols < n for _, cols in kernels), kernels
    assert len(scans) <= general, (len(scans), general)


@pytest.mark.parametrize("kind, most", [("rho", 8), ("Pi", 7)])
def test_stable_lines_prune_one_entry_rows_before_the_kernel(system, context, kind, most,
                                                             monkeypatch):
    # A4 at a fresh t: a row of (M - sI)U with one nonzero fixes its unknown
    # at 0, so most splits need no kernel
    rep = rho_rep(system("A4"), FRESH_T) if kind == "rho" else Pi_rep(context("A4"), FRESH_T)
    kernels = []

    def integer_kernel(rows, ncols):
        kernels.append((len(rows), ncols))
        return linalg.integer_kernel(rows, ncols)

    monkeypatch.setattr(rep_module, "integer_kernel", integer_kernel)
    lines = stable_lines(rep)
    monkeypatch.undo()
    assert_identical(lines, oracle_rep.piece_stable_lines(rep))
    assert len(kernels) <= most, kernels


def _split_without_rows(monkeypatch):
    """Record the sign of every split whose pruning fixed some unknowns and
    left the others with no row: its part is those basis vectors as they
    are, the same objects, and fewer of them."""
    signs = []

    def split(basis, *args, split=rep_module._split_piece):
        out = split(basis, *args)
        ids = {id(v) for v in basis}
        signs.extend(sign for sign, part in out
                     if part and len(part) < len(basis) and all(id(v) in ids for v in part))
        return out

    monkeypatch.setattr(rep_module, "_split_piece", split)
    return signs


@pytest.mark.parametrize("name", ["A4", "D4", "H3", "I2(5)"])
def test_stable_lines_split_without_rows_once_pruned(system, context, name, monkeypatch):
    # int images (rho and Pi at a fresh t) and CycloReal images (the
    # reflection representation of H3 and I2(5)), against the eigenspace
    # oracle, each reaching the split that pruning leaves with no row
    sys_ = system(name)
    pi = {s: sys_.reflection_matrix(s, FRESH_T) for s in range(sys_.rank)}
    cyclotomic = name in ("H3", "I2(5)")
    reps = [pi] if cyclotomic else [rho_rep(sys_, FRESH_T), Pi_rep(context(name), FRESH_T)]
    for rep in reps:
        assert (rep_module._images(rep)[0] is None) == cyclotomic
        signs = _split_without_rows(monkeypatch)
        lines = stable_lines(rep)
        monkeypatch.undo()
        assert signs, name
        assert_identical(lines, oracle_rep.stable_lines(rep))


@pytest.mark.parametrize("name", ["I2(5)*A1", "H3*A1"])
def test_stable_lines_of_a_reducible_cyclotomic_pi_take_the_images_type(system, name):
    # the line of the A1 factor: every entry a CycloReal at the system's
    # conductor, equal in value to the piece oracle's
    sys_ = system(name)
    for t in (F(2), F(5, 2)):
        pi = {s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)}
        lines = stable_lines(pi)
        assert len(lines) == 1 and lines == oracle_rep.piece_stable_lines(pi)
        for x in lines[0][0]:
            assert type(x) is CycloReal and x.conductor == sys_.conductor


def test_quotient_shares_the_zero_and_the_unit_rows(context):
    ctx = context("A2")
    r3 = restrict_rep(Pi_rep(ctx, F(3)), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    q = quotient_rep(r3, [(1, -1, 1)], keep=[0, 2])
    assert any(row in identity_matrix(2) for m in q.values() for row in m)
    for m in q.values():
        assert_shared(m)
    rho = rho_rep(ctx.system, F(5, 2))
    line = stable_lines(rho)[0][0]
    for m in quotient_rep(rho, [line], keep=[0, 1]).values():
        assert_shared(m)


# -- restriction and quotient against the per-generator oracle ------------------

CHANGE_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "I2(5)"]


def assert_same_change(ours, theirs, *args):
    """The same matrices as the oracle in value and type, with shared zeros
    and unit rows, or the same error."""
    try:
        want = theirs(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            ours(*args)
        assert str(got.value) == str(exc)
        return None
    got = ours(*args)
    assert_identical(got, want)
    for m in got.values():
        assert_shared(m)
    return got


def _reps_and_forms(sys_, ctx, t):
    yield Pi_rep(ctx, t), form_on_S(ctx, t)
    yield rho_rep(sys_, t), form_on_fset(sys_, t)
    yield {s: sys_.reflection_matrix(s, t) for s in range(sys_.rank)}, sys_.gram_matrix(t)


def _quotients_by(rep, vec):
    # the axis dropped is the first, then the last, nonzero coordinate
    n = len(vec)
    support = [i for i, x in enumerate(vec) if x != 0]
    for p in (support[0], support[-1]):
        keep = [i for i in range(n) if i != p]
        assert_same_change(quotient_rep, oracle_rep.quotient_rep, rep, [vec], keep)


@pytest.mark.parametrize("name", CHANGE_SYSTEMS)
def test_restrict_and_quotient_match_oracle(system, context, name):
    sys_, ctx = system(name), context(name)
    for t in (F(2), FRESH_T):
        for rep, gram in _reps_and_forms(sys_, ctx, t):
            for vec, _ in stable_lines(rep)[:2]:
                _quotients_by(rep, vec)
                # the form-orthocomplement of a stable line is invariant
                complement = kernel_basis(mat_mul((vec,), gram))
                if len(complement) > 25:
                    continue
                restricted = assert_same_change(
                    restrict_rep, oracle_rep.restrict_rep, rep, complement
                )
                for inner, _ in stable_lines(restricted)[:1]:
                    _quotients_by(restricted, inner)


@pytest.mark.parametrize("name", ["H3", "I2(5)", "H3*A1", "I2(5)*A1"])
def test_restrict_and_quotient_match_oracle_on_cyclotomic_pi(system, name):
    sys_ = system(name)
    n = sys_.rank
    for t in (F(2), F(5, 2), F(1)):
        pi = {s: sys_.reflection_matrix(s, t) for s in range(n)}
        # the whole space in cyclotomic bases, and its quotient by nothing
        for basis in (pi[0], mat_mul(pi[0], pi[n - 1]), transpose(pi[1])):
            again = assert_same_change(restrict_rep, oracle_rep.restrict_rep, pi, basis)
            assert_same_change(quotient_rep, oracle_rep.quotient_rep, again, [], list(range(n)))
        if "*" in name:
            # the A1 factor is a stable line, whose vector mixes scalar types,
            # and the other factor's axes span an invariant block
            block = [identity_matrix(n)[i] for i in range(n - 1)]
            assert_same_change(restrict_rep, oracle_rep.restrict_rep, pi, block)
            assert_same_change(quotient_rep, oracle_rep.quotient_rep, pi, block, [n - 1])
            (vec, _), = stable_lines(pi)
            _quotients_by(pi, vec)


@pytest.mark.parametrize("name", ["B3", "H3", "B4", "F4", "H4", "I2(5)", "I2(8)"])
def test_reflection_reps_match_oracle_on_the_cyclotomic_ladder(system, name):
    # the one fraction-free elimination on CycloReal entries, against the
    # oracle's, which scales each pivot row to 1: stable lines, the whole
    # space in cyclotomic bases with its quotients by nothing and by all of
    # it, and a line that is not invariant and a basis that is dependent
    sys_ = system(name)
    n = sys_.rank
    pi = {s: sys_.reflection_matrix(s, 2) for s in range(n)}
    assert_identical(stable_lines(pi), oracle_rep.stable_lines(pi))
    for basis in (pi[0], mat_mul(pi[0], pi[n - 1]), transpose(pi[1])):
        again = assert_same_change(restrict_rep, oracle_rep.restrict_rep, pi, basis)
        assert_same_change(quotient_rep, oracle_rep.quotient_rep, again, [], list(range(n)))
        assert_same_change(quotient_rep, oracle_rep.quotient_rep, pi, basis, [])
    for basis in (pi[0][:1], pi[0][:2] + pi[0][:1]):
        assert_same_change(restrict_rep, oracle_rep.restrict_rep, pi, basis)
        assert_same_change(quotient_rep, oracle_rep.quotient_rep, pi, basis, list(range(1, n)))


def test_restrict_and_quotient_errors_match_oracle(context):
    ctx = context("A2")
    Pi = Pi_rep(ctx, F(2))
    u3 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    for basis in ([(1, 0, 0, 0)], [(1, 0, 0, 0), (2, 0, 0, 0)], [(0, 0, 0, 0)], [], u3):
        assert_same_change(restrict_rep, oracle_rep.restrict_rep, Pi, basis)
    r3 = restrict_rep(Pi, u3)
    cases = [
        ([(1, -1, 1)], [0]),
        ([(1, 0, 0)], [0, 1]),
        ([(1, 0, 0)], [1, 2]),
        ([(0, 0, 0)], [0, 1]),
        ([(1, -1, 1), (2, -2, 2)], [0]),
        ([(1, -1, 1)], [0, 0]),
        ([(1, -1, 1)], [0, 3]),
        ([(1, -1, 1)], [-1, 0]),
        ([(1, -1, 1)], [1, 2]),
        ([], [2, 0, 1]),
        ([(1, -1, 1), (1, 0, 0), (0, 1, 0)], []),
        # dependence comes first, before the dimension and the axes
        ([(0, 0, 0)], [0]),
        ([(1, -1, 1), (2, -2, 2)], [0, 1]),
        ([(0, 0, 0)], [0, 0]),
        ([(1, -1, 1), (2, -2, 2)], [0, 0]),
    ]
    for subspace, keep in cases:
        assert_same_change(quotient_rep, oracle_rep.quotient_rep, r3, subspace, keep)
    assert restrict_rep({}, u3) == oracle_rep.restrict_rep({}, u3) == {}
    assert quotient_rep({}, [(1, -1, 1)], [0]) == {}


def test_a_quotient_eliminates_its_subspace_once(context, monkeypatch):
    # dependence, dimension and transversality are read off the one
    # elimination that gives the pivot coordinates
    Pi = Pi_rep(context("B3"), F(2))
    vec = stable_lines(Pi)[0][0]
    p = next(i for i, x in enumerate(vec) if x != 0)
    keep = [i for i in range(len(vec)) if i != p]
    calls = []

    def integer_reduce(*args, reduce=linalg._integer_reduce, **kwargs):
        calls.append(len(args[0]))
        return reduce(*args, **kwargs)

    monkeypatch.setattr(linalg, "_integer_reduce", integer_reduce)
    monkeypatch.setattr(rep_module, "_integer_reduce", integer_reduce)
    got = quotient_rep(Pi, [vec], keep)
    monkeypatch.undo()
    assert calls == [1]
    assert_identical(got, oracle_rep.quotient_rep(Pi, [vec], keep))


def test_restriction_of_d4_to_a_40_dimensional_complement(context):
    # too slow for the oracle (seconds); check M U = U X directly
    ctx = context("D4")
    t = F(2)
    Pi = Pi_rep(ctx, t)
    vec = stable_lines(Pi)[0][0]
    basis = kernel_basis(mat_mul((vec,), form_on_S(ctx, t)))
    assert len(basis) == 40
    columns = transpose(basis)
    restricted = restrict_rep(Pi, basis)
    assert list(restricted) == list(Pi)
    for key, x in restricted.items():
        assert len(x) == 40
        assert mat_mul(Pi[key], columns) == mat_mul(columns, x)
        assert_shared(x)


# -- relation checks on integer rows against the Fraction-product oracle -------

LADDER = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(5)", "A1*A1"]
FRESH_TS = [FRESH_T, F(8793, 1033), F(-4099, 1019)]


def assert_report_as_oracle(sys_, rep):
    got = check_relations(sys_, rep)
    assert got == oracle_rep.check_relations(sys_, rep)
    return got


def _moved(rep, key, i, j):
    """rep with entry (i, j) of the image of key moved by 1/10007."""
    mat = [list(row) for row in rep[key]]
    mat[i][j] += F(1, 10007)
    return {k: tuple(map(tuple, mat)) if k == key else m for k, m in rep.items()}


def _unshared(rep):
    # every row a fresh tuple of fresh Fractions: no row is a shared unit row
    return {key: tuple(tuple(F(x.numerator, x.denominator) for x in row) for row in mat)
            for key, mat in rep.items()}


@pytest.mark.parametrize("name", LADDER)
def test_check_relations_matches_oracle_at_fresh_t(system, context, name):
    sys_, ctx = system(name), context(name)
    for t in FRESH_TS:
        for shared in (rho_rep(sys_, t), Pi_rep(ctx, t)):
            for rep in (shared, _unshared(shared)):
                d, images = rep_module._images(rep)
                assert d is not None
                assert (rep is shared) or all(u is None for units, _ in images.values()
                                              for u in units)
                assert assert_report_as_oracle(sys_, rep).ok


@pytest.mark.parametrize("name", ["A3", "B3", "A4"])
def test_check_relations_matches_oracle_on_moved_entries(system, context, name):
    # one entry of one image moved by 1/10007, in a general and in a unit
    # row of every image in turn; between them the copies break an
    # involution, a commuting pair and a nested pair (a move can also keep
    # every relation, when it commutes with the image the right way)
    sys_, ctx = system(name), context(name)
    rng = random.Random(f"moved-{name}")
    kinds = set()
    for rep in (rho_rep(sys_, FRESH_T), Pi_rep(ctx, FRESH_T)):
        n = len(next(iter(rep.values())))
        for key, mat in rep.items():
            units = [i for i, row in enumerate(mat) if row in identity_matrix(n)]
            general = [i for i in range(n) if i not in units]
            for rows in (units, general):
                if rows:
                    moved = _moved(rep, key, rng.choice(rows), rng.randrange(n))
                    report = assert_report_as_oracle(sys_, moved)
                    kinds.update(kind for kind, _ in report.violations)
    assert kinds == {"involution", "commute", "nested"}


def _cyclotomic(rep, conductor):
    # every general row's entries as CycloReals; unit rows stay shared
    units = identity_matrix(len(next(iter(rep.values()))))
    return {
        key: tuple(row if any(row is u for u in units)
                   else tuple(CycloReal.from_rational(x, conductor) for x in row)
                   for row in mat)
        for key, mat in rep.items()
    }


def _with_ints(rep):
    # every integral nonzero of a general row as a Python int
    units = identity_matrix(len(next(iter(rep.values()))))
    return {
        key: tuple(row if any(row is u for u in units)
                   else tuple(int(x) if x != 0 and x.denominator == 1 else x for x in row)
                   for row in mat)
        for key, mat in rep.items()
    }


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "A4"])
def test_check_relations_of_other_entries_take_the_generic_path(system, context, name):
    # ints next to Fractions, and CycloReals, are not scaled to integer rows:
    # their reports are the oracle's all the same, broken copies included
    sys_, ctx = system(name), context(name)
    for rep in (rho_rep(sys_, F(2)), Pi_rep(ctx, F(2)), rho_rep(sys_, FRESH_T)):
        key = next(iter(rep))
        for other in (_with_ints(rep), _cyclotomic(rep, 5), _cyclotomic(rep, 8)):
            assert rep_module._images(other)[0] is None
            assert assert_report_as_oracle(sys_, other).ok
            moved = _moved(other, key, 0, 0)
            assert not assert_report_as_oracle(sys_, moved).ok


# -- pivot-coordinate restriction and quotient against the change of basis ----

IN_BASIS_SYSTEMS = ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(5)", "A1*A1"]


def _quotients_as_in_basis(rep, vec):
    # the axis dropped is the first, then the last, nonzero coordinate
    support = [i for i, x in enumerate(vec) if x != 0]
    for p in (support[0], support[-1]):
        keep = [i for i in range(len(vec)) if i != p]
        assert_same_change(quotient_rep, oracle_rep.in_basis_quotient_rep, rep, [vec], keep)


@pytest.mark.parametrize("name", IN_BASIS_SYSTEMS)
def test_restrict_and_quotient_match_the_change_of_basis(system, context, name):
    sys_, ctx = system(name), context(name)
    for t in (F(2), FRESH_T):
        for rep, gram in _reps_with_forms(sys_, ctx, t):
            lines = stable_lines(rep)
            for vec, _ in lines[:2]:
                _quotients_as_in_basis(rep, vec)
                # the form-orthocomplement of a stable line is invariant
                complement = kernel_basis(mat_mul((vec,), gram))
                restricted = assert_same_change(
                    restrict_rep, oracle_rep.in_basis_restrict_rep, rep, complement
                )
                for inner, _ in stable_lines(restricted)[:1]:
                    _quotients_as_in_basis(restricted, inner)
            if len(lines) > 1:
                # two lines at once, on the first axes transverse to them
                plane = [vec for vec, _ in lines[:2]]
                keep = oracle_rep.default_keep(plane, len(plane[0]))
                assert_same_change(quotient_rep, oracle_rep.in_basis_quotient_rep, rep, plane, keep)
                assert_same_change(restrict_rep, oracle_rep.in_basis_restrict_rep, rep, plane)


def _error_cases(rep):
    """(function, oracle, args) for every SubspaceError and InputError of a
    restriction and a quotient of rep, and a few that succeed."""
    (vec, _), *_ = stable_lines(rep)
    n = len(vec)
    p = next(i for i, x in enumerate(vec) if x != 0)
    zero_axis = next((i for i, x in enumerate(vec) if x == 0), None)
    rest = [i for i in range(n) if i != p]
    units = identity_matrix(n)
    restricts = [[vec, tuple(2 * x for x in vec)], [units[0]], [], [tuple(0 for _ in vec)], [vec]]
    quotients = [
        ([vec, tuple(3 * x for x in vec)], rest[:-1]),  # dependent
        ([tuple(0 for _ in vec)], rest),  # dependent: the zero vector
        ([vec], rest[:-1]),  # wrong dimension
        ([vec], [rest[0]] + rest[:-1]),  # a duplicate keep axis
        ([vec], rest[:-1] + [n]),  # out of range
        ([], list(range(n))[::-1]),  # the empty subspace
        ([vec], rest),
    ]
    if zero_axis is not None:  # every axis but one where vec is 0: not transverse
        quotients.append(([vec], [i for i in range(n) if i != zero_axis]))
    for axis in range(n):  # a coordinate line, which is invariant only if stable
        quotients.append(([units[axis]], [i for i in range(n) if i != axis]))
    for basis in restricts:
        yield restrict_rep, oracle_rep.in_basis_restrict_rep, (rep, basis)
    for subspace, keep in quotients:
        yield quotient_rep, oracle_rep.in_basis_quotient_rep, (rep, subspace, keep)


@pytest.mark.parametrize("name", ["A2", "B3", "A4", "D4"])
def test_restrict_and_quotient_errors_match_the_change_of_basis(system, context, name):
    sys_, ctx = system(name), context(name)
    texts = set()
    for rep in (Pi_rep(ctx, F(2)), rho_rep(sys_, FRESH_T)):
        for ours, theirs, args in _error_cases(rep):
            try:
                theirs(*args)
            except (InputError, SubspaceError) as exc:
                texts.add(str(exc))
            assert_same_change(ours, theirs, *args)
    assert {
        "subspace vectors are linearly dependent",
        "restriction vectors are linearly dependent",
        "complement has the wrong dimension",
        "chosen axes are not transverse to the subspace",
        "subspace not invariant",
    } <= texts


@pytest.mark.parametrize("name", ["H3", "I2(5)", "H3*A1", "I2(5)*A1"])
def test_restrict_and_quotient_match_the_change_of_basis_on_cyclotomic_pi(system, name):
    sys_ = system(name)
    n = sys_.rank
    restrict, quotient = oracle_rep.in_basis_restrict_rep, oracle_rep.in_basis_quotient_rep
    for t in (F(2), F(5, 2), F(1)):
        pi = {s: sys_.reflection_matrix(s, t) for s in range(n)}
        for basis in (pi[0], mat_mul(pi[0], pi[n - 1]), transpose(pi[1])):
            again = assert_same_change(restrict_rep, restrict, pi, basis)
            assert_same_change(quotient_rep, quotient, again, [], list(range(n)))
        if "*" in name:
            block = [identity_matrix(n)[i] for i in range(n - 1)]
            assert_same_change(restrict_rep, restrict, pi, block)
            assert_same_change(quotient_rep, quotient, pi, block, [n - 1])
            (vec, _), = stable_lines(pi)
            _quotients_as_in_basis(pi, vec)
            for ours, theirs, args in _error_cases(pi):
                assert_same_change(ours, theirs, *args)


def test_h4_stable_lines_and_quotient_cache_only_the_quotient_width(context, monkeypatch):
    # stable lines ask `identity_matrix` for no width and a quotient only for
    # its own, n - k; the quotient matches the change of basis
    Pi = Pi_rep(context("H4"), F(2))
    widths = []

    def recording(n):
        widths.append(n)
        return identity_matrix(n)

    monkeypatch.setattr(linalg, "identity_matrix", recording)
    monkeypatch.setattr(rep_module, "identity_matrix", recording)
    before = len(linalg._IDENTITIES)
    lines = stable_lines(Pi)
    assert widths == [] and len(linalg._IDENTITIES) == before
    vec = lines[0][0]
    n = len(vec)
    p = next(i for i, x in enumerate(vec) if x != 0)
    keep = [i for i in range(n) if i != p]
    got = quotient_rep(Pi, [vec], keep)
    assert set(widths) == {n - 1}
    assert len(linalg._IDENTITIES) <= before + 1
    monkeypatch.undo()
    # `assert_identical` and `assert_shared` read 4.8 M entries one by one;
    # this reads them by identity, and every zero of either side is `_ZERO`
    want = oracle_rep.in_basis_quotient_rep(Pi, [vec], keep)
    assert list(got) == list(want) and got == want
    units = {id(row) for row in identity_matrix(n - 1)}
    for m in (*got.values(), *want.values()):
        for row in m:
            hits = [x for x in row if x is not _ZERO]
            assert all(type(x) is Fraction and x != 0 for x in hits)
            assert id(row) in units or hits != [1]


# -- Pi_of on int rows against the letterwise product ------------------------

PI_OF_TS = [F(1), F(2), F(8793, 1033), F(-1, 2)]
# contexts over a family other than F(S), by test id: (system, family)
PI_OF_FAMILIES = {
    "A3-custom": ("A3", [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})]),
    "I2(2)-full": ("I2(2)", [frozenset({0}), frozenset({1}), frozenset({0, 1})]),
}


def _semidirect_elements(ctx, words):
    yield SemidirectElement(ctx, (), next(iter(ctx.letters.values())).aut_part)
    for w in words:
        yield ctx.embed(w)


@pytest.mark.parametrize("name", IN_BASIS_SYSTEMS + list(PI_OF_FAMILIES))
def test_pi_of_matches_the_letterwise_product(system, context, name):
    # a word reaches Pi_of's fold only through its embedding; the oracle
    # multiplies the letter images of Pi_rep
    if name in PI_OF_FAMILIES:
        base, family = PI_OF_FAMILIES[name]
        ctx = RacgContext(system(base), family=family)
    else:
        ctx = context(name)
    rng = random.Random(f"pi-of-{name}")
    family = sorted(ctx.family, key=_subset_key)
    for t in PI_OF_TS:
        words = [CactusWord(ctx.system, [rng.choice(family) for _ in range(L)], alphabet=ctx.family)
                 for L in (0, 1, 8, 40)]
        for x in words + list(_semidirect_elements(ctx, words)):
            got = Pi_of(ctx, x, t)
            assert_identical(got, oracle_rep.product_Pi_of(ctx, x, t))
            assert_shared(got)


def test_pi_of_a_word_caches_no_pi_rep(system):
    # a word is embedded, so a fresh t leaves only the embedding's moves
    ctx = RacgContext(system("B3"))
    rng = random.Random("pi-of-cache")
    family = sorted(ctx.family, key=_subset_key)
    for k in range(20):
        Pi_of(ctx, CactusWord(ctx.system, [rng.choice(family) for _ in range(8)]), F(2 * k + 1, 7))
    assert list(ctx.caches) == ["moves"]


# -- the word problem against Pi at t = 1 --------------------------------------

WORD_PROBLEM_SYSTEMS = ["A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2(7)", "A2*A2"]


def _relation_moves(word, rng, count):
    """word after count random defining-relation moves, each applied where
    `apply_relation` applies."""
    for _ in range(count):
        spots = []
        for i in range(len(word) - 1):
            try:
                spots.append(apply_relation(word, i))
            except RelationApplicationError:
                pass
        if not spots:
            break
        word = rng.choice(spots)
    return word


@pytest.mark.parametrize("name", WORD_PROBLEM_SYSTEMS)
def test_word_problem_agrees_with_pi_at_one(context, name):
    # cactus_equal against equality of the letterwise products of the Pi
    # letter images at t = 1 (oracle_rep.product_Pi_of), a linear path
    # independent of the embedding: equal words by relation moves,
    # unequal ones (mostly) by one changed letter; evaluations against the
    # product of the longest elements
    ctx = context(name)
    sys_ = ctx.system
    rng = random.Random(f"word-problem-{name}")
    family = sorted(ctx.family, key=_subset_key)
    answers = []
    for L in (6, 20, 40):
        for _ in range(2):
            u = CactusWord(sys_, [rng.choice(family) for _ in range(L)])
            letters = list(u.letters)
            i = rng.randrange(L)
            letters[i] = rng.choice([I for I in family if I != letters[i]])
            for v in (_relation_moves(u, rng, 3 * L), CactusWord(sys_, letters)):
                equal = ctx.cactus_equal(u, v)
                pi_u, pi_v = (oracle_rep.product_Pi_of(ctx, w, 1) for w in (u, v))
                assert equal == (pi_u == pi_v)
                answers.append(equal)
                for w in (u, v):
                    value = GroupElement.identity(sys_)
                    for I in w.letters:
                        value = value * longest_element(sys_, I)
                    assert evaluate_to_coxeter(w) == value
                    assert is_pure(w) == value.is_identity()
    assert answers.count(True) >= 6 and False in answers


# -- rho and Pi as their readings, and the presentation of C_W -----------------

READING_SYSTEMS = ["A2", "A4", "B3", "H3", "D4", "B4", "F4", "H4"]
READING_TS = [F(2), F(5432, 1021), F(-7, 3)]


def _described(reading):
    """The matrices a reading (d, images) describes: per key and row, the
    column of a unit row, or the general row's nonzeros as Fractions."""
    d, images = reading
    return {key: [u if u is not None else {c: F(v, d) for c, v in general[i].items()}
                  for i, u in enumerate(units)]
            for key, (units, general) in images.items()}


@pytest.mark.parametrize("name", READING_SYSTEMS)
def test_carried_readings_describe_the_matrices(system, context, name):
    # the reading rho and Pi carry, against a fresh reading of the same
    # matrices: the same unit rows and the same general rows in value
    sys_, ctx = system(name), context(name)
    for t in READING_TS:
        for rep in (rho_rep(sys_, t), Pi_rep(ctx, t)):
            assert rep_module._images(rep)[1] is rep.reading[1]
            fresh = rep_module._images(dict(rep))
            assert _described(rep.reading[:2]) == _described(fresh)
            assert rep == dict(rep) and repr(rep) == repr(dict(rep))
        ctx.caches.clear()


@pytest.mark.parametrize("build", ["rho", "Pi"])
def test_an_edited_library_rep_is_read_again(system, build):
    # edited in place, with no dict(...) copy, a library rep no longer
    # matches its reading: the report reads the matrices as they now are
    sys_ = system("A2")
    ctx = RacgContext(sys_)  # its own Pi cache, not the shared context's
    rep = rho_rep(sys_, F(2)) if build == "rho" else Pi_rep(ctx, F(2))
    rep[S1] = tuple(tuple(2 * x for x in row) for row in rep[S1])
    report = check_relations(sys_, rep)
    assert ("involution", "{s1}") in report.violations
    assert report == oracle_rep.check_relations(sys_, dict(rep))
    del rep[S2]
    report = check_relations(sys_, rep)
    assert ("missing-conjugate", "w_{s1,s2}({s1}) = {s2}") in report.violations
    assert report == oracle_rep.check_relations(sys_, dict(rep))


def _enumerated_presentation(sys_, family):
    # the relations in the order the loops over pairs used to meet them,
    # the form's pattern and the w_I-orbits, each found directly
    keys = sorted(family, key=_subset_key)
    relations = []
    for a, I in enumerate(keys):
        for J in keys[a + 1:]:
            if commuting_subsets(sys_, I, J):
                relations.append((I, J, None))
            if I < J:
                relations.append((I, J, conjugate_subset(sys_, J, I)))
    pattern = [[int(I != J and not (I < J or J < I or commuting_subsets(sys_, I, J)))
                for J in keys] for I in keys]
    orbits = []
    for I in keys:
        pairs, done = [], set()
        for J in keys:
            J2 = conjugate_subset(sys_, I, J) if J < I else None
            if J2 is not None and J not in done and J2 in keys:
                done |= {J, J2}
                if J2 != J:
                    pairs.append((keys.index(J), keys.index(J2)))
        orbits.append(pairs)
    return tuple(keys), relations, pattern, orbits


@pytest.mark.parametrize("name", LADDER)
def test_presentation_matches_a_direct_enumeration(system, name):
    sys_ = system(name)
    pres = presentation(sys_)
    got = (pres.family, pres.relations, pres.pattern, pres.orbits)
    assert got == _enumerated_presentation(sys_, connected_subsets(sys_))
    assert pres is presentation(sys_, reversed(connected_subsets(sys_)))
    report = check_relations(sys_, rho_rep(sys_, FRESH_T))
    assert report.ok and report.checked == len(pres.family) + len(pres.relations)


def test_presentation_of_a_custom_family_is_the_closure_check(monkeypatch):
    # the context's closure check builds the presentation its relation
    # checks read, and a family that is not closed is refused from it
    a3 = CoxeterSystem.from_name("A3")
    family = [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})]
    ctx = RacgContext(a3, family=family)
    pres = presentation(a3, ctx.family)
    got = (pres.family, pres.relations, pres.pattern, pres.orbits)
    assert got == _enumerated_presentation(a3, family)
    calls = _count_presentation_calls(monkeypatch)
    report = check_relations(a3, Pi_rep(ctx, F(2)))
    assert report.ok and report.checked == len(family) + len(pres.relations)
    assert calls == {"conjugate_subset": 0, "commuting_subsets": 0}
    with pytest.raises(InputError, match="not closed"):
        RacgContext(a3, family=family[:3] + [frozenset({0, 1})] + family[3:])


def _count_presentation_calls(monkeypatch):
    calls = {"conjugate_subset": 0, "commuting_subsets": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(coxeter_module, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(coxeter_module, name, counting)
    return calls


def test_a_second_query_reads_the_presentation(monkeypatch):
    # once built, the presentation serves every later rho_rep and relation
    # check on the system: neither enumerates a relation again
    a4 = CoxeterSystem.from_name("A4")
    ctx = RacgContext(a4)
    assert check_relations(a4, rho_rep(a4, F(2))).ok
    calls = _count_presentation_calls(monkeypatch)
    for t in READING_TS:
        assert check_relations(a4, rho_rep(a4, t)).ok
        assert check_relations(a4, Pi_rep(ctx, t)).ok
    assert calls == {"conjugate_subset": 0, "commuting_subsets": 0}


@pytest.mark.parametrize("build", ["rho", "Pi"])
def test_stable_lines_and_quotient_read_no_matrix(system, context, build, monkeypatch):
    # a library rep is read from its reading: no row of its matrices goes
    # through `_nonzeros`, which a fresh reading calls on every general row
    sys_, ctx = system("B3"), context("B3")
    rep = rho_rep(sys_, FRESH_T) if build == "rho" else Pi_rep(ctx, FRESH_T)
    rows = {id(row) for m in rep.values() for row in m}
    seen = []
    nonzeros = rep_module._nonzeros

    def recording(row):
        seen.append(id(row))
        return nonzeros(row)

    monkeypatch.setattr(rep_module, "_nonzeros", recording)
    lines = stable_lines(rep)
    vec = lines[0][0]
    p = next(i for i, x in enumerate(vec) if x != 0)
    quotient_rep(rep, [vec], [i for i in range(len(vec)) if i != p])
    assert not rows.intersection(seen)
    stable_lines(dict(rep))  # the probe sees a fresh reading
    assert rows.intersection(seen)


def test_pi_cache_keeps_only_the_last_t(context):
    ctx = context("H3")
    ctx.caches.clear()
    reps = [Pi_rep(ctx, t) for t in (F(2), F(5, 2), F(3), F(-1, 3), F(7))]
    assert len(reps) == len({id(r) for r in reps}) == 5
    assert list(ctx.caches) == ["Pi"]
    assert ctx.caches["Pi"][0] == 7 and ctx.caches["Pi"][1] is reps[-1]
    assert Pi_rep(ctx, 7) is reps[-1]
    ctx.caches.clear()


def test_library_reps_do_not_outlive_their_callers(system):
    # nothing but the caller, and a context's Pi cache, keeps a rep alive
    sys_ = system("A3")
    ref = weakref.ref(rho_rep(sys_, F(2)))
    gc.collect()
    assert ref() is None
    ctx = RacgContext(sys_)
    rep = Pi_rep(ctx, F(2))
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is not None
    ctx.caches.clear()
    gc.collect()
    assert ref() is None
