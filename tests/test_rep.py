from fractions import Fraction

import pytest

from gencactus import rep as rep_module
from gencactus.cactus import CactusWord, parse_word
from gencactus.errors import DegenerateFormError, InputError, SubspaceError
from gencactus.linalg import determinant, identity_matrix, mat_mul, transpose
from gencactus.rep import (
    Pi_of,
    Pi_rep,
    check_relations,
    form_on_S,
    form_on_fset,
    pi_prime,
    quotient_rep,
    reflection_in_form,
    restrict_rep,
    rho_generator,
    rho_rep,
    signed_permutation_check,
    stable_lines,
)

from conftest import get_context

F = Fraction
S1, S2, FULL = frozenset({0}), frozenset({1}), frozenset({0, 1})


def test_form_on_fset_a2(system):
    t = F(2)
    form = form_on_fset(system("A2"), t)
    assert form.gram == (
        (F(1), -t, F(0)),
        (-t, F(1), F(0)),
        (F(0), F(0), F(1)),
    )
    assert determinant(form.gram) == 1 - t * t
    assert form.labels == ("{s1}", "{s2}", "{s1,s2}")


def test_form_on_s_a2_determinant(context):
    ctx = context("A2")
    for t in (F(0), F(2), F(5, 2), F(7, 3)):
        form = form_on_S(ctx, t)
        assert determinant(form.gram) == (1 + t) ** 2 * (1 - 2 * t)


def test_reflection_in_form_properties(context):
    ctx = context("B2")
    form = form_on_S(ctx, F(2))
    n = form.dim
    for k in range(n):
        m = reflection_in_form(form, k)
        assert mat_mul(m, m) == identity_matrix(n)
        assert mat_mul(transpose(m), mat_mul(form.gram, m)) == form.gram


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


def test_rho_generator_rejects_non_family_subset(system):
    a3 = system("A3")
    with pytest.raises(InputError):
        rho_generator(a3, frozenset({0, 2}), F(2))


def test_rho_checks_the_full_form_once(system, monkeypatch):
    sys_ = system("A4")
    gram = form_on_fset(sys_, F(2)).gram
    full = []

    def counting(m):
        full.append(m == gram)
        return determinant(m)

    monkeypatch.setattr(rep_module, "determinant", counting)
    rho = rho_rep(sys_, F(2))
    assert full.count(True) == 1 and len(full) == 1 + len(rho)
    full.clear()
    rho_generator(sys_, frozenset({0, 1}), F(2))
    assert full == [True, False]
    with pytest.raises(DegenerateFormError, match="^degenerate form at t = 1: full space$"):
        rho_generator(sys_, frozenset({0}), F(1))


def test_rho_preserves_its_form(system):
    sys_ = system("B2")
    t = F(3)
    form = form_on_fset(sys_, t)
    for m in rho_rep(sys_, t).values():
        assert mat_mul(transpose(m), mat_mul(form.gram, m)) == form.gram


def test_pi_preserves_its_form(context):
    ctx = context("B2")
    t = F(2)
    form = form_on_S(ctx, t)
    for m in Pi_rep(ctx, t).values():
        assert mat_mul(transpose(m), mat_mul(form.gram, m)) == form.gram


def test_pi_of_routes_agree(context):
    ctx = context("A2")
    w = parse_word(ctx.system, "g{s1} g{s1,s2} g{s2}")
    for t in (F(1), F(2)):
        assert Pi_of(ctx, w, t) == Pi_of(ctx, ctx.embed(w), t)
    assert Pi_of(ctx, CactusWord(ctx.system), F(1)) == identity_matrix(4)


def test_pi_of_rejects_other_objects(context):
    with pytest.raises(InputError):
        Pi_of(context("A2"), "g{s1}", F(1))


def test_pi_intertwines_permutation_and_reflections(context):
    # pi'(g) sigma_k pi'(g)^-1 = sigma_{g(k)}
    ctx = context("B2")
    form = form_on_S(ctx, F(2))
    n = form.dim
    for I in ctx.family:
        g = ctx.letters[I].aut_part
        p = pi_prime(g)
        pinv = pi_prime(g.inverse())
        for k in range(n):
            lhs = mat_mul(p, mat_mul(reflection_in_form(form, k), pinv))
            assert lhs == reflection_in_form(form, g(k))


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


def test_rho_i25_equals_rho_a2(system):
    t = F(2)
    left = rho_rep(system("I2(5)"), t)
    right = rho_rep(system("A2"), t)
    assert left == right
