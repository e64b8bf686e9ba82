"""End-to-end acceptance checks.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with
pytest -s) and then asserts.  Expected values are frozen here; anything
derived has an independent route somewhere in the unit suites.
"""

import random
from fractions import Fraction as F

from gencactus.cactus import (
    CactusWord,
    commuting_subsets,
    evaluate_to_coxeter,
    is_pure,
    parse_word,
)
from gencactus.coxeter import (
    CoxeterSystem,
    GroupElement,
    connected_subsets,
    conjugate_subset,
    longest_element,
)
from gencactus.linalg import identity_matrix
from gencactus.racg import RacgContext, normal_form, semidirect_mul
from gencactus.rep import (
    Pi_rep,
    check_relations,
    quotient_rep,
    restrict_rep,
    rho_rep,
    signed_permutation_check,
    stable_lines,
)

from conftest import get_context, get_system
from oracle_linalg import mat_mul, transpose
from oracle_rep import form_on_S, form_on_fset, product_Pi_of

SYSTEMS = [
    "A1", "A2", "A3", "A4", "B2", "B3",
    "I2(3)", "I2(4)", "I2(5)", "I2(7)", "A1*A1", "H3",
]

S1, S2, FULL = frozenset({0}), frozenset({1}), frozenset({0, 1})


def report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d}: {status} - {label}")
    assert not failures, f"criterion {number:02d}: " + "; ".join(failures)


def words_with_embeddings(ctx, max_len, alphabet=None):
    """All cactus words up to max_len, paired with their embeddings,
    accumulated letterwise along the enumeration tree."""
    sys_ = ctx.system
    fam = list(alphabet if alphabet is not None else ctx.family)
    letters = {I: ctx.embed(CactusWord(sys_, [I], alphabet=fam)) for I in fam}
    out = [(CactusWord(sys_, alphabet=fam), ctx.identity())]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for word, emb in frontier:
            for I in fam:
                grown = word * CactusWord(sys_, [I], alphabet=fam)
                nxt.append((grown, semidirect_mul(emb, letters[I])))
        out.extend(nxt)
        frontier = nxt
    return out


# -- 1: A2 golden matrices ----------------------------------------------------


def test_c01_a2_golden_matrices():
    failures = []
    sys_ = get_system("A2")
    ctx = get_context("A2")
    for t in (F(0), F(2), F(5, 2)):
        rho = rho_rep(sys_, t)
        if rho[S2] != ((1, 0, 0), (2 * t, -1, 0), (0, 0, 1)):
            failures.append(f"rho(B) wrong at t={t}")
        if rho[FULL] != ((0, 1, 0), (1, 0, 0), (0, 0, -1)):
            failures.append(f"rho(C) wrong at t={t}")
        Pi = Pi_rep(ctx, t)
        if Pi[S2] != ((0, 1, 0, 0), (1, 0, 0, 0), (2 * t, 2 * t, -1, 0), (0, 0, 0, 1)):
            failures.append(f"Pi(B) wrong at t={t}")
        if Pi[FULL] != ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1)):
            failures.append(f"Pi(C) wrong at t={t}")
    report(1, "A2 golden matrices", failures)


# -- 2: quotient identity -------------------------------------------------------


def test_c02_quotient_identity():
    failures = []
    ctx = get_context("A2")
    u1 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    axes = [(1, 0, 0), (0, 1, 0)]
    for t in (F(0), F(1), F(2), F(3), F(4), F(7, 3)):
        restricted = restrict_rep(Pi_rep(ctx, t), u1)
        q = quotient_rep(restricted, [(1, -1, 1)], keep=[0, 2])
        shifted = restrict_rep(rho_rep(ctx.system, t + F(1, 2)), axes)
        if q != shifted:
            failures.append(f"mismatch at t={t}")
    report(2, "quotient of Pi|U1 equals rho at t+1/2", failures)


# -- 3: relation suite -----------------------------------------------------------


def test_c03_relation_suite():
    failures = []
    for name in SYSTEMS:
        sys_ = get_system(name)
        ctx = get_context(name)
        rep = rho_rep(sys_, F(2))
        r = check_relations(sys_, rep)
        if not r.ok:
            failures.append(f"rho {name}: {r.summary()}")
        for t in (F(2), F(1)):
            r = check_relations(sys_, Pi_rep(ctx, t))
            if not r.ok:
                failures.append(f"Pi {name} t={t}: {r.summary()}")
    report(3, "check_relations clean for rho and Pi on all systems", failures)


# -- 4: orders of reflection products --------------------------------------------


def test_c04_order_property():
    failures = []
    for name in SYSTEMS:
        sys_ = get_system(name)
        n = sys_.rank
        ident = identity_matrix(n)
        for s in range(n):
            for v in range(s + 1, n):
                m = sys_.m(s, v)
                prod = mat_mul(sys_.reflection_matrix(s), sys_.reflection_matrix(v))
                power = prod
                order = 1
                while power != ident and order <= m:
                    power = mat_mul(power, prod)
                    order += 1
                if order != m:
                    failures.append(f"{name} pair ({s},{v}): order {order} != {m}")
    free = CoxeterSystem(("a", "b"), ((1, 0), (0, 1)))
    prod = mat_mul(free.reflection_matrix(0), free.reflection_matrix(1))
    power = prod
    for k in range(1, 21):
        if power == identity_matrix(2):
            failures.append(f"infinite-edge product collapsed at power {k}")
            break
        power = mat_mul(power, prod)
    report(4, "pairwise reflection products have the right orders", failures)


# -- 5: word problem against the faithful representation -------------------------


def test_c05_word_problem_vs_representation():
    # Pi at t = 1 as the letterwise product of its letter images, a path
    # apart from the embedding (Pi_of of a word folds its embedding)
    failures = []
    for name in ("A2", "B2"):
        ctx = get_context(name)
        words = words_with_embeddings(ctx, 5)
        by_embed = {}
        by_matrix = {}
        for idx, (word, emb) in enumerate(words):
            by_embed.setdefault((emb.racg_part, emb.aut_part.perm), set()).add(idx)
            by_matrix.setdefault(product_Pi_of(ctx, word, F(1)), set()).add(idx)
        left = {frozenset(v) for v in by_embed.values()}
        right = {frozenset(v) for v in by_matrix.values()}
        if left != right:
            failures.append(f"{name}: embedding and Pi(t=1) partitions differ")
    report(5, "cactus_equal matches Pi equality at t=1 on all short words", failures)


# -- 6: dihedral cactus groups ----------------------------------------------------


def ball_sizes(ctx, gens, max_len):
    """Sizes of {words of length <= k} in the embedded group, k = 1..max_len."""
    letters = [ctx.embed(CactusWord(ctx.system, [I])) for I in gens]
    seen = {ctx.identity()}
    frontier = [ctx.identity()]
    sizes = []
    for _ in range(max_len):
        nxt = []
        for el in frontier:
            for letter in letters:
                grown = semidirect_mul(el, letter)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def test_c06_dihedral_cactus_structure():
    failures = []

    # (a) n=2: three commuting involutions generate (Z_2)^3
    i22 = get_system("I2(2)")
    fam = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    ctx2 = RacgContext(i22, family=fam)
    elements = {emb for _, emb in words_with_embeddings(ctx2, 4, alphabet=fam)}
    if len(elements) != 8:
        failures.append(f"n=2: {len(elements)} elements, wanted 8")
    for I in fam:
        for J in fam:
            u = CactusWord(i22, [I, J], alphabet=fam)
            v = CactusWord(i22, [J, I], alphabet=fam)
            if not ctx2.cactus_equal(u, v):
                failures.append(f"n=2: letters {I} and {J} do not commute")

    # (b) odd n: <B, C> grows like the infinite dihedral group
    for name in ("I2(3)", "I2(5)"):
        ctx = get_context(name)
        sizes = ball_sizes(ctx, [frozenset({1}), frozenset({0, 1})], 8)
        expect = [2 * k + 1 for k in range(1, 9)]
        if sizes != expect:
            failures.append(f"{name}: ball sizes {sizes} != {expect}")

    # (c) even n >= 4: gamma_ab is central and independent of <gamma_a, gamma_b>
    for name in ("I2(4)", "I2(6)"):
        ctx = get_context(name)
        sys_ = ctx.system
        ab = CactusWord(sys_, [frozenset({0, 1})])
        for single in (frozenset({0}), frozenset({1})):
            u = ab * CactusWord(sys_, [single])
            v = CactusWord(sys_, [single]) * ab
            if not ctx.cactus_equal(u, v):
                failures.append(f"{name}: gamma_ab does not commute with {single}")
        sizes = ball_sizes(ctx, [frozenset({0}), frozenset({1})], 8)
        expect = [2 * k + 1 for k in range(1, 9)]
        if sizes != expect:
            failures.append(f"{name}: ball sizes {sizes} != {expect}")
        target = ctx.embed(ab)
        generated = {
            emb
            for _, emb in words_with_embeddings(
                ctx, 8, alphabet=[frozenset({0}), frozenset({1})]
            )
        }
        if target in generated:
            failures.append(f"{name}: gamma_ab reachable from the two singletons")
    report(6, "dihedral cactus groups have the documented structure", failures)


# -- 7: closed-form Pi for odd dihedral systems ------------------------------------


def a_basis_permutation(ctx, n):
    """Positions of A_i = {e, (ab)^i a} and the full group in the canonical order."""
    sys_ = ctx.system
    table = ctx.table
    set_index = {pc.elements: i for i, pc in enumerate(ctx.conjugates)}
    order = []
    for i in range(n):
        word = (0, 1) * i + (0,)
        el = GroupElement.from_word(sys_, word)
        pair = frozenset({0, table.element_index(el)})
        order.append(set_index[pair])
    order.append(set_index[frozenset(range(len(table.elements)))])
    return order


def test_c07_odd_dihedral_closed_forms():
    failures = []
    t = F(2)
    for n in (3, 5):
        ctx = get_context(f"I2({n})")
        perm = a_basis_permutation(ctx, n)
        Pi = Pi_rep(ctx, t)
        B = Pi[frozenset({1})]
        C = Pi[frozenset({0, 1})]
        reB = tuple(tuple(B[perm[i]][perm[j]] for j in range(n + 1)) for i in range(n + 1))
        reC = tuple(tuple(C[perm[i]][perm[j]] for j in range(n + 1)) for i in range(n + 1))
        for i in range(n - 1):
            expect = [F(0)] * (n + 1)
            expect[n - i - 2] = F(1)
            expect[n - 1] = 2 * t
            if [reB[r][i] for r in range(n + 1)] != expect:
                failures.append(f"n={n}: Pi(B) column {i} off")
        if [reB[r][n - 1] for r in range(n + 1)] != [F(0)] * (n - 1) + [F(-1), F(0)]:
            failures.append(f"n={n}: Pi(B) column {n - 1} off")
        if [reB[r][n] for r in range(n + 1)] != [F(0)] * n + [F(1)]:
            failures.append(f"n={n}: Pi(B) full column off")
        for i in range(n):
            expect = [F(0)] * (n + 1)
            expect[n - 1 - i] = F(1)
            if [reC[r][i] for r in range(n + 1)] != expect:
                failures.append(f"n={n}: Pi(C) column {i} off")
        if [reC[r][n] for r in range(n + 1)] != [F(0)] * n + [F(-1)]:
            failures.append(f"n={n}: Pi(C) full column off")
    report(7, "odd dihedral Pi matches the closed formulas", failures)


# -- 8: stable lines ----------------------------------------------------------------


def test_c08_stable_lines():
    failures = []
    ctx = get_context("A2")
    u1 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    lines = stable_lines(restrict_rep(Pi_rep(ctx, F(2)), u1))
    hits = [(v, s) for v, s in lines if v == (1, -1, 1)]
    if not hits:
        failures.append("A2: no line spanned by (1,-1,1) inside U1")
    else:
        signs = hits[0][1]
        if signs[S2] != -1 or signs[FULL] != 1:
            failures.append(f"A2: wrong signs {signs}")

    for n in (3, 5):
        ctx = get_context(f"I2({n})")
        perm = a_basis_permutation(ctx, n)
        axes = [
            tuple(F(1) if j == k else F(0) for j in range(n + 1))
            for k in sorted(perm[:n])
        ]
        lines = stable_lines(restrict_rep(Pi_rep(ctx, F(2)), axes))
        slot = {p: i for i, p in enumerate(sorted(perm[:n]))}
        found = False
        for vec, _ in lines:
            ordered = [vec[slot[perm[i]]] for i in range(n)]
            if ordered[0] != 0 and all(
                ordered[i] == -ordered[i - 1] for i in range(1, n)
            ):
                found = True
        if not found:
            failures.append(f"I2({n}): no alternating-sign invariant line")

    if rho_rep(get_system("I2(5)"), F(2)) != rho_rep(get_system("A2"), F(2)):
        failures.append("rho on I2(5) differs from rho on A2")
    report(8, "stable lines and the shared dihedral rho", failures)


# -- 9: purity against the conjugation automorphism ----------------------------------


def test_c09_purity_and_embedding():
    failures = []
    disagreements = {}
    for name in ("A2", "B2", "I2(3)"):
        ctx = get_context(name)
        bad = []
        for word, emb in words_with_embeddings(ctx, 5):
            if is_pure(word) != emb.aut_part.is_identity():
                bad.append(word)
        disagreements[name] = bad

    for name in ("A2", "I2(3)"):
        if disagreements[name]:
            failures.append(f"{name}: {len(disagreements[name])} disagreements")

    ctx = get_context("A2")
    bc3 = parse_word(ctx.system, "g{s2} g{s1,s2} " * 3)
    if not is_pure(bc3):
        failures.append("(BC)^3 not pure in A2")
    if ctx.embed(bc3).is_identity():
        failures.append("(BC)^3 embeds to the identity")

    for name in ("A2", "B2", "I2(3)"):
        ctx = get_context(name)
        sys_ = ctx.system
        for I in ctx.family:
            sq = CactusWord(sys_, [I, I])
            if not ctx.cactus_equal(sq, CactusWord(sys_)):
                failures.append(f"{name}: gamma_{{{sys_.format_subset(I)}}}^2 != e")
            for J in ctx.family:
                if I < J:
                    lhs = CactusWord(sys_, [I, J])
                    rhs = CactusWord(sys_, [J, conjugate_subset(sys_, J, I)])
                    if not ctx.cactus_equal(lhs, rhs):
                        failures.append(f"{name}: nested relation fails for {I}, {J}")
                elif I != J and commuting_subsets(sys_, I, J):
                    if not ctx.cactus_equal(
                        CactusWord(sys_, [I, J]), CactusWord(sys_, [J, I])
                    ):
                        failures.append(f"{name}: commuting relation fails for {I}, {J}")

    # B2 has a central longest element: purity is strictly stronger there
    # than triviality of the conjugation action, and the length-1 word
    # g{s1,s2} separates the two.  Recorded as stated, expected to fail.
    if disagreements["B2"]:
        failures.append(
            f"B2: {len(disagreements['B2'])} words where is_pure and trivial "
            "conjugation action disagree (w0 is central, so the action cannot "
            "see it; smallest witness is the single letter g{s1,s2})"
        )
    report(9, "purity matches the conjugation action where that is possible", failures)


def test_c09_b2_disagreements_are_central_w0():
    # sharpens the B2 failure recorded by criterion 09 without changing it:
    # is_pure and a trivial conjugation action disagree exactly on the words
    # that evaluate to the central longest element
    for name, expected in (("A2", 0), ("I2(3)", 0), ("B2", 61)):
        ctx = get_context(name)
        sys_ = ctx.system
        w0 = longest_element(sys_, range(sys_.rank))
        bad, central = set(), set()
        for word, emb in words_with_embeddings(ctx, 5):
            if is_pure(word) != emb.aut_part.is_identity():
                bad.add(word)
            if evaluate_to_coxeter(word) == w0:
                central.add(word)
        assert len(bad) == expected, name
        if expected:
            assert bad == central


# -- 10: t = 0 degeneration ------------------------------------------------------------


def test_c10_signed_permutations_at_zero():
    failures = []
    for name in SYSTEMS:
        if not signed_permutation_check(rho_rep(get_system(name), F(0))):
            failures.append(f"rho at t=0 not signed permutations for {name}")
    report(10, "rho degenerates to signed permutations at t=0", failures)


# -- 11: the classical dictionary -------------------------------------------------------


def test_c11_type_a_dictionary_relations():
    from gencactus.cactus import type_a_dictionary

    failures = []
    for n in (3, 4):
        sys_ = get_system(f"A{n}")
        ctx = get_context(f"A{n}")
        fwd = type_a_dictionary(sys_)
        intervals = sorted(fwd)
        for p, q in intervals:
            letter = CactusWord(sys_, [fwd[(p, q)]])
            if not ctx.cactus_equal(letter * letter, CactusWord(sys_)):
                failures.append(f"n={n}: s_{{{p},{q}}}^2 != e")
            for m, r in intervals:
                u = CactusWord(sys_, [fwd[(p, q)], fwd[(m, r)]])
                if p <= m and r <= q and (m, r) != (p, q):
                    image = (p + q - r, p + q - m)
                    v = CactusWord(sys_, [fwd[image], fwd[(p, q)]])
                    if not ctx.cactus_equal(u, v):
                        failures.append(
                            f"n={n}: s_{{{p},{q}}} s_{{{m},{r}}} relation fails"
                        )
                elif q < m:
                    v = CactusWord(sys_, [fwd[(m, r)], fwd[(p, q)]])
                    if not ctx.cactus_equal(u, v):
                        failures.append(
                            f"n={n}: disjoint s_{{{p},{q}}}, s_{{{m},{r}}} do not commute"
                        )
    report(11, "classical interval relations transport through the dictionary", failures)


# -- 12: exactness and property suite -----------------------------------------------------


def random_word(rng, n, max_len):
    return tuple(rng.randrange(n) for _ in range(rng.randrange(max_len + 1)))


def random_move(word, M, rng):
    options = []
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            options.append(("del", i))
        if M[word[i]][word[i + 1]] == 2:
            options.append(("swap", i))
    options.append(("ins", rng.randrange(len(word) + 1)))
    kind, i = rng.choice(options)
    w = list(word)
    if kind == "del":
        del w[i : i + 2]
    elif kind == "swap":
        w[i], w[i + 1] = w[i + 1], w[i]
    else:
        k = rng.randrange(len(M))
        w[i:i] = [k, k]
    return tuple(w)


def test_c12_exactness_suite():
    failures = []
    rng = random.Random(20260819)
    for name in SYSTEMS:
        sys_ = get_system(name)
        ctx = get_context(name)
        t = F(2)

        rho = rho_rep(sys_, t)
        Pi = Pi_rep(ctx, t)
        gram_f = form_on_fset(sys_, t)
        gram_s = form_on_S(ctx, t)
        for m in rho.values():
            if mat_mul(m, m) != identity_matrix(len(m)):
                failures.append(f"{name}: rho image not an involution")
            if mat_mul(transpose(m), mat_mul(gram_f, m)) != gram_f:
                failures.append(f"{name}: rho breaks its form")
        for m in Pi.values():
            if mat_mul(m, m) != identity_matrix(len(m)):
                failures.append(f"{name}: Pi image not an involution")
            if mat_mul(transpose(m), mat_mul(gram_s, m)) != gram_s:
                failures.append(f"{name}: Pi breaks its form")
        for tt in (F(1), F(2)):
            g = sys_.gram_matrix(tt)
            for s in range(sys_.rank):
                m = sys_.reflection_matrix(s, tt)
                if mat_mul(transpose(m), mat_mul(g, m)) != g:
                    failures.append(f"{name}: pi generator breaks the form at t={tt}")

        nS = len(ctx.conjugates)
        for _ in range(1000):
            word = random_word(rng, nS, 6)
            base = normal_form(word, ctx.M)
            if normal_form(base, ctx.M) != base:
                failures.append(f"{name}: normal form not idempotent on {word}")
                break
            current = word
            for _ in range(5):
                current = random_move(current, ctx.M, rng)
            if normal_form(current, ctx.M) != base:
                failures.append(f"{name}: moves changed the normal form of {word}")
                break

        table = ctx.table
        size = len(table.elements)
        for _ in range(120):
            u, v = rng.randrange(size), rng.randrange(size)
            w = table.product(u, v)
            if ctx.induced_aut(w) != ctx.induced_aut(u).compose(ctx.induced_aut(v)):
                failures.append(f"{name}: induced_aut not a homomorphism")
                break

        fam = list(ctx.family)
        for _ in range(60):
            u = CactusWord(sys_, [fam[rng.randrange(len(fam))] for _ in range(rng.randrange(4))])
            v = CactusWord(sys_, [fam[rng.randrange(len(fam))] for _ in range(rng.randrange(4))])
            if ctx.embed(u * v) != semidirect_mul(ctx.embed(u), ctx.embed(v)):
                failures.append(f"{name}: embed not a homomorphism")
                break
    report(12, "exactness and structural properties hold everywhere", failures)
