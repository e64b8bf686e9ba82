import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencactus.cactus import (
    CactusWord,
    commuting_subsets,
    evaluate_to_coxeter,
    is_pure,
    parse_word,
)
from gencactus.coxeter import (
    GroupElement,
    connected_subsets,
    conjugate_subset,
    longest_element,
)
from gencactus import racg
from gencactus.errors import InputError
from gencactus.rep import Pi_of, Pi_rep
from gencactus.racg import (
    InducedAutomorphism,
    RacgContext,
    normal_form,
    semidirect_mul,
)

from conftest import get_context, get_system
import oracle_racg
from oracle_former_api import purity_consistency

LADDER = ["A2", "A3", "B3", "H3", "A4", "D4", "B4"]


# -- the set of parabolic conjugates and its commutation matrix ---------------

A2_M = (
    (1, 0, 0, 2),
    (0, 1, 0, 2),
    (0, 0, 1, 2),
    (2, 2, 2, 1),
)

B2_M = (
    (1, 0, 0, 2, 2),
    (0, 1, 2, 0, 2),
    (0, 2, 1, 0, 2),
    (2, 0, 0, 1, 2),
    (2, 2, 2, 2, 1),
)


def test_a2_conjugates_frozen(context):
    ctx = context("A2")
    assert [pc.label() for pc in ctx.conjugates] == ["<s1>", "<s1 s2 s1>", "<s2>", "<s1,s2>"]
    assert [len(pc) for pc in ctx.conjugates] == [2, 2, 2, 6]
    assert ctx.M == A2_M


def test_b2_conjugates_frozen(context):
    ctx = context("B2")
    assert [pc.label() for pc in ctx.conjugates] == [
        "<s1>", "<s1 s2 s1>", "<s2>", "<s2 s1 s2>", "<s1,s2>",
    ]
    assert ctx.M == B2_M


def test_product_system_conjugates(context):
    ctx = context("A1*A1")
    assert len(ctx.conjugates) == 2
    assert ctx.M == ((1, 2), (2, 1))


def test_m_matrix_matches_brute_force(context):
    # 2 on containment pairs, 2 on disjoint-but-elementwise-commuting pairs
    for name in ("A2", "B2"):
        ctx = context(name)
        table = ctx.table
        n = len(ctx.conjugates)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = ctx.conjugates[i], ctx.conjugates[j]
                nested = a.elements <= b.elements or b.elements <= a.elements
                commute = all(
                    table.product(x, y) == table.product(y, x)
                    for x in a.elements
                    for y in b.elements
                )
                expect2 = nested or (len(a.elements & b.elements) == 1 and commute)
                assert (ctx.M[i][j] == 2) == expect2
                assert ctx.M[i][j] == ctx.M[j][i]
                assert ctx.M[i][j] in (0, 2)


def _intersecting_big_matrix(conjugates, table):
    """M as it was built before: the full intersection of every pair, then its size."""
    n = len(conjugates)
    rows = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = conjugates[i].elements, conjugates[j].elements
        if a <= b or b <= a:
            m = 2
        elif len(a & b) == 1:
            gens = itertools.product(conjugates[i].genset, conjugates[j].genset)
            m = 2 if all(table.product(x, y) == table.product(y, x) for x, y in gens) else 0
        else:
            m = 0
        rows[i][j] = rows[j][i] = m
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("name", LADDER + ["F4", "H4", "E6"])
def test_m_matrix_matches_the_full_intersections(context, name):
    ctx = context(name)
    assert ctx.M == _intersecting_big_matrix(ctx.conjugates, ctx.table)


def test_m_matrix_off_custom_and_reducible_families_matches_the_full_intersections(system):
    # rows read off the W_I rows by conjugation, where the family is not
    # F(S) or the diagram is not connected
    contexts = [
        RacgContext(system("I2(2)"), family=[frozenset({0}), frozenset({1}), frozenset({0, 1})]),
        get_context("A2*A2"),
        get_context("I2(7)"),
        RacgContext(get_system("A3"), family=A3_CUSTOM),
    ]
    for ctx in contexts:
        assert ctx.M == _intersecting_big_matrix(ctx.conjugates, ctx.table)


def _reflection_roots(table):
    """{table index of w s_i w^-1: its roots +-w(alpha_i)}, over every w and i."""
    out = {}
    for w, el in enumerate(table.elements):
        for i, s in enumerate(table.simple_index):
            ws = table.product(w, s)
            t = table.product(ws, table.element_index(el.inverse()))
            out.setdefault(t, set()).update((el.key[i], table.elements[ws].key[i]))
    return out


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "F4", "I2(7)", "A2*A2", "A3 custom"])
def test_conjugate_roots_are_the_roots_of_its_reflections(name):
    # a conjugate is known by its roots: the union of +-w(alpha_i) over the
    # reflections w s_i w^-1 it contains, equal exactly when the element sets are
    ctx = get_context(name.split()[0])
    others = ctx.conjugates
    if name == "A3 custom":
        ctx = RacgContext(ctx.system, family=A3_CUSTOM)
    refl = _reflection_roots(ctx.table)
    for pc in ctx.conjugates:
        assert pc.roots == frozenset().union(*(refl[x] for x in pc.elements if x in refl))
    for a, b in itertools.product(ctx.conjugates, others):
        assert (a == b) == (a.elements == b.elements)
        if a == b:
            assert hash(a) == hash(b)


def test_conjugates_are_subgroups(context):
    ctx = context("B2")
    table = ctx.table
    for pc in ctx.conjugates:
        for x in pc.elements:
            assert table.element_index(table.elements[x].inverse()) in pc.elements
            for y in pc.elements:
                assert table.product(x, y) in pc.elements


def test_ordering_is_size_then_words(context):
    for name in ("A2", "B2", "I2(5)", "B3"):
        ctx = get_context(name)
        keys = [(len(pc), pc.words) for pc in ctx.conjugates]
        assert keys == sorted(keys)


# -- custom families ----------------------------------------------------------


def test_family_closure_error(system):
    a2 = system("A2")
    with pytest.raises(InputError):
        RacgContext(a2, family=[frozenset({0}), frozenset({0, 1})])


def test_family_validation_errors(system):
    a2 = system("A2")
    with pytest.raises(InputError):
        RacgContext(a2, family=[frozenset()])
    with pytest.raises(InputError):
        RacgContext(a2, family=[frozenset({0, 5})])


@pytest.mark.parametrize("family", [None, [frozenset({0}), frozenset({1}), frozenset({0, 1})]])
def test_family_checked_once_per_context(system, monkeypatch, family):
    calls = []
    checked = racg._checked_family

    def counting(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(racg, "_checked_family", counting)
    ctx = RacgContext(system("A2"), family=family)
    assert len(calls) == 1
    assert ctx.family == connected_subsets(ctx.system)


def test_fiat_family_i22(system):
    i22 = system("I2(2)")
    family = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    ctx = RacgContext(i22, family=family)
    assert len(ctx.conjugates) == 3
    off = [ctx.M[i][j] for i in range(3) for j in range(3) if i != j]
    assert set(off) == {2}


# -- right-angled normal forms ------------------------------------------------


def test_normal_form_units():
    assert normal_form((0, 0), A2_M) == ()
    assert normal_form((3, 0), A2_M) == (0, 3)
    assert normal_form((1, 3, 1), A2_M) == (3,)
    assert normal_form((), A2_M) == ()
    # non-commuting letters cannot be shuffled into lexicographic order
    assert normal_form((2, 0), A2_M) == (2, 0)
    assert normal_form((0, 1, 0), A2_M) == (0, 1, 0)
    with pytest.raises(InputError):
        normal_form((7,), A2_M)


def test_normal_form_refuses_bool_letters():
    # bool is an int subclass; True would pass the range check and come back
    # as a letter that JSON prints as `true`
    with pytest.raises(InputError, match="letter out of range for S: True$"):
        normal_form((True, 0), A2_M)
    with pytest.raises(InputError, match="letter out of range for S: False$"):
        normal_form((0, False), A2_M)


def legal_moves(word, M):
    moves = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b:
            moves.append(("del", i))
        if M[a][b] == 2:
            moves.append(("swap", i))
    for i in range(len(word) + 1):
        moves.append(("ins", i))
    return moves


def apply_move(word, move, M, rng):
    kind, i = move
    w = list(word)
    if kind == "del":
        del w[i : i + 2]
    elif kind == "swap":
        w[i], w[i + 1] = w[i + 1], w[i]
    else:
        k = rng.randrange(len(M))
        w[i:i] = [k, k]
    return tuple(w)


@pytest.mark.parametrize("name", ["A2", "B2"] + LADDER[1:])
def test_normal_form_invariant_under_moves(name):
    ctx = get_context(name)
    M = ctx.M
    rng = random.Random(23)
    n = len(M)
    for _ in range(300):
        word = tuple(rng.randrange(n) for _ in range(rng.randrange(9)))
        base = normal_form(word, M)
        assert normal_form(base, M) == base  # idempotent
        current = word
        for _ in range(6):
            move = rng.choice(legal_moves(current, M))
            current = apply_move(current, move, M, rng)
            assert normal_form(current, M) == base


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=8))
@settings(max_examples=80, deadline=None)
def test_normal_form_is_involution_class_function(word):
    # appending the reversed word must cancel to nothing
    word = tuple(word)
    back = tuple(reversed(word))
    assert normal_form(word + back, A2_M) == ()


def oracle_words(rng, n):
    """Seeded words over 0..n-1 with L <= 60: full and small sub-alphabets
    (many commutations, few letters) and words with squares x x inserted
    (cancellations across the word)."""
    words = []
    for k in range(320):
        size = n if k % 4 == 0 else rng.randint(1, min(n, 4 + k % 5))
        alphabet = rng.sample(range(n), size)
        word = [rng.choice(alphabet) for _ in range(rng.randrange(41))]
        if k % 2:
            for _ in range(rng.randint(1, 10)):
                x = rng.choice(alphabet)
                p = rng.randint(0, len(word))
                word[p:p] = [x, x]
        words.append(tuple(word))
    return words


@pytest.mark.parametrize("name", LADDER)
def test_normal_form_matches_oracle(name):
    M = get_context(name).M
    rng = random.Random(sum(map(ord, name)))
    words = oracle_words(rng, len(M))
    assert len(words) >= 300
    for word in words:
        assert normal_form(word, M) == oracle_racg.normal_form(word, M), word


@st.composite
def right_angled_matrices(draw):
    """A right-angled Coxeter matrix on 1-12 vertices: 1 on the diagonal,
    2 where letters commute, 0 elsewhere.  Random graphs, plus the 5-cycle,
    a path, the complete graph and the empty graph."""
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["random", "cycle5", "path", "complete", "empty"]))
    if kind == "cycle5":
        n = 5
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "random":
        edges = {p for p in pairs if draw(st.booleans())}
    elif kind == "cycle5":
        edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    elif kind == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    else:
        edges = set(pairs) if kind == "complete" else set()
    return tuple(
        tuple(1 if i == j else 2 if (min(i, j), max(i, j)) in edges else 0 for j in range(n))
        for i in range(n)
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_push_keeps_the_normal_form_after_every_letter(data):
    # the invariant behind the one-pass normal form: after each `_push` the
    # word is reduced and lexicographically least, on any right-angled M,
    # which `_push` reads as the set of letters each letter commutes with
    M = data.draw(right_angled_matrices())
    word = data.draw(st.lists(st.integers(min_value=0, max_value=len(M) - 1), max_size=60))
    commuting = [frozenset(j for j, m in enumerate(row) if m == 2) for row in M]
    w = []
    for k, x in enumerate(word):
        racg._push(w, x, commuting)
        assert tuple(w) == oracle_racg.normal_form(word[: k + 1], M), (M, word[: k + 1])


def raw_embed(ctx, word):
    # the unreduced image word and the aut part, letter by letter
    raw, aut = [], ctx.identity().aut_part
    for I in word.letters:
        el = ctx.letters[I]
        raw.extend(aut(i) for i in el.racg_part)
        aut = aut.compose(el.aut_part)
    return raw, aut


@pytest.mark.parametrize("name", LADDER + ["F4", "I2(7)", "A1*A1", "A2*A2"])
def test_one_pass_matches_the_heap_read_off(name):
    ctx = get_context(name)
    M, fam, n = ctx.M, list(ctx.family), len(ctx.M)
    rng = random.Random(sum(map(ord, name)) + 2000)
    for L in (0, 1, 2, 30, 300, 2000):
        letters = [rng.randrange(n) for _ in range(L)]
        middle = [rng.randrange(n) for _ in range(3)]
        for word in (letters, letters + middle + letters[::-1]):  # w, w x y z w^-1
            assert normal_form(word, M) == oracle_racg.heap_normal_form(word, M), L
        u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(L)])
        xyz = CactusWord(ctx.system, [rng.choice(fam) for _ in range(3)])
        v = CactusWord(ctx.system, [rng.choice(fam) for _ in range(L // 2 + 1)])
        for word in (u, u * xyz * u.inverse()):
            raw, aut = raw_embed(ctx, word)
            h = ctx.embed(word)
            assert h.racg_part == oracle_racg.heap_normal_form(raw, M), L
            assert h.aut_part == aut
        a, b = ctx.embed(u), ctx.embed(v)
        ab = semidirect_mul(a, b)
        tail = [a.aut_part(i) for i in b.racg_part]
        assert ab.racg_part == oracle_racg.heap_normal_form(a.racg_part + tuple(tail), M), L
        assert ab.aut_part == a.aut_part.compose(b.aut_part)


@pytest.mark.parametrize("name", ["D4", "F4", "H3"])
def test_semidirect_mul_of_embeddings_is_the_embedding(name):
    # semidirect_mul pushes onto a.racg_part as it stands, which embed keeps
    # in normal form
    ctx = get_context(name)
    fam = list(ctx.family)
    rng = random.Random(len(fam) * 7)
    for L in (0, 1, 30, 300):
        u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(L)])
        v = CactusWord(ctx.system, [rng.choice(fam) for _ in range(rng.choice((0, 1, L)))])
        assert semidirect_mul(ctx.embed(u), ctx.embed(v)) == ctx.embed(u * v), L


def oracle_embed(ctx, word):
    # left fold of semidirect products, each renormalized by the oracle
    racg_part, aut = (), ctx.identity().aut_part
    for I in word.letters:
        el = ctx.letters[I]
        racg_part = oracle_racg.normal_form(
            racg_part + tuple(aut(i) for i in el.racg_part), ctx.M
        )
        aut = aut.compose(el.aut_part)
    return racg_part, aut


# an A3 family other than F(S): w_0 swaps {s1} and {s3} and fixes {s2}
A3_CUSTOM = (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2}))


@pytest.mark.parametrize("name", LADDER + ["F4", "I2(5)", "I2(8)", "A1*A1", "A3 custom"])
def test_embed_matches_oracle_fold(name):
    if name == "A3 custom":
        ctx, alphabet = RacgContext(get_system("A3"), family=A3_CUSTOM), A3_CUSTOM
        assert ctx.family != connected_subsets(ctx.system)
    else:
        ctx, alphabet = get_context(name), None
    fam = list(ctx.family)
    rng = random.Random(41 + len(fam))
    lengths = [0, 1, 2, 10, 30, 60] + ([300] if name in ("A4", "D4", "H3") else [])
    for L in lengths:
        word = CactusWord(ctx.system, [rng.choice(fam) for _ in range(L)], alphabet=alphabet)
        h = ctx.embed(word)
        assert (h.racg_part, h.aut_part) == oracle_embed(ctx, word), L


def test_embed_composes_only_the_final_aut_part(monkeypatch):
    # the running aut part is an element x of W and g_x is built once, at
    # the end, so no letter composes permutations of S
    ctx = get_context("D4")
    rng = random.Random(300)
    word = CactusWord(ctx.system, [rng.choice(ctx.family) for _ in range(300)])
    calls = []
    compose = InducedAutomorphism.compose

    def counting(self, other):
        calls.append(other)
        return compose(self, other)

    monkeypatch.setattr(InducedAutomorphism, "compose", counting)
    h = ctx.embed(word)
    assert len(calls) <= evaluate_to_coxeter(word).length < 300
    monkeypatch.undo()
    assert (h.racg_part, h.aut_part) == oracle_embed(ctx, word)


# -- the memoized moves ---------------------------------------------------------

MEMO_SYSTEMS = ["A2", "B3", "H3", "A4", "D4", "B4", "F4", "I2(7)", "A1*A1", "A3 custom"]


def memo_context(name, fresh=False):
    if name == "A3 custom":
        ctx = RacgContext(get_system("A3"), family=A3_CUSTOM)
        return ctx, A3_CUSTOM
    return (RacgContext(get_system(name)) if fresh else get_context(name)), None


def memo_size(ctx):
    return sum(len(memo) for memo in ctx.caches.get("moves", {}).values())


@pytest.mark.parametrize("name", MEMO_SYSTEMS)
def test_warm_and_fresh_contexts_embed_alike(name):
    warm, alphabet = memo_context(name)
    fresh = memo_context(name, fresh=True)[0]
    fam = list(warm.family)
    rng = random.Random(sum(map(ord, name)) + 18)
    for _ in range(3):  # warm the shared context's memo first
        warm.embed(CactusWord(warm.system, [rng.choice(fam) for _ in range(100)], alphabet))
    for L in (0, 1, 2, 40, 300):
        word = CactusWord(warm.system, [rng.choice(fam) for _ in range(L)], alphabet)
        a, b = warm.embed(word), fresh.embed(word)
        assert a == b and (b.racg_part, b.aut_part) == oracle_embed(fresh, word), L


def changed_letter(rng, word, fam):
    # the same word with one letter replaced by another: unequal in C_W
    if not word.letters:
        return CactusWord(word.system, [rng.choice(fam)], alphabet=fam)
    letters = list(word.letters)
    p = rng.randrange(len(letters))
    letters[p] = rng.choice([I for I in fam if I != letters[p]])
    return CactusWord(word.system, letters, alphabet=fam)


def equal_by_moves(rng, word, fam):
    # g_I g_I inserted, then defining relations applied in both directions
    letters = list(word.letters)
    p = rng.randrange(len(letters) + 1)
    I = rng.choice(fam)
    letters[p:p] = [I, I]
    return relation_scramble(rng, CactusWord(word.system, letters, alphabet=fam), 4 * len(letters))


@pytest.mark.parametrize("name", MEMO_SYSTEMS)
def test_cactus_equal_agrees_with_the_embeddings(name, monkeypatch):
    ctx, _ = memo_context(name)
    fam = list(ctx.family)
    rng = random.Random(sum(map(ord, name)) + 1800)
    aut_calls = []
    induced_aut = RacgContext.induced_aut

    def counting(self, w):
        aut_calls.append(w)
        return induced_aut(self, w)

    for L in (0, 1, 40, 300):
        u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(L)], alphabet=fam)
        for v, expect in ((equal_by_moves(rng, u, fam), True),
                          (changed_letter(rng, u, fam), False)):
            monkeypatch.setattr(RacgContext, "induced_aut", counting)
            same = ctx.cactus_equal(u, v)
            monkeypatch.undo()
            assert same is expect and same == (ctx.embed(u) == ctx.embed(v)), L
            # the aut parts are built only when the evaluations differ
            if evaluate_to_coxeter(u) == evaluate_to_coxeter(v):
                assert not aut_calls, L
            aut_calls.clear()


@pytest.mark.parametrize("name", ["A2", "A4", "D4", "A3 custom"])
def test_moves_memo_is_bounded_and_cleared_with_the_caches(name):
    ctx, alphabet = memo_context(name, fresh=True)
    fam = list(ctx.family)
    rng = random.Random(len(fam) + 1819)
    words = [CactusWord(ctx.system, [rng.choice(fam) for _ in range(300)], alphabet)
             for _ in range(20)]
    assert "moves" not in ctx.caches  # lazy: no move is computed up front
    before = [ctx.embed(w) for w in words]
    assert set(ctx.caches["moves"]) <= set(ctx.family)
    assert 0 < memo_size(ctx) <= len(ctx.table) * len(ctx.family)
    ctx.caches.clear()
    assert memo_size(ctx) == 0
    assert [ctx.embed(w) for w in words] == before


def test_letter_outside_the_family_is_refused_on_a_warm_memo():
    ctx = RacgContext(get_system("A3"), family=A3_CUSTOM)
    ctx.embed(CactusWord(ctx.system, list(A3_CUSTOM) * 3, alphabet=A3_CUSTOM))
    outside = frozenset({0, 1})  # in F(S), not in the family
    for letters in ([outside], [frozenset({0}), outside]):
        word = CactusWord(ctx.system, letters)
        with pytest.raises(InputError, match="letter not in the generating family"):
            ctx.embed(word)
        with pytest.raises(InputError, match="letter not in the generating family"):
            ctx.cactus_equal(word, word)
        with pytest.raises(InputError, match="letter not in the generating family: {s1,s2}$"):
            Pi_of(ctx, word, 2)
    assert outside not in ctx.caches["moves"]


# -- long words -----------------------------------------------------------------


def relation_scramble(rng, word, moves):
    """A word equal to `word` in C_W: random defining relations, both ways.

    g_I g_J -> g_J g_{w_J(I)} for I inside J, g_J g_I -> g_{w_J(I)} g_J for
    I inside J, and g_I g_J -> g_J g_I for commuting I, J.
    """
    sys_ = word.system
    w = list(word.letters)
    for _ in range(moves):
        p = rng.randrange(len(w) - 1)
        a, b = w[p], w[p + 1]
        if a < b:
            w[p : p + 2] = [b, conjugate_subset(sys_, b, a)]
        elif b < a:
            w[p : p + 2] = [conjugate_subset(sys_, a, b), a]
        elif commuting_subsets(sys_, a, b):
            w[p : p + 2] = [b, a]
    return CactusWord(sys_, w)


def test_long_word_times_its_inverse_is_identity():
    ctx = get_context("D4")
    fam = list(ctx.family)
    rng = random.Random(5000)
    u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(5000)])
    assert len(ctx.embed(u).racg_part) > 1000
    assert ctx.embed(u * u.inverse()).is_identity()


@pytest.mark.parametrize("name", ["A4", "D4", "H3"])
def test_long_word_equal_to_its_scramble(name):
    ctx = get_context(name)
    fam = list(ctx.family)
    rng = random.Random(1000)
    u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(1000)])
    v = relation_scramble(rng, u, 4000)
    assert v != u
    assert ctx.cactus_equal(u, v)
    longer = relation_scramble(rng, u * CactusWord(ctx.system, [rng.choice(fam)]), 4000)
    assert not ctx.cactus_equal(u, longer)


# -- induced automorphisms -----------------------------------------------------


def test_induced_aut_frozen(context):
    ctx = context("A2")
    a2 = ctx.system
    s2 = GroupElement.simple(a2, 1)
    assert ctx.induced_aut(s2).perm == (1, 0, 2, 3)
    w0 = longest_element(a2, frozenset({0, 1}))
    assert ctx.induced_aut(w0).perm == (2, 1, 0, 3)
    assert ctx.induced_aut(GroupElement.identity(a2)).is_identity()


def test_induced_aut_accepts_index(context):
    ctx = context("A2")
    idx = ctx.table.element_index(GroupElement.simple(ctx.system, 0))
    assert ctx.induced_aut(idx).perm == ctx.induced_aut(GroupElement.simple(ctx.system, 0)).perm


def test_induced_aut_refuses_what_is_not_an_element(context):
    ctx = context("A2")
    assert ctx.induced_aut(len(ctx.table) - 1).perm == (2, 1, 0, 3)  # w0, the last BFS element
    for bad in (-1, len(ctx.table), "3", True, 1.0, None):
        with pytest.raises(InputError):
            ctx.induced_aut(bad)


def test_induced_aut_homomorphism(context):
    ctx = context("B2")
    rng = random.Random(5)
    elements = ctx.table.elements
    for _ in range(40):
        u = elements[rng.randrange(len(elements))]
        v = elements[rng.randrange(len(elements))]
        lhs = ctx.induced_aut(u * v)
        rhs = ctx.induced_aut(u).compose(ctx.induced_aut(v))
        assert lhs == rhs


def test_induced_aut_tracks_conjugation(context):
    # g_w sends the conjugate <A> to <wAw^-1>
    ctx = context("B2")
    table = ctx.table
    for w_idx, w in enumerate(table.elements):
        perm = ctx.induced_aut(w_idx).perm
        for i, pc in enumerate(ctx.conjugates):
            conjugated = frozenset(
                table.element_index(w * table.elements[x] * w.inverse()) for x in pc.elements
            )
            assert ctx.conjugates[perm[i]].elements == conjugated


def test_longest_element_aut_matches_subset_conjugation(context):
    ctx = context("H3")
    sys_ = ctx.system
    for I in connected_subsets(sys_):
        perm = ctx.induced_aut(longest_element(sys_, I)).perm
        for J in connected_subsets(sys_):
            if J <= I:
                expect = conjugate_subset(sys_, I, J)
                assert perm[ctx.base_index[J]] == ctx.base_index[expect]


def test_induced_automorphism_algebra():
    a = InducedAutomorphism((1, 2, 0))
    b = InducedAutomorphism((0, 2, 1))
    assert a.compose(b).perm == tuple(a.perm[p] for p in b.perm)
    assert a.compose(a).compose(a).is_identity()
    assert a != b
    assert a == InducedAutomorphism((1, 2, 0))


# -- the semidirect embedding ---------------------------------------------------


def test_embed_bc_cubed(context):
    ctx = context("A2")
    bc3 = parse_word(ctx.system, "g{s2} g{s1,s2} " * 3)
    h = ctx.embed(bc3)
    assert h.aut_part.is_identity()
    assert h.racg_part == (2, 1, 0, 3)
    assert not h.is_identity()


def test_embed_letters_are_involutions(context):
    for name in ("A2", "B2", "I2(5)"):
        ctx = get_context(name)
        for I in ctx.family:
            letter = CactusWord(ctx.system, [I])
            sq = ctx.embed(letter * letter)
            assert sq.is_identity()


@pytest.mark.parametrize("name", ["A2", "A4", "B3", "H3", "D4"])
def test_letters_are_the_embedded_generators(name):
    ctx = get_context(name)
    assert list(ctx.letters) == list(ctx.family)
    for I, letter in ctx.letters.items():
        assert letter == ctx.embed(CactusWord(ctx.system, [I]))


def test_embed_is_homomorphism(context):
    ctx = context("B2")
    rng = random.Random(31)
    fam = list(ctx.family)
    for _ in range(50):
        u = CactusWord(ctx.system, [fam[rng.randrange(len(fam))] for _ in range(rng.randrange(5))])
        v = CactusWord(ctx.system, [fam[rng.randrange(len(fam))] for _ in range(rng.randrange(5))])
        assert ctx.embed(u * v) == semidirect_mul(ctx.embed(u), ctx.embed(v))


def test_embed_defining_relations(context):
    for name in ("A2", "B2", "I2(5)"):
        ctx = get_context(name)
        sys_ = ctx.system
        fam = list(ctx.family)
        for I in fam:
            for J in fam:
                if I < J:
                    lhs = CactusWord(sys_, [I, J])
                    rhs = CactusWord(sys_, [J, conjugate_subset(sys_, J, I)])
                    assert ctx.cactus_equal(lhs, rhs)
                if commuting_subsets(sys_, I, J) and I != J:
                    assert ctx.cactus_equal(
                        CactusWord(sys_, [I, J]), CactusWord(sys_, [J, I])
                    )


def test_cactus_equal_basics(context):
    ctx = context("A2")
    sys_ = ctx.system
    bc3 = parse_word(sys_, "g{s2} g{s1,s2} " * 3)
    assert not ctx.cactus_equal(bc3, CactusWord(sys_))
    gg = parse_word(sys_, "g{s1} g{s1}")
    assert ctx.cactus_equal(gg, CactusWord(sys_))


def test_semidirect_mul_context_check(context):
    a2 = context("A2")
    b2 = context("B2")
    with pytest.raises(InputError):
        semidirect_mul(a2.identity(), b2.identity())


def test_embeddings_over_equal_matrices_and_other_labels_are_unequal(context, system):
    # A2 and I2(3) have one Coxeter matrix, so one root numbering: the same
    # word reads as the same racg and aut parts in both
    a2, i23 = context("A2"), context("I2(3)")
    u = a2.embed(parse_word(a2.system, "g{s1} g{s1,s2}"))
    v = i23.embed(parse_word(i23.system, "g{a} g{a,b}"))
    assert (u.racg_part, u.aut_part) == (v.racg_part, v.aut_part)
    assert u != v
    # another context over an equal system and family gives an equal element
    fresh = RacgContext(system("A2"))
    assert u == fresh.embed(parse_word(fresh.system, "g{s1} g{s1,s2}"))


def test_conjugates_over_equal_matrices_and_other_labels_are_unequal(context, system):
    a2, i23 = context("A2"), context("I2(3)")
    assert a2.conjugates[0].roots == i23.conjugates[0].roots
    assert a2.conjugates[0] != i23.conjugates[0]
    assert a2.conjugates == RacgContext(system("A2")).conjugates


def test_embeddings_over_other_families_are_unequal(system):
    sys_ = system("A1*A1")
    a = RacgContext(sys_, family=[frozenset({0})])
    b = RacgContext(sys_, family=[frozenset({1})])
    ga = a.embed(parse_word(sys_, "g{a}"))
    gb = b.embed(parse_word(sys_, "g{b}"))
    assert (ga.racg_part, ga.aut_part) == (gb.racg_part, gb.aut_part)
    assert ga != gb
    assert ga == RacgContext(sys_, family=[frozenset({0})]).letters[frozenset({0})]


def test_semidirect_element_normalizes_its_racg_part(context):
    ctx = context("A2")
    e = ctx.identity().aut_part
    a, b = racg.SemidirectElement(ctx, (3, 0), e), racg.SemidirectElement(ctx, [0, 3], e)
    assert ctx.M[0][3] == 2
    assert a == b and hash(a) == hash(b)
    assert a.racg_part == (0, 3)
    assert semidirect_mul(a, ctx.identity()).racg_part == (0, 3)
    assert racg.SemidirectElement(ctx, (1, 1, 2), e).racg_part == (2,)
    with pytest.raises(InputError):
        racg.SemidirectElement(ctx, (0, len(ctx.conjugates)), e)


def test_semidirect_element_checks_its_aut_part(context):
    # anything but a permutation of S's indices is refused before Pi_of
    # reads it out of range
    ctx = context("A2")
    assert len(ctx.conjugates) == 4
    bad = [[0, 1], [0, 0, 1, 2], [0, 1, 2, 4], [0.0, 1, 2, 3], [True, 0, 2, 3]]
    for aut in [InducedAutomorphism(p) for p in bad] + [(0, 1, 2, 3), None]:
        with pytest.raises(InputError, match=r"aut part is not a permutation of range\(4\)"):
            racg.SemidirectElement(ctx, (0,), aut)
    # a permutation of S that does not keep M: it swaps W (which commutes
    # with every letter) and <s1> (which commutes only with W)
    with pytest.raises(InputError, match=r"aut part does not preserve M"):
        racg.SemidirectElement(ctx, (0,), InducedAutomorphism([3, 1, 2, 0]))
    for x in ctx.letters.values():
        el = racg.SemidirectElement(ctx, x.racg_part, x.aut_part)
        assert el == x and Pi_of(ctx, el, 2) == Pi_of(ctx, x, 2)
    for w in range(len(ctx.table)):  # every g_w keeps M
        g = ctx.induced_aut(w)
        assert racg.SemidirectElement(ctx, (), g).aut_part == g


@pytest.mark.parametrize("name", ["B3", "H4"])
def test_queries_leave_the_dense_m_unbuilt(name):
    # every query reads the commuting sets; M itself is built on first read
    ctx = RacgContext(get_system(name))
    fam = list(ctx.family)
    rng = random.Random(len(fam))
    u = CactusWord(ctx.system, [rng.choice(fam) for _ in range(30)])
    v = CactusWord(ctx.system, [rng.choice(fam) for _ in range(30)])
    a, b = ctx.embed(u), ctx.embed(v)
    assert not ctx.cactus_equal(u, v) and ctx.cactus_equal(u * v, u * v)
    ab = semidirect_mul(a, b)
    assert racg.SemidirectElement(ctx, ab.racg_part, ab.aut_part) == ab
    Pi_rep(ctx, 2)
    Pi_of(ctx, u, 2)
    Pi_of(ctx, ab, 2)
    assert "M" not in vars(ctx)
    M = ctx.M
    assert "M" in vars(ctx) and ctx.M is M
    n = len(ctx.conjugates)
    assert all(M[i][j] == (1 if i == j else 2 if j in c else 0)
               for i, c in enumerate(ctx.commuting) for j in range(n))


def test_semidirect_json(context):
    ctx = context("A2")
    h = ctx.embed(parse_word(ctx.system, "g{s1}"))
    data = h.to_json()
    assert data["racg"] == [0]
    assert data["aut"] == list(ctx.induced_aut(longest_element(ctx.system, frozenset({0}))).perm)


def test_sset_json_shape(context):
    ctx = context("A2")
    data = ctx.sset_json()
    assert len(data["S"]) == 4
    assert data["S"][0] == ["e", "s1"]
    assert data["M"] == [list(r) for r in A2_M]


# -- purity ----------------------------------------------------------------------


def words_up_to(sys_, fam, max_len, cap=None):
    out = [CactusWord(sys_)]
    frontier = [CactusWord(sys_)]
    for _ in range(max_len):
        frontier = [w * CactusWord(sys_, [I]) for w in frontier for I in fam]
        out.extend(frontier)
        if cap and len(out) > cap:
            break
    return out


def test_purity_forces_trivial_aut(context):
    # one direction holds in every system, central elements or not
    for name in ("A2", "B2", "I2(3)"):
        ctx = get_context(name)
        for w in words_up_to(ctx.system, list(ctx.family), 3):
            if is_pure(w):
                assert ctx.embed(w).aut_part.is_identity()


def test_purity_consistency_injective_case(context):
    ctx = context("A2")
    for w in words_up_to(ctx.system, list(ctx.family), 3):
        assert purity_consistency(ctx, w)
