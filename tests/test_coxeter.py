import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from gencactus import coxeter
from gencactus.coxeter import (
    CoxeterSystem,
    GroupElement,
    GroupTable,
    conjugate_subset,
    connected_subsets,
    enumerate_group,
    is_finite_parabolic,
    longest_element,
)
from gencactus.errors import CactusError, InfiniteGroupError, InputError
from gencactus.racg import RacgContext
from oracle_linalg import mat_mul, transpose
from gencactus.scalar import CycloReal, cos_pi_over, scalar_sign

import oracle_groups as og


def infinite_dihedral():
    return CoxeterSystem(("a", "b"), ((1, 0), (0, 1)))


def affine_triangle():
    return CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 3), (3, 3, 1)))


# -- construction -----------------------------------------------------------


def test_named_shapes(system):
    a2 = system("A2")
    assert a2.labels == ("s1", "s2")
    assert a2.matrix == ((1, 3), (3, 1))
    b3 = system("B3")
    assert b3.matrix == ((1, 3, 2), (3, 1, 4), (2, 4, 1))
    i7 = system("I2(7)")
    assert i7.labels == ("a", "b")
    assert i7.m(0, 1) == 7
    f4 = system("F4")
    assert f4.matrix == ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
    h3 = system("H3")
    assert h3.matrix == ((1, 5, 2), (5, 1, 3), (2, 3, 1))
    prod = system("A1*A1")
    assert prod.labels == ("a", "b")
    assert prod.m(0, 1) == 2


def test_d_family_shapes():
    d4 = CoxeterSystem.from_name("D4")
    # chain s1-s2-s3 with s4 forked off s2
    assert d4.m(0, 1) == 3 and d4.m(1, 2) == 3 and d4.m(1, 3) == 3
    assert d4.m(0, 2) == 2 and d4.m(0, 3) == 2 and d4.m(2, 3) == 2
    d2 = CoxeterSystem.from_name("D2")
    assert d2.m(0, 1) == 2
    d3 = CoxeterSystem.from_name("D3")
    assert len(enumerate_group(d3)) == 24  # D3 = A3


def test_e6_shape():
    e6 = CoxeterSystem.from_name("E6")
    degrees = sorted(sum(1 for j in range(6) if i != j and e6.m(i, j) == 3) for i in range(6))
    assert degrees == [1, 1, 1, 2, 2, 3]


def test_bad_names():
    for name in ("Z3", "A0", "I2(1)", "H5", "F3", ""):
        with pytest.raises(InputError):
            CoxeterSystem.from_name(name)


def test_json_roundtrip(system):
    b3 = system("B3")
    again = CoxeterSystem.from_json(b3.to_json())
    assert again == b3
    assert again.labels == b3.labels


def test_subset_parse_format(system):
    a3 = system("A3")
    assert a3.parse_subset("{s1,s3}") == frozenset({0, 2})
    assert a3.parse_subset("s2") == frozenset({1})
    assert a3.format_subset({0, 2}) == "{s1,s3}"
    assert a3.format_subset({1}) == "{s2}"
    with pytest.raises(InputError):
        a3.parse_subset("{s1,s9}")


def test_conductor(system):
    assert system("A3").conductor is None
    assert system("B2").conductor == 8
    assert system("I2(5)").conductor == 10
    assert system("H3").conductor == 10
    assert system("I2(6)").conductor == 12


# -- group enumeration against independent models ---------------------------


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(3)", "I2(4)", "I2(5)", "I2(7)"])
def test_order_matches_model(system, name):
    gens, mul, ident = og.model_for(name)
    dist = og.closure(gens, mul, ident)
    elements = enumerate_group(system(name))
    assert len(elements) == len(dist)


@pytest.mark.parametrize("name", ["H3", "A1*A1", "D4"])
def test_order_known(system, name):
    assert len(enumerate_group(system(name))) == og.KNOWN_ORDERS[name]


@pytest.mark.parametrize("name", ["A3", "B2", "I2(5)"])
def test_lengths_match_model(system, name):
    gens, mul, ident = og.model_for(name)
    dist = og.closure(gens, mul, ident)
    for el in enumerate_group(system(name)):
        image = og.word_image(gens, mul, ident, el.word)
        assert dist[image] == len(el.word)


def test_a3_length_is_inversion_count(system):
    gens, mul, ident = og.model_for("A3")
    for el in enumerate_group(system("A3")):
        image = og.word_image(gens, mul, ident, el.word)
        assert og.inversions(image) == len(el.word)


def test_enumerate_max_length_semantics(system):
    a2 = system("A2")
    # the group closes exactly at word length 3
    assert len(enumerate_group(a2, max_length=3)) == 6
    with pytest.raises(InfiniteGroupError):
        enumerate_group(a2, max_length=2)
    with pytest.raises(InfiniteGroupError):
        enumerate_group(infinite_dihedral(), max_length=10)



def group_order(sys_):
    comps = coxeter._diagram_components(sys_, frozenset(range(sys_.rank)))
    return math.prod(coxeter._finite_component(sys_, comp) for comp in comps)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3", "I2(5)", "I2(12)", "A1*A1"],
)
def test_group_order_is_the_enumerated_size(system, name):
    sys_ = system(name)
    assert group_order(sys_) == len(enumerate_group(sys_))


@pytest.mark.parametrize(
    "name, order",
    [("E6", 51_840), ("E7", 2_903_040), ("E8", 696_729_600), ("H4", 14_400),
     ("B8", 2**8 * math.factorial(8)), ("D8", 2**7 * math.factorial(8)),
     ("E6*A1", 103_680)],
)
def test_group_order_matches_the_formula(name, order):
    assert group_order(CoxeterSystem.from_name(name)) == order


def test_group_order_is_zero_when_infinite():
    assert group_order(infinite_dihedral()) == group_order(affine_triangle()) == 0


@pytest.mark.parametrize("name", ["E6*A1", "A8", "E7", "E8"])
def test_oversized_group_is_refused_before_enumeration(name):
    sys_ = CoxeterSystem.from_name(name)
    says = rf"group too large: \|W\| = {group_order(sys_)} exceeds the limit of 100000"
    for build in (enumerate_group, CoxeterSystem.group_table, RacgContext):
        with pytest.raises(CactusError, match=says) as err:
            build(sys_)
        assert type(err.value) is CactusError
    # the radius is checked before the size
    with pytest.raises(InfiniteGroupError, match="not exhausted within length 3"):
        enumerate_group(sys_, max_length=3)


def test_e6_is_enumerated(system):
    assert len(enumerate_group(system("E6"))) == 51_840


def test_oversized_bounded_walk_is_refused():
    # a radius past the length of w0 (120) would list all of E8: refused up front
    start = time.perf_counter()
    says = r"group too large: \|W\| = 696729600 exceeds the limit of 100000"
    with pytest.raises(CactusError, match=says) as err:
        enumerate_group(CoxeterSystem.from_name("E8"), max_length=200)
    assert type(err.value) is CactusError
    assert time.perf_counter() - start < 30


def test_bounded_walk_is_refused_just_past_the_limit(monkeypatch):
    monkeypatch.setattr(coxeter, "_MAX_ORDER", 384)
    b4 = CoxeterSystem.from_name("B4")
    assert len(enumerate_group(b4)) == len(enumerate_group(b4, max_length=16)) == 384
    # the table is cached per system: a fresh B4 meets the lowered limit
    monkeypatch.setattr(coxeter, "_MAX_ORDER", 383)
    with pytest.raises(CactusError, match=r"\|W\| = 384 exceeds the limit of 383"):
        enumerate_group(CoxeterSystem.from_name("B4"), max_length=16)


@pytest.mark.parametrize("name", ["A2", "A4", "B3", "H3", "D4", "B4", "F4", "H4", "E6"])
def test_bounded_walk_at_the_longest_length_lists_the_group(name):
    # the radius of W read off the walk itself: the length of its last level
    table = GroupTable(CoxeterSystem.from_name(name))
    radius = table.elements[-1].length
    assert len(enumerate_group(CoxeterSystem.from_name(name), max_length=radius)) == len(table)
    with pytest.raises(InfiniteGroupError):
        enumerate_group(CoxeterSystem.from_name(name), max_length=radius - 1)


def hyperbolic_triangle():
    return CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 7), (3, 7, 1)))


@pytest.mark.parametrize(
    "build, radius",
    [(infinite_dihedral, 10), (affine_triangle, 50), (affine_triangle, 400),
     (hyperbolic_triangle, 10)],
)
def test_bounded_walk_of_an_infinite_group_is_refused_before_any_product(
    build, radius, monkeypatch
):
    calls = []
    right_mul = coxeter.RootTable.right_mul

    def counted(self, key, s):
        calls.append(s)
        return right_mul(self, key, s)

    monkeypatch.setattr(coxeter.RootTable, "right_mul", counted)
    with pytest.raises(InfiniteGroupError, match=f"group not exhausted within length {radius}$"):
        enumerate_group(build(), max_length=radius)
    assert calls == []


@pytest.mark.parametrize("name", ["A2", "A4", "B3", "H3", "D4", "B4", "F4", "H4", "E6"])
def test_group_table_makes_one_product_per_ascent(name, monkeypatch):
    sys_ = CoxeterSystem.from_name(name)
    roots = sys_.root_table()
    calls = []
    right_mul = type(roots).right_mul

    def counted(self, key, s):
        calls.append(s)
        return right_mul(self, key, s)

    monkeypatch.setattr(type(roots), "right_mul", counted)
    elements = enumerate_group(sys_)
    walk = len(calls)
    table = GroupTable(sys_)
    own = len(calls) - 2 * walk  # the table's walk is enumerate_group's
    monkeypatch.undo()
    n = sys_.rank
    assert own == 0
    # against one product per (element, generator) pair, as the table was built
    index = {el.key: i for i, el in enumerate(elements)}
    assert table.index == index
    assert table.gen_right == [
        [index[roots.right_mul(el.key, s)] for el in elements] for s in range(n)
    ]
    # s w read off its word, on a sample
    for i in random.Random(name).sample(range(len(elements)), min(300, len(elements))):
        word = elements[i].word
        for s in range(n):
            assert table.gen_left[s][i] == index[GroupElement.from_word(sys_, (s,) + word).key]


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "H4"])
def test_gen_left_from_the_walk_matches_the_root_row_construction(name):
    sys_ = CoxeterSystem.from_name(name)
    table = GroupTable(sys_)
    roots = sys_.root_table()
    rows = [[roots.reflect(s, r) for r in range(len(roots.vectors))] for s in range(sys_.rank)]
    keys = [el.key for el in table.elements]
    assert table.gen_left == og.left_by_simple_rows(keys, table.index, rows)


# -- elements ---------------------------------------------------------------


def test_braid_relation_identification(system):
    a2 = system("A2")
    lhs = GroupElement.from_word(a2, (0, 1, 0))
    rhs = GroupElement.from_word(a2, (1, 0, 1))
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert len(lhs.word) == 3


def test_element_inverse_and_identity(system):
    b2 = system("B2")
    w = GroupElement.from_word(b2, (0, 1, 0))
    assert (w * w.inverse()).is_identity()
    assert GroupElement.identity(b2).length == 0
    assert GroupElement.from_word(b2, (0, 0)).is_identity()


def test_word_is_reduced_after_from_word(system):
    a3 = system("A3")
    w = GroupElement.from_word(a3, (0, 0, 1, 2, 2, 1, 0))
    assert w.word == (0,)


# -- forms and reflections --------------------------------------------------


@pytest.mark.parametrize("name", ["A2", "B2", "I2(5)", "H3", "A1*A1"])
@pytest.mark.parametrize("t", [1, 2])
def test_reflections_preserve_form(system, name, t):
    sys_ = system(name)
    g = sys_.gram_matrix(t)
    for s in range(sys_.rank):
        m = sys_.reflection_matrix(s, t)
        assert mat_mul(transpose(m), mat_mul(g, m)) == g
        m2 = mat_mul(m, m)
        assert all(
            m2[i][j] == (1 if i == j else 0)
            for i in range(sys_.rank)
            for j in range(sys_.rank)
        )


def test_gram_entries(system):
    a2 = system("A2")
    assert a2.bilinear_entry(0, 1, 1) == Fraction(-1, 2)
    b2 = system("B2")
    v = b2.bilinear_entry(0, 1, 1)
    assert isinstance(v, CycloReal)
    assert v == -cos_pi_over(4, 8)
    inf = infinite_dihedral()
    assert inf.bilinear_entry(0, 1, Fraction(7, 3)) == Fraction(-7, 3)
    # finite bonds ignore t
    assert a2.bilinear_entry(0, 1, 5) == Fraction(-1, 2)


# -- finiteness and the connected family ------------------------------------


def sympy_gram(sys_, subset):
    idx = sorted(subset)
    rows = []
    for i in idx:
        row = []
        for j in idx:
            m = sys_.m(i, j)
            if m == 0:
                row.append(-sympy.Integer(1))
            else:
                row.append(-sympy.cos(sympy.pi / m))
        rows.append(row)
    return sympy.Matrix(rows)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: CoxeterSystem.from_name("A3"),
        lambda: CoxeterSystem.from_name("B3"),
        lambda: CoxeterSystem.from_name("H3"),
        lambda: CoxeterSystem.from_name("I2(6)"),
        affine_triangle,
        infinite_dihedral,
    ],
)
def test_finiteness_matches_positive_definiteness(builder):
    sys_ = builder()
    for subset in og.all_subsets(sys_.rank):
        expect = bool(sympy_gram(sys_, subset).is_positive_definite)
        assert is_finite_parabolic(sys_, subset) == expect


LABELS = (2, 3, 4, 5, 6, 0)


def matrix_system(rank, entries):
    """System on s1..s<rank> with the upper-triangle entries in row order."""
    mat = [[1] * rank for _ in range(rank)]
    for (i, j), m in zip(itertools.combinations(range(rank), 2), entries):
        mat[i][j] = mat[j][i] = m
    return CoxeterSystem([f"s{i + 1}" for i in range(rank)], mat)


def diagram(rank, bonds):
    """System on s1..s<rank> whose bonds are given as {(i, j): m}."""
    pairs = itertools.combinations(range(rank), 2)
    entries = [bonds.get((i, j), bonds.get((j, i), 2)) for i, j in pairs]
    return matrix_system(rank, entries)


def path(*bonds):
    return diagram(len(bonds) + 1, {(i, i + 1): m for i, m in enumerate(bonds)})


def star(*arms):
    """Node 0 with simply laced arms of the given lengths hanging off it."""
    bonds, node = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds[(prev, node)] = 3
            prev, node = node, node + 1
    return diagram(node, bonds)


def assert_classification_matches_oracle(sys_, subsets):
    gram = sys_.gram_matrix(1)
    for subset in subsets:
        expect = og.sylvester_finite(sys_.matrix, gram, subset, scalar_sign)
        assert is_finite_parabolic(sys_, subset) == expect, (sys_.matrix, sorted(subset))


def test_classification_every_small_matrix():
    # every proper subset of a rank-3 matrix is itself a smaller matrix here
    for rank in (1, 2, 3):
        for entries in itertools.product(LABELS, repeat=rank * (rank - 1) // 2):
            sys_ = matrix_system(rank, entries)
            assert_classification_matches_oracle(sys_, [range(rank)])


def test_classification_random_rank_four():
    # uniform labels are almost never finite in rank 4; every other matrix
    # leans towards 2 and 3 so that both answers occur often
    rng = random.Random(404)
    finite = 0
    for k in range(400):
        labels = LABELS if k % 2 else (2, 2, 2, 3, 3, 4, 5)
        sys_ = matrix_system(4, [rng.choice(labels) for _ in range(6)])
        assert_classification_matches_oracle(sys_, [range(4)])
        finite += is_finite_parabolic(sys_, range(4))
    assert 40 <= finite <= 360


NAMED = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(2, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in (2, 3, 5, 6, 8, 12)]
    + ["A1*A1", "B3*H4", "H3*F4", "D4*I2(5)*A1", "E6*A2", "H4*H4", "I2(7)*B3*A2"]
)


@pytest.mark.parametrize("name", NAMED)
def test_classification_named_systems(name):
    sys_ = CoxeterSystem.from_name(name)
    assert is_finite_parabolic(sys_, range(sys_.rank))
    assert_classification_matches_oracle(sys_, [range(sys_.rank)])


INFINITE = {
    "A~2": lambda: diagram(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),
    "A~5": lambda: diagram(6, {(i, (i + 1) % 6): 3 for i in range(6)}),
    "B~3": lambda: diagram(4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    "B~5": lambda: diagram(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 4}),
    "C~2": lambda: path(4, 4),
    "C~4": lambda: path(4, 3, 3, 4),
    "D~4": lambda: star(1, 1, 1, 1),
    "D~6": lambda: diagram(7, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (4, 6): 3}),
    "E~6": lambda: star(2, 2, 2),
    "E~7": lambda: star(1, 3, 3),
    "E~8": lambda: star(1, 2, 5),
    "F~4": lambda: path(3, 3, 4, 3),
    "G~2": lambda: path(3, 6),
    "[5,3,3,3]": lambda: path(5, 3, 3, 3),
    "[4,3,5]": lambda: path(4, 3, 5),
    "[3,5,3]": lambda: path(3, 5, 3),
}


@pytest.mark.parametrize("name", sorted(INFINITE))
def test_classification_affine_and_hyperbolic(name):
    sys_ = INFINITE[name]()
    rank = sys_.rank
    assert not is_finite_parabolic(sys_, range(rank))
    # every proper subset of an affine or compact hyperbolic diagram is finite
    assert all(is_finite_parabolic(sys_, I) for I in og.all_subsets(rank) if len(I) < rank)
    assert_classification_matches_oracle(sys_, og.all_subsets(rank))


def diagram_connected(sys_, subset):
    subset = set(subset)
    if not subset:
        return False
    seen = {min(subset)}
    frontier = [min(subset)]
    while frontier:
        i = frontier.pop()
        for j in subset - seen:
            if sys_.m(i, j) != 2:
                seen.add(j)
                frontier.append(j)
    return seen == subset


def fset_by_definition(sys_):
    # every subset in turn, by size then lexicographically: F(S)'s own order
    return tuple(
        I
        for I in og.all_subsets(sys_.rank)
        if diagram_connected(sys_, I) and is_finite_parabolic(sys_, I)
    )


@pytest.mark.parametrize(
    "name",
    ["A3", "B3", "H3", "A1*A1", "I2(7)", "D4", "F4", "H4", "E6", "E7", "E8", "I2(5)*A3",
     "A4*A4"],
)
def test_connected_subsets_against_definition(system, name):
    sys_ = system(name)
    assert connected_subsets(sys_) == fset_by_definition(sys_)


def test_connected_subsets_against_definition_on_random_matrices():
    # every other matrix leans towards 2 and 3, so that F(S) is not only the
    # singletons and its infinite subsets sit at every level
    rng = random.Random(2027)
    infinite_bonds = 0
    for k in range(60):
        rank = rng.randint(2, 9)
        labels = LABELS if k % 2 else (2, 2, 2, 2, 3, 3, 4, 5, 6, 0)
        sys_ = matrix_system(rank, [rng.choice(labels) for _ in range(rank * (rank - 1) // 2)])
        infinite_bonds += any(0 in row for row in sys_.matrix)
        assert connected_subsets(sys_) == fset_by_definition(sys_), sys_.matrix
    assert infinite_bonds >= 30


def test_connected_subsets_check_each_extension_once(monkeypatch):
    # a cold A16 F(S): each member is extended by at most rank neighbours,
    # where a scan of every subset walks the diagram 2^16 times
    sys_ = CoxeterSystem.from_name("A16")
    calls = []
    for name in ("_finite_component", "_diagram_components"):
        def counted(system, subset, step=getattr(coxeter, name)):
            calls.append(subset)
            return step(system, subset)

        monkeypatch.setattr(coxeter, name, counted)
    fset = connected_subsets(sys_)
    monkeypatch.undo()
    assert len(fset) == 16 * 17 // 2
    assert len(calls) <= sys_.rank * len(fset), len(calls)


def test_finiteness_is_not_cached():
    # F(S) asks each subset once, and w_I is cached under its own key
    sys_ = CoxeterSystem.from_name("B4")
    for I in og.all_subsets(sys_.rank):
        is_finite_parabolic(sys_, I)
    connected_subsets(sys_)
    longest_element(sys_, range(4))
    kinds = {key if isinstance(key, str) else key[0] for key in sys_._cache}
    assert kinds == {"roots", "fset", "longest"}


def test_connected_excludes_infinite_edge():
    inf = infinite_dihedral()
    assert connected_subsets(inf) == (frozenset({0}), frozenset({1}))
    aff = affine_triangle()
    assert frozenset({0, 1, 2}) not in connected_subsets(aff)
    assert frozenset({0, 1}) in connected_subsets(aff)


def test_connected_subsets_is_one_shared_tuple():
    # F(S) is cached on the system; callers must not be able to change it
    sys_ = CoxeterSystem.from_name("B3")
    first = connected_subsets(sys_)
    assert isinstance(first, tuple)
    assert connected_subsets(sys_) is first
    with pytest.raises(AttributeError):
        first.append(frozenset({0, 2}))


# -- longest elements and subset conjugation ---------------------------------


def test_longest_element_a2(system):
    w0 = longest_element(system("A2"), frozenset({0, 1}))
    assert w0.word == (0, 1, 0)
    assert (w0 * w0).is_identity()


@pytest.mark.parametrize("name,length", [("A3", 6), ("B2", 4), ("H3", 15), ("I2(7)", 7)])
def test_longest_element_length(system, name, length):
    sys_ = system(name)
    w0 = longest_element(sys_, frozenset(range(sys_.rank)))
    assert len(w0.word) == length
    assert (w0 * w0).is_identity()


def test_longest_element_maximality(system):
    # no element of the model is longer
    gens, mul, ident = og.model_for("B3")
    dist = og.closure(gens, mul, ident)
    sys_ = system("B3")
    w0 = longest_element(sys_, frozenset(range(3)))
    assert len(w0.word) == max(dist.values())


@pytest.mark.parametrize("name", ["A2", "A4", "B3", "H3", "D4", "B4", "F4", "H4", "E6"])
def test_longest_word_is_the_table_word(system, name):
    # both are the lexicographically least reduced word of w_I: the greedy
    # ascent appends the least non-descent, the BFS reaches w_I first along it
    sys_ = system(name)
    table = sys_.group_table()
    for r in range(sys_.rank + 1):
        for I in itertools.combinations(range(sys_.rank), r):
            w = longest_element(sys_, I)
            assert w.word == table.elements[table.element_index(w)].word


def test_longest_infinite_raises():
    with pytest.raises(InfiniteGroupError):
        longest_element(infinite_dihedral(), frozenset({0, 1}))


def test_conjugate_subset(system):
    a3 = system("A3")
    full = frozenset(range(3))
    assert conjugate_subset(a3, full, frozenset({0})) == frozenset({2})
    assert conjugate_subset(a3, full, frozenset({0, 1})) == frozenset({1, 2})
    b2 = system("B2")
    # w0 of B2 is central, conjugation fixes everything
    assert conjugate_subset(b2, frozenset({0, 1}), frozenset({0})) == frozenset({0})
    with pytest.raises(InputError):
        conjugate_subset(a3, frozenset({0}), frozenset({1}))


@pytest.mark.parametrize("name", ["H3", "B3"])
def test_presentation_letters_are_the_family_own_objects(system, name):
    # each nested w_J(I) is the very frozenset F(S) holds, so a rep keyed by
    # F(S) and the family check find it by identity
    sys_ = system(name)
    fset = connected_subsets(sys_)
    nested = [J2 for _, _, J2 in coxeter.presentation(sys_).relations if J2 is not None]
    assert nested and all(any(J2 is I for I in fset) for J2 in nested)


def test_presentation_names_a_key_that_is_not_a_set_of_generators(system):
    sys_ = system("I2(5)")
    with pytest.raises(InputError, match="not a set of generator indices.*: 0"):
        coxeter.presentation(sys_, [0, 1])
    with pytest.raises(InputError, match=r"frozenset\(\{7\}\)"):
        coxeter.presentation(sys_, [frozenset({0}), frozenset({7})])


ENTRY_POINTS = {
    "is_finite_parabolic": lambda sys_, i: is_finite_parabolic(sys_, [0, i]),
    "longest_element": lambda sys_, i: longest_element(sys_, [i]),
    "conjugate_subset": lambda sys_, i: conjugate_subset(sys_, [i], [i]),
    "from_word": lambda sys_, i: GroupElement.from_word(sys_, [0, i]),
    "subgroup": lambda sys_, i: sys_.group_table().subgroup([0, i]),
    "format_subset": lambda sys_, i: sys_.format_subset([0, i]),
}


@pytest.mark.parametrize("bad", [-1, 3, 7, True, 1.0, "s1"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_generator_indices_are_checked(system, entry, bad):
    # unchecked, a negative index wraps around to the last generator, and
    # one past the rank raises a bare IndexError or passes as finite
    with pytest.raises(InputError, match="not a generator index"):
        ENTRY_POINTS[entry](system("A3"), bad)


def test_conjugate_subset_involution(system):
    h3 = system("H3")
    full = frozenset(range(3))
    for I in connected_subsets(h3):
        J = conjugate_subset(h3, full, I)
        assert conjugate_subset(h3, full, J) == I


# -- the multiplication table ------------------------------------------------


def test_group_table_consistency(system):
    sys_ = system("A3")
    table = sys_.group_table()
    rng = random.Random(17)
    n = len(table)
    for _ in range(60):
        i, j = rng.randrange(n), rng.randrange(n)
        prod = table.elements[table.product(i, j)]
        assert prod == table.elements[i] * table.elements[j]
    identity = table.element_index(GroupElement.identity(sys_))
    for i in range(n):
        inverse = table.element_index(table.elements[i].inverse())
        assert table.product(i, inverse) == identity


def test_element_index_refuses_elements_of_another_system(system):
    # A3's s1 has the key (3, 4, 2), which is also B3's s1: the key alone
    # would answer for an element of the wrong group
    a3, b3 = system("A3"), system("B3")
    table = b3.group_table()
    for el in a3.group_table().elements:
        with pytest.raises(InputError):
            table.element_index(el)
    with pytest.raises(InputError):
        RacgContext(b3).induced_aut(GroupElement.simple(a3, 0))
    # an equal system built apart is the same group
    a2, other = CoxeterSystem.from_name("A2"), CoxeterSystem.from_name("A2")
    assert a2 is not other
    for i, el in enumerate(other.group_table().elements):
        assert a2.group_table().element_index(el) == i


def test_group_table_conjugation(system):
    sys_ = system("B2")
    table = sys_.group_table()
    for s in range(sys_.rank):
        gen = table.elements[table.simple_index[s]]
        for x, el in enumerate(table.elements):
            expect = table.element_index(gen * el * gen.inverse())
            assert table.conjugate_by_gen(s, x) == expect


def test_group_table_subgroup(system):
    sys_ = system("A3")
    table = sys_.group_table()
    sub = table.subgroup([0, 1])
    assert len(sub) == 6
    # brute force: exactly the elements whose reduced words avoid s3
    expect = frozenset(
        i for i, el in enumerate(table.elements) if set(el.word) <= {0, 1}
    )
    assert sub == expect
    assert len(table.subgroup([])) == 1
