"""The root-id kernel for W against the matrix kernel and the sign-certified
root table in oracle_groups.

Both kernels take the generators in index order and extract the smallest
right descent first, so words and orders must agree exactly, not only up to
equality in W.  The root table must give the same ids as the oracle, which
reflects every root in every root exactly and certifies every sign.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from gencactus.cactus import CactusWord, evaluate_to_coxeter
from gencactus.coxeter import (
    CoxeterSystem,
    GroupElement,
    conjugate_subset,
    connected_subsets,
    enumerate_group,
    longest_element,
)
from gencactus.scalar import CycloReal, cos_pi_over, scalar_sign

import oracle_groups as og
from test_coxeter import affine_triangle, infinite_dihedral


def generators(sys_):
    return [sys_.reflection_matrix(s) for s in range(sys_.rank)]


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "B3", "B4", "D4", "H3", "I2(5)", "I2(8)", "A1*A1"]
)
def test_enumeration_matches_matrix_bfs(system, name):
    sys_ = system(name)
    assert [el.word for el in enumerate_group(sys_)] == og.matrix_bfs_words(generators(sys_))


def test_f4_elements_match_matrix_kernel(system):
    f4 = system("F4")
    gens = generators(f4)
    rng = random.Random(4)
    for _ in range(12):
        u = [rng.randrange(4) for _ in range(rng.randrange(25))]
        v = [rng.randrange(4) for _ in range(rng.randrange(25))]
        x, y = GroupElement.from_word(f4, u), GroupElement.from_word(f4, v)
        assert x.word == og.matrix_reduced_word(gens, og.matrix_of_word(gens, u), scalar_sign)
        prod = og.mat_mul(og.matrix_of_word(gens, u), og.matrix_of_word(gens, v))
        assert (x * y).word == og.matrix_reduced_word(gens, prod, scalar_sign)
    for J in connected_subsets(f4):
        assert longest_element(f4, J).word == og.matrix_longest(gens, J, scalar_sign)[0]
        for I in connected_subsets(f4):
            if I <= J:
                expect = og.matrix_conjugate_subset(gens, J, I, scalar_sign)
                assert conjugate_subset(f4, J, I) == expect


@pytest.mark.parametrize("builder", [affine_triangle, infinite_dihedral])
def test_evaluation_on_infinite_groups_matches_matrix_kernel(builder):
    sys_ = builder()
    gens = generators(sys_)
    fset = connected_subsets(sys_)
    longest = {I: og.matrix_longest(gens, I, scalar_sign)[1] for I in fset}
    rng = random.Random(sys_.rank)
    for _ in range(15):
        letters = [rng.choice(fset) for _ in range(rng.randrange(20))]
        mat = og.matrix_of_word(gens, ())
        for I in letters:
            mat = og.mat_mul(mat, longest[I])
        word = evaluate_to_coxeter(CactusWord(sys_, letters)).word
        assert word == og.matrix_reduced_word(gens, mat, scalar_sign)


@pytest.mark.parametrize(
    "builder", [lambda: CoxeterSystem.from_name("B3"), affine_triangle]
)
def test_elements_of_equal_systems_compare_equal(builder):
    first, second = builder(), builder()
    assert first is not second and first == second
    rng = random.Random(7)
    # meet other roots first in the second system, so that ids numbered in
    # order of discovery would differ between the two
    for _ in range(5):
        GroupElement.from_word(second, [rng.randrange(3) for _ in range(12)])
    x = GroupElement.from_word(first, (0, 1, 0, 2))
    y = GroupElement.from_word(second, (1, 0, 1, 2))
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


def components(sys_):
    """The connected components of the diagram: bonds other than 2 join."""
    left, comps = set(range(sys_.rank)), []
    while left:
        comp = [left.pop()]
        for v in comp:
            joined = {u for u in left if sys_.m(u, v) != 2}
            left -= joined
            comp += joined
        comps.append(comp)
    return comps


def oracle_roots(sys_):
    # B at t = 1, each -cos(pi/m) at its own conductor 2m, and finiteness by
    # Sylvester on each component: no scalar meets another component's, so
    # no product of conductors is ever formed
    gram = [[-cos_pi_over(m) if m else Fraction(-1) for m in row] for row in sys_.matrix]
    finite = all(og.sylvester_finite(sys_.matrix, gram, comp, scalar_sign)
                 for comp in components(sys_))
    return og.RootTable(gram, finite, scalar_sign), gram


def exact_vectors(sys_, roots):
    """roots.vectors with each int coordinate read as the scalar it stands
    for: a Fraction, or in a component with a bond of 4 or more the
    coefficients of x**k as a CycloReal at the component's own conductor,
    2 lcm of those bonds."""
    conductor = {}
    for comp in components(sys_):
        bonds = [sys_.m(i, j) for i in comp for j in comp if sys_.m(i, j) >= 4]
        conductor.update(dict.fromkeys(comp, 2 * lcm(*bonds) if bonds else None))
    return [tuple(Fraction(x) if conductor[k] is None else CycloReal(conductor[k], x)
                  for k, x in enumerate(v)) for v in roots.vectors]


def assert_same_roots(sys_, roots, oracle):
    # equal exact vectors in the same order, and each id interned once
    assert exact_vectors(sys_, roots) == oracle.vectors and roots.negative == oracle.negative
    assert [roots._ids[v] for v in roots.vectors] == list(range(len(roots.vectors)))


@pytest.mark.parametrize(
    "name",
    ["A2", "A3", "A4", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)", "I2(8)", "I2(60)",
     "B3*H3", "I2(7)*I2(9)*I2(11)"],
)
def test_finite_root_table_matches_certified_oracle(name):
    sys_ = CoxeterSystem.from_name(name)
    table = sys_.group_table()
    roots, (oracle, _) = sys_.root_table(), oracle_roots(sys_)
    keys, right, left = og.root_group_tables(oracle)
    assert [el.key for el in table.elements] == keys
    assert table.gen_right == right and table.gen_left == left
    # the oracle reflected every root in every root; the table still holds Phi
    assert_same_roots(sys_, roots, oracle)


@pytest.mark.parametrize(
    "name", ["A4", "B4", "D4", "F4", "H3", "H4", "E6", "I2(7)", "A2*A2", "B3*H3",
             "I2(7)*I2(9)*I2(11)"]
)
def test_finite_rows_are_the_reflections_in_every_root(name):
    # each row, filled from s_beta = s s_gamma s at construction, against
    # rho - 2 B(rho, beta) beta computed exactly by the oracle
    sys_ = CoxeterSystem.from_name(name)
    roots, (oracle, gram) = sys_.root_table(), oracle_roots(sys_)
    vectors = exact_vectors(sys_, roots)
    ids = range(len(vectors))
    for b in ids:
        beta = vectors[b]
        g_beta = [2 * sum(g * y for g, y in zip(row, beta) if g != 0 and y != 0) for row in gram]
        assert len(roots._rows[b]) == len(ids)
        for r in ids:
            c = sum(x * y for x, y in zip(vectors[r], g_beta) if x != 0 and y != 0)
            assert roots._rows[b][r] == oracle.reflect(b, r, c)


def mixed_bonds():
    # an infinite bond and a bond of 4 in one infinite group
    return CoxeterSystem(("a", "b", "c"), ((1, 0, 4), (0, 1, 2), (4, 2, 1)))


def mixed_bonds_by_i2_5():
    # mixed_bonds beside I2(5): two components, with conductors 8 and 10
    m = [[1, 0, 4, 2, 2], [0, 1, 2, 2, 2], [4, 2, 1, 2, 2], [2, 2, 2, 1, 5], [2, 2, 2, 5, 1]]
    return CoxeterSystem(("a", "b", "c", "d", "e"), m)


@pytest.mark.parametrize("builder", [affine_triangle, mixed_bonds, mixed_bonds_by_i2_5])
def test_long_words_on_infinite_groups_match_certified_oracle(builder):
    sys_ = builder()
    roots, (oracle, _) = sys_.root_table(), oracle_roots(sys_)
    rng = random.Random(3000)
    word = [rng.randrange(sys_.rank) for _ in range(3000)]
    key = roots.apply(roots.identity, word)
    assert key == oracle.apply(oracle.identity, word)
    assert_same_roots(sys_, roots, oracle)
    el = GroupElement(sys_, key)
    assert GroupElement.from_word(sys_, el.word) == el


def fold_evaluation(word):
    # the left fold of element products that evaluation made before it
    # mapped root ids through each letter's longest element
    acc = GroupElement.identity(word.system)
    for I in word.letters:
        acc = acc * longest_element(word.system, I)
    return acc


INFINITE = {"affine": affine_triangle, "infinite_dihedral": infinite_dihedral,
            "mixed_bonds": mixed_bonds}


@pytest.mark.parametrize(
    "name", ["A2", "A3", "B3", "H3", "A4", "D4", "B4", "F4", "H4", "I2(60)", "E8", *INFINITE]
)
def test_evaluation_matches_the_product_fold(name):
    sys_ = INFINITE[name]() if name in INFINITE else CoxeterSystem.from_name(name)
    fset = connected_subsets(sys_)
    rng = random.Random(len(fset))
    for L in (0, 1, 2, 30, 300, 3000):
        word = CactusWord(sys_, [rng.choice(fset) for _ in range(L)])
        got, want = evaluate_to_coxeter(word), fold_evaluation(word)
        assert got.key == want.key and got.word == want.word, L
