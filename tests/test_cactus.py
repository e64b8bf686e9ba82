import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencactus.cactus import (
    CactusWord,
    apply_relation,
    commuting_subsets,
    evaluate_to_coxeter,
    format_word,
    is_pure,
    parse_classical_generator,
    parse_word,
    type_a_dictionary,
)
from gencactus.coxeter import GroupElement, connected_subsets, longest_element
from gencactus.errors import InputError, RelationApplicationError
from oracle_former_api import free_reduce


def test_parse_format_roundtrip(system):
    a3 = system("A3")
    text = "g{s1} g{s1,s2} g{s1,s2,s3}"
    w = parse_word(a3, text)
    assert len(w) == 3
    assert w.letters == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
    assert format_word(w) == text
    assert parse_word(a3, "") == CactusWord(a3)


def test_parse_errors(system):
    a3 = system("A3")
    with pytest.raises(InputError):
        parse_word(a3, "h{s1}")
    with pytest.raises(InputError):
        parse_word(a3, "g{s1,s9}")
    with pytest.raises(InputError):
        # disconnected pair is not a generator
        parse_word(a3, "g{s1,s3}")


def test_word_validation(system):
    a3 = system("A3")
    with pytest.raises(InputError):
        CactusWord(a3, [frozenset({0, 2})])
    with pytest.raises(InputError):
        CactusWord(a3, [frozenset()])
    # a fiat alphabet admits letters outside the connected family
    w = CactusWord(a3, [frozenset({0, 2})], alphabet=[frozenset({0, 2})])
    assert len(w) == 1


@pytest.mark.parametrize("letters, alphabet, named", [
    ([0], None, "0"), ([None], None, "None"), ([], [0], "0"),
])
def test_malformed_letter_is_an_input_error_naming_it(system, letters, alphabet, named):
    with pytest.raises(InputError, match=f"not {named}$"):
        CactusWord(system("A2"), letters, alphabet=alphabet)


def test_a_letter_equal_to_an_fset_letter_is_stored_as_fsets_own(system):
    # frozenset({True}) == {1}, but its member prints as no generator index
    a2 = system("A2")
    w = CactusWord(a2, [frozenset({True})])
    assert w.letters[0] is connected_subsets(a2)[1]
    assert repr(w) == "CactusWord('g{s2}')"
    assert format_word(w) == "g{s2}"


def _fresh(letter):
    return frozenset(list(letter))  # frozenset(a frozenset) is that very object


def _held_by(word, family):
    return all(any(l is I for I in family) for l in word)


@pytest.mark.parametrize("name", ["A2", "B3", "H3", "A1*A1"])
def test_every_way_to_make_a_word_stores_fsets_own_letters(system, name):
    sys_ = system(name)
    fset = connected_subsets(sys_)
    built = [
        CactusWord(sys_, [_fresh(I) for I in fset]),
        CactusWord(sys_, [sorted(I) for I in fset]),
        parse_word(sys_, " ".join("g" + sys_.format_subset(I) for I in fset)),
    ]
    for w in built:
        assert w.letters == fset and _held_by(w, fset)
        assert _held_by(w * w, fset) and _held_by(w.inverse(), fset)
    moved = 0
    for I in fset:
        for J in fset:
            try:
                w = apply_relation(CactusWord(sys_, [_fresh(I), _fresh(J)]), 0)
            except RelationApplicationError:
                continue
            assert _held_by(w, fset)
            moved += 1
    assert moved >= len(fset)  # at least each I before itself


def test_a_custom_alphabet_stores_its_own_letters(system):
    # the dihedral n = 2 reading of A1*A1 keeps the disconnected {a, b}
    a1a1 = system("A1*A1")
    family = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    w = CactusWord(a1a1, [_fresh(I) for I in family * 3], alphabet=family)
    assert _held_by(w, family) and _held_by(w * w.inverse(), family)
    # w_J(I) of a relation is the alphabet's own letter too, {a, b} included
    for I, J in [(family[2], family[2]), (family[0], family[2]), (family[0], family[1])]:
        moved = apply_relation(CactusWord(a1a1, [_fresh(I), _fresh(J)], alphabet=family), 0)
        assert moved.letters == (J, I) and _held_by(moved, family)
        assert _held_by(moved * w, family) and _held_by(moved.inverse(), family)
    # a word over another copy of the alphabet is read in the left one's letters
    copy = [_fresh(I) for I in family]
    other = CactusWord(a1a1, [_fresh(I) for I in family], alphabet=copy)
    assert _held_by(other, copy) and _held_by(w * other, family) and _held_by(other * w, copy)
    with pytest.raises(InputError, match="outside the generating family"):
        CactusWord(a1a1, [frozenset({0, 1})])
    with pytest.raises(InputError, match="outside the generating family"):
        CactusWord(a1a1, [family[0]]) * CactusWord(a1a1, [family[2]], alphabet=family)


def test_a_long_word_keeps_one_set_per_distinct_letter(system):
    import tracemalloc

    a2 = system("A2")
    fset, n = connected_subsets(a2), 10**5
    CactusWord(a2, fset)  # builds the letter table outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w = CactusWord(a2, (_fresh(fset[i % len(fset)]) for i in range(n)))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(w) == n and _held_by(w, fset)
    # the tuple of n 8-byte pointers, and no frozenset (216 bytes) per letter
    assert kept < 10 * n, kept


def test_word_algebra(system):
    a2 = system("A2")
    u = parse_word(a2, "g{s1} g{s2}")
    v = parse_word(a2, "g{s1,s2}")
    assert (u * v).letters == u.letters + v.letters
    assert u.inverse().letters == tuple(reversed(u.letters))
    assert u != v
    assert hash(u) != hash(CactusWord(a2))


def test_free_reduce(system):
    a2 = system("A2")
    w = parse_word(a2, "g{s1} g{s1} g{s2} g{s1,s2} g{s1,s2} g{s2}")
    assert free_reduce(w) == CactusWord(a2)
    w2 = parse_word(a2, "g{s1} g{s2} g{s1}")
    assert free_reduce(w2) == w2
    assert free_reduce(free_reduce(w2)) == free_reduce(w2)


def test_commuting_subsets(system):
    a3 = system("A3")
    assert commuting_subsets(a3, frozenset({0}), frozenset({2}))
    assert not commuting_subsets(a3, frozenset({0}), frozenset({1}))
    assert not commuting_subsets(a3, frozenset({0}), frozenset({0, 1}))


def test_apply_relation_nested(system):
    a2 = system("A2")
    w = parse_word(a2, "g{s1} g{s1,s2}")
    out = apply_relation(w, 0)
    assert out == parse_word(a2, "g{s1,s2} g{s2}")
    assert evaluate_to_coxeter(out) == evaluate_to_coxeter(w)


def test_apply_relation_commuting(system):
    a3 = system("A3")
    w = parse_word(a3, "g{s1} g{s3}")
    out = apply_relation(w, 0)
    assert out == parse_word(a3, "g{s3} g{s1}")
    # commuting swaps are involutive
    assert apply_relation(out, 0) == w


def test_apply_relation_errors(system):
    a2 = system("A2")
    w = parse_word(a2, "g{s1} g{s2}")
    with pytest.raises(RelationApplicationError):
        apply_relation(w, 0)
    # a position without a letter pair is the same refusal
    with pytest.raises(RelationApplicationError):
        apply_relation(w, 5)
    with pytest.raises(RelationApplicationError):
        apply_relation(w, -1)


def test_evaluate_single_letters(system):
    b2 = system("B2")
    for I in connected_subsets(b2):
        w = CactusWord(b2, [I])
        assert evaluate_to_coxeter(w) == longest_element(b2, I)


def test_evaluate_maps_each_distinct_letter_once(system, monkeypatch):
    import gencactus.cactus as cactus

    calls = []
    root_map = cactus.longest_root_map

    def counting(sys_, I):
        calls.append(I)
        return root_map(sys_, I)

    monkeypatch.setattr(cactus, "longest_root_map", counting)
    for name in ("A2", "B3", "H3", "D4"):
        sys_ = system(name)
        fam = list(connected_subsets(sys_))
        rng = random.Random(len(fam))
        for L in (0, 1, 40, 300):
            w = CactusWord(sys_, [rng.choice(fam) for _ in range(L)])
            calls.clear()
            got = evaluate_to_coxeter(w)
            assert len(calls) == len(set(calls)) == len(set(w.letters))
            expect = GroupElement.identity(sys_)
            for I in w.letters:
                expect = expect * longest_element(sys_, I)
            assert got == expect


def test_evaluate_is_homomorphism(system):
    a2 = system("A2")
    u = parse_word(a2, "g{s1} g{s1,s2}")
    v = parse_word(a2, "g{s2} g{s1,s2} g{s1}")
    assert evaluate_to_coxeter(u * v) == evaluate_to_coxeter(u) * evaluate_to_coxeter(v)


def test_purity(system):
    a2 = system("A2")
    bc3 = parse_word(a2, "g{s2} g{s1,s2} " * 3)
    assert is_pure(bc3) is True
    assert is_pure(parse_word(a2, "g{s1}")) is False
    assert is_pure(CactusWord(a2)) is True
    # regression: the result is an actual bool, not a bound method
    assert isinstance(is_pure(bc3), bool)


LETTER_POOLS = {}


def letter_strategy(sys_):
    key = id(sys_)
    if key not in LETTER_POOLS:
        LETTER_POOLS[key] = connected_subsets(sys_)
    return st.sampled_from(LETTER_POOLS[key])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_moves_preserve_evaluation(data):
    from conftest import get_system

    sys_ = get_system("B2")
    letters = data.draw(st.lists(letter_strategy(sys_), max_size=6))
    w = CactusWord(sys_, letters)
    target = evaluate_to_coxeter(w)
    assert evaluate_to_coxeter(free_reduce(w)) == target
    for pos in range(max(len(w) - 1, 0)):
        try:
            out = apply_relation(w, pos)
        except RelationApplicationError:
            continue
        assert evaluate_to_coxeter(out) == target
        assert len(out) == len(w)


def test_type_a_dictionary(system):
    a3 = system("A3")
    fwd = type_a_dictionary(a3)
    assert fwd[(1, 2)] == frozenset({0})
    assert fwd[(1, 3)] == frozenset({0, 1})
    assert fwd[(1, 4)] == frozenset({0, 1, 2})
    assert fwd[(3, 4)] == frozenset({2})
    assert len(fwd) == len(connected_subsets(a3))
    back = type_a_dictionary(a3, "to_classical")
    for pq, I in fwd.items():
        assert back[I] == pq


def test_type_a_dictionary_errors(system):
    with pytest.raises(InputError):
        type_a_dictionary(system("B2"))
    with pytest.raises(InputError):
        type_a_dictionary(system("I2(5)"))
    with pytest.raises(InputError):
        type_a_dictionary(system("A3"), "sideways")


def test_parse_classical_generator():
    assert parse_classical_generator("s_{2,4}") == (2, 4)
    assert parse_classical_generator("s{1,3}") == (1, 3)
    with pytest.raises(InputError):
        parse_classical_generator("s_{4,2}")
    with pytest.raises(InputError):
        parse_classical_generator("t_{1,2}")
