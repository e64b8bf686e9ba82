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
