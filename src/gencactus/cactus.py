"""Cactus words over gamma_I generators, their relations, and evaluation to W.

Words are the currency here; canonical forms and the word problem live in the
racg module.  A letter is a subset I in F(S) (connected, finite parabolic),
stored as its alphabet's own frozenset of generator indices.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .coxeter import (
    CoxeterSystem,
    GroupElement,
    commuting_subsets,
    conjugate_subset,
    letter_table,
    longest_root_map,
)
from .errors import InputError, RelationApplicationError


class CactusWord:
    """A finite sequence of generators gamma_I.  Equality is letterwise;
    use RacgContext.cactus_equal for equality in the group.

    The default alphabet is F(S).  Passing alphabet= substitutes another
    family of subsets, and the constructor checks only that each letter
    belongs to it; `RacgContext(family=...)` is what checks that a family
    is of finite type.  This backs the dihedral n = 2 reading where the
    full generator set is kept even though it splits as a product.

    Each stored letter is the alphabet's own frozenset (F(S)'s from
    `letter_table`), found by one dict lookup, so a word of any length
    holds at most one set object per distinct letter.  The word keeps its
    alphabet's table of letters, and `*`, `inverse` and `apply_relation`
    pass it on, so their words store the same objects.
    """

    __slots__ = ("system", "letters", "_table")

    def __init__(self, system: CoxeterSystem, letters: Iterable[frozenset] = (), alphabet=None):
        table = letter_table(system) if alphabet is None else {
            I: I for I in map(_as_subset, alphabet)
        }
        self._fill(system, [_letter(system, table, l) for l in letters], table)

    def _fill(self, system, letters, table) -> "CactusWord":
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "_table", table)
        return self

    def _with(self, letters) -> "CactusWord":
        """A word over this word's alphabet, of letters already its own."""
        return object.__new__(CactusWord)._fill(self.system, letters, self._table)

    def __setattr__(self, name, value):
        raise AttributeError("CactusWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        if not isinstance(other, CactusWord):
            return NotImplemented
        return self.system == other.system and self.letters == other.letters

    def __hash__(self):
        return hash((self.system, self.letters))

    def __mul__(self, other: "CactusWord") -> "CactusWord":
        if self.system != other.system:
            raise InputError("words over different systems")
        right = other.letters
        if other._table is not self._table:  # another alphabet: look its letters up in ours
            right = [_letter(self.system, self._table, l) for l in right]
        return self._with(self.letters + tuple(right))

    def inverse(self) -> "CactusWord":
        # every letter is an involution, so reversal inverts the word
        return self._with(reversed(self.letters))

    def __repr__(self):
        return f"CactusWord({format_word(self)!r})"


def _as_subset(letter) -> frozenset:
    try:
        return frozenset(letter)
    except TypeError:
        raise InputError(f"a letter must be a set of generator indices, not {letter!r}") from None


def _letter(system: CoxeterSystem, table: dict, letter) -> frozenset:
    """The table's own object equal to letter (a frozenset, or any iterable
    of generator indices); InputError when there is none."""
    try:
        return table[letter]
    except (KeyError, TypeError):  # not a member, or unhashable such as a list
        pass
    subset = _as_subset(letter)
    try:
        return table[subset]
    except KeyError:
        raise InputError(
            f"letter outside the generating family: {system.format_subset(subset)}"
        ) from None


def parse_word(system: CoxeterSystem, text: str) -> CactusWord:
    """Parse the word grammar: whitespace-separated letters `g{s1,s2}`."""
    letters = []
    for tok in text.split():
        if not (tok.startswith("g{") and tok.endswith("}")):
            raise InputError(f"bad cactus letter: {tok!r}")
        letters.append(system.parse_subset(tok[1:]))
    return CactusWord(system, letters)


def format_word(word: CactusWord) -> str:
    return " ".join("g" + word.system.format_subset(l) for l in word.letters)


def apply_relation(word: CactusWord, position: int) -> CactusWord:
    """Rewrite (gamma_I, gamma_J) at position to (gamma_J, gamma_{w_J(I)}).

    Applies when I is contained in J, or when the parabolics commute (then
    w_J(I) = I and the pair just swaps).  Left-to-right only.  w_J(I) is
    stored as the word's alphabet's own object whenever it lies in the
    alphabet, as it does in F(S) when I does: w_J permutes the diagram of J.
    """
    sys_ = word.system
    if not 0 <= position <= len(word) - 2:
        raise RelationApplicationError("relation not applicable")
    I, J = word.letters[position], word.letters[position + 1]
    if I <= J:
        K = conjugate_subset(sys_, J, I)
        new_pair = (J, word._table.get(K, K))
    elif commuting_subsets(sys_, I, J):
        new_pair = (J, I)
    else:
        raise RelationApplicationError("relation not applicable")
    return word._with(word.letters[:position] + new_pair + word.letters[position + 2:])


def evaluate_to_coxeter(word: CactusWord) -> GroupElement:
    """Image under g_W: gamma_I -> w_I (longest element of W_I), right to
    left on the key: (w_I y)(alpha_j) = w_I(y(alpha_j)), n lookups a letter.
    The root map of w_I is looked up once per distinct letter."""
    system = word.system
    maps = {l: longest_root_map(system, l).__getitem__ for l in set(word.letters)}
    key = system.root_table().identity
    for f in map(maps.__getitem__, reversed(word.letters)):
        key = tuple(map(f, key))
    return GroupElement(system, key)


def is_pure(word: CactusWord) -> bool:
    """Membership in PC_W = kernel of the evaluation to W."""
    return evaluate_to_coxeter(word).is_identity()


_CLASSICAL_RE = re.compile(r"^s_?\{(\d+),(\d+)\}$")


def _require_type_a(system: CoxeterSystem) -> None:
    n = system.rank
    for i in range(n):
        for j in range(i + 1, n):
            want = 3 if j == i + 1 else 2
            if system.m(i, j) != want:
                raise InputError("type A system required")


def type_a_dictionary(system: CoxeterSystem, direction: str = "to_cactus") -> dict:
    """Bijection s_{p,q} <-> gamma over the interval {s_p,...,s_{q-1}}.

    Classical cactus generators s_{p,q} (1 <= p < q <= n, n = rank+1) name
    interval reversals; the matching gamma letter is the interval of
    generator indices p-1..q-2.  direction: "to_cactus" or "to_classical".
    """
    _require_type_a(system)
    n = system.rank + 1
    pairs = {
        (p, q): frozenset(range(p - 1, q - 1))
        for p in range(1, n + 1)
        for q in range(p + 1, n + 1)
    }
    if direction == "to_cactus":
        return pairs
    if direction == "to_classical":
        return {v: k for k, v in pairs.items()}
    raise InputError(f"unknown direction: {direction!r}")


def parse_classical_generator(text: str) -> tuple[int, int]:
    """Parse "s_{p,q}" (underscore optional) to the pair (p, q)."""
    m = _CLASSICAL_RE.match(text.strip())
    if not m:
        raise InputError(f"bad classical generator: {text!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if not p < q:
        raise InputError(f"need p < q in s_{{p,q}}: {text!r}")
    return p, q
