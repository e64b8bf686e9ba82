"""The right-angled system on parabolic conjugates and the cactus embedding.

Everything here needs W finite.  A context enumerates the set S of parabolic
conjugates w W_I w^-1 once, each known by its roots +-w(Phi_I), and in the
same walk computes the big right-angled Coxeter matrix M on it from
containment and fixing of those root sets, kept as the set of letters each
letter commutes with (the dense M is built only if read).  It exposes the
embedding gamma_I -> (tau_{W_I}, g_I) into the semidirect product.  Words
in the big group are canonicalized in one pass: letters are pushed one at a
time onto a word kept reduced and lexicographically least among its
commutation shuffles, each cancelling or taking its place after a back-scan
over commuting letters (O(L) per letter).  That solves the word problem
there and, through the embedding, equality in C_W; `embed` carries its
running aut part as an element x of W and memoizes each (x, letter) move,
so a letter costs one lookup and one push.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .cactus import CactusWord
from .coxeter import (
    CoxeterSystem,
    GroupElement,
    _subset_key,
    connected_subsets,
    is_finite_parabolic,
    longest_element,
    presentation,
)
from .errors import InfiniteGroupError, InputError


class ParabolicConjugate:
    """A subgroup w W_I w^-1 of the ambient finite group.

    Identity is the system and the root set: the ids of the roots
    +-w(Phi_I), which determine the subgroup.  The element set (table
    indices), the conjugated simple reflections and the sorted element
    words are data.
    """

    __slots__ = ("roots", "elements", "genset", "words", "table")

    def __init__(self, roots, elements, genset, words, table):
        self.roots = frozenset(roots)
        self.elements = frozenset(elements)
        self.genset = frozenset(genset)  # conjugated simple reflections
        self.words = words  # sorted tuple of reduced words (index form)
        self.table = table

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, ParabolicConjugate):
            return NotImplemented
        return self.roots == other.roots and self.table.system == other.table.system

    def __hash__(self):
        return hash(self.roots)

    def label(self) -> str:
        system = self.table.system
        gens = sorted(self.table.elements[i].word for i in self.genset)
        inner = ",".join(" ".join(system.labels[i] for i in w) for w in gens)
        return "<" + inner + ">"

    def __repr__(self):
        return f"ParabolicConjugate({self.label()})"


def build_S(system: CoxeterSystem, family: Sequence[frozenset]):
    """All conjugates of the W_I, I in a family already checked by
    `_checked_family`, and the right-angled Coxeter matrix M on them, as
    commuting sets, from one BFS under conjugation by the simple reflections.

    The BFS is keyed by root sets: W_I's is {x(alpha_i) : x in W_I, i in I},
    read off the element keys, and s maps a root set id by id through the
    reflection row of s.  A conjugate's elements and generators are
    conjugated once, when it is first met as s(P), P its BFS parent.  S is
    ordered by (subgroup size, sorted tuple of element reduced words); the
    ordering is deterministic because BFS enumeration of the ambient group
    is.  M is kept as C(x), the set of the other letters x commutes with
    (M = 2), read on root sets for the W_I: proper containment either way,
    or the simple reflections of I fix every root of the other conjugate
    (orthogonal to Phi_I, it meets W_I trivially and commutes with it
    elementwise; no root of W_I is fixed).  Conjugation by W permutes S
    and keeps M, so every other C(s(P)) is its parent's C(P) mapped through
    s, in O(sum |C|).  Returns S, the sets C, the index in S of each W_I,
    and for each simple reflection s the permutation of S by conjugation
    with s, read off the BFS edges.  The group table raises if W is infinite.
    """
    table, root_table = system.group_table(), system.root_table()
    reflect, conj = root_table.reflect, table.conjugate_by_gen
    found = {}  # root set -> its position in the BFS queue
    queue = []  # (root set, element set, its conjugated simple reflections)
    for I in family:
        elems = table.subgroup(I)
        roots = frozenset(table.elements[x].key[i] for x in elems for i in I)
        found[roots] = len(queue)
        queue.append((roots, elems, frozenset(table.simple_index[s] for s in I)))
    edges = []  # per queue position: the position of its conjugate by each s
    parents = []  # per queue position past the W_I: (its parent's position, s)
    for p, (roots, elems, genset) in enumerate(queue):  # a BFS queue: grows while walked
        row = []
        for s in range(system.rank):
            new_roots = frozenset([reflect(s, r) for r in roots])
            if new_roots not in found:
                found[new_roots] = len(queue)
                queue.append((new_roots, frozenset([conj(s, x) for x in elems]),
                              frozenset([conj(s, x) for x in genset])))
                parents.append((p, s))
            row.append(found[new_roots])
        edges.append(row)
    words = [tuple(sorted(table.elements[x].word for x in elems)) for _, elems, _ in queue]
    order = sorted(range(len(queue)), key=lambda p: (len(queue[p][1]), words[p]))
    index = [0] * len(queue)  # queue position -> index in S
    for i, p in enumerate(order):
        index[p] = i
    conjugates = [ParabolicConjugate(*queue[p], words[p], table) for p in order]
    base_index = {I: index[p] for p, I in enumerate(family)}
    perms = [tuple(index[edges[p][s]] for p in order) for s in range(system.rank)]
    ids, sets = range(len(root_table.vectors)), [pc.roots for pc in conjugates]
    commuting = []  # per queue position: the W_I, then each conjugate after its parent
    for p, I in enumerate(family):
        a = queue[p][0]
        fixed = frozenset(r for r in ids if all(reflect(s, r) == r for s in I))
        commuting.append(frozenset(j for j, b in enumerate(sets) if a < b or b < a or b <= fixed))
    for p, s in parents:
        commuting.append(frozenset(map(perms[s].__getitem__, commuting[p])))
    return conjugates, tuple(commuting[p] for p in order), base_index, perms


def _checked_family(system, family) -> tuple[frozenset, ...]:
    if family is None:
        return connected_subsets(system)
    fam = sorted({frozenset(I) for I in family}, key=_subset_key)
    full = frozenset(range(system.rank))
    for I in fam:
        if not I or not I <= full:
            raise InputError("family subsets must be nonempty subsets of S")
        if not is_finite_parabolic(system, I):
            raise InfiniteGroupError(f"infinite parabolic: {system.format_subset(I)}")
    closed = {*fam, None}
    if any(J2 not in closed for _, _, J2 in presentation(system, fam).relations):
        raise InputError("family is not closed under conjugation by longest elements")
    return tuple(fam)


def _push(w: list, x: int, commuting) -> None:
    """Multiply the normal-form word w by the letter x, in place.

    Scanning back over the letters in commuting[x], x cancels the first
    equal one (Tits' solution, right-angled case); otherwise it goes in
    before the leftmost greater one it passed, or last.  A reduced word is
    lex-least iff it has no factor b u a with a < b and a commuting with b
    and u (Anisimov-Knuth), and neither step makes one: O(|w|) per letter.
    """
    c = commuting[x]
    at = len(w)
    for i in range(at - 1, -1, -1):
        y = w[i]
        if y == x:
            del w[i]
            return
        if y not in c:
            break
        if y > x:
            at = i
    w.insert(at, x)


def normal_form(word: Sequence[int], M: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Canonical form of a word in the big right-angled group: the
    lexicographically least reduced word equal to it, built by pushing the
    letters one at a time (`_push`, O(L) per letter).  Words are equal in the
    group iff their normal forms coincide; M is read as commuting sets."""
    return _normal_form(word, [frozenset(j for j, m in enumerate(row) if m == 2) for row in M])


def _normal_form(word: Sequence[int], commuting) -> tuple[int, ...]:
    w: list[int] = []
    for x in word:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < len(commuting):
            raise InputError(f"letter out of range for S: {x!r}")
        _push(w, x, commuting)
    return tuple(w)


class InducedAutomorphism:
    """Diagram automorphism of (W, S) given as a permutation of S-indices."""

    __slots__ = ("perm",)

    def __init__(self, perm: Iterable[int]):
        self.perm = tuple(perm)

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def compose(self, other: "InducedAutomorphism") -> "InducedAutomorphism":
        # self after other: (self . other)(i) = self(other(i))
        return InducedAutomorphism(self.perm[p] for p in other.perm)

    def __eq__(self, other):
        if not isinstance(other, InducedAutomorphism):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"InducedAutomorphism({list(self.perm)})"


class SemidirectElement:
    """Element (racg_part, aut_part) of the semidirect product.

    racg_part is stored in normal form, so componentwise equality decides
    equality in the group, for two elements of contexts over one system and
    family: the constructor normalizes it (the loop of `normal_form`, which
    rejects letters out of range) and checks that aut_part permutes the
    indices of S and keeps M (C(perm(i)) = perm(C(i)), O(sum |C|)); the
    context's own products skip both passes through `_of`.
    """

    __slots__ = ("context", "racg_part", "aut_part")

    def __init__(self, context, racg_part, aut_part):
        self.context = context
        self.racg_part = _normal_form(racg_part, context.commuting)
        n = len(context.conjugates)
        if not isinstance(aut_part, InducedAutomorphism) or not all(
                type(p) is int for p in aut_part.perm) or sorted(aut_part.perm) != list(range(n)):
            raise InputError(f"aut part is not a permutation of range({n}): {aut_part!r}")
        C, perm = context.commuting, aut_part.perm
        if any(C[perm[i]] != {perm[j] for j in c} for i, c in enumerate(C)):
            raise InputError(f"aut part does not preserve M: {aut_part!r}")
        self.aut_part = aut_part

    @classmethod
    def _of(cls, context, racg_part: Sequence[int], aut_part) -> "SemidirectElement":
        el = cls.__new__(cls)
        el.context, el.racg_part, el.aut_part = context, tuple(racg_part), aut_part
        return el

    def is_identity(self) -> bool:
        return not self.racg_part and self.aut_part.is_identity()

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        a, b = self.context, other.context
        return ((a is b or (a.system == b.system and a.family == b.family))
                and self.racg_part == other.racg_part and self.aut_part == other.aut_part)

    def __hash__(self):
        return hash((self.racg_part, self.aut_part))

    def to_json(self) -> dict:
        return {"racg": list(self.racg_part), "aut": list(self.aut_part.perm)}

    def __repr__(self):
        return f"SemidirectElement(racg={list(self.racg_part)}, aut={list(self.aut_part.perm)})"


def semidirect_mul(a: SemidirectElement, b: SemidirectElement) -> SemidirectElement:
    """(t1, g1)(t2, g2) = (t1 . g1(t2), g1 . g2), renormalized.

    The letters of g1(t2) are pushed onto t1, so t1 = a.racg_part must be in
    normal form, as every `SemidirectElement` keeps it.
    """
    if a.context is not b.context:
        raise InputError("elements from different contexts")
    ctx = a.context
    w = list(a.racg_part)
    perm = a.aut_part.perm
    for i in b.racg_part:
        _push(w, perm[i], ctx.commuting)
    return SemidirectElement._of(ctx, w, a.aut_part.compose(b.aut_part))


class RacgContext:
    """Immutable bundle: ambient table, S, M as commuting sets, the letter
    images and the caches (Pi images and the embedding's letter moves).

    family overrides the gamma alphabet (default: F(S)).  A custom family
    must be closed under nested conjugation I -> w_J(I) so that the defining
    relations stay inside the alphabet; this is checked.
    """

    def __init__(self, system: CoxeterSystem, family: Optional[Iterable[frozenset]] = None):
        self.system = system
        self.table = system.group_table()  # raises if W is infinite
        self.family = _checked_family(system, family)
        self.conjugates, self.commuting, self.base_index, self._gen_perms = build_S(system, self.family)
        # per letter I: (the index of W_I in S, the table index of w_I)
        self._steps = {
            I: (self.base_index[I], self.table.element_index(longest_element(system, I)))
            for I in self.family
        }
        self.letters = {  # gamma_I -> (tau_{W_I}, g_I)
            I: SemidirectElement._of(self, (k,), self.induced_aut(x))
            for I, (k, x) in self._steps.items()
        }
        # Pi images by ("Pi", t), filled by rep.Pi_rep, and under "moves" the
        # embedding's memoized letter moves, filled by `_walk`
        self.caches: dict = {}

    @cached_property
    def M(self) -> tuple:
        """M itself (0 for infinity), built from `commuting` on first read."""
        return tuple(tuple(1 if i == j else 2 * (j in c) for j in range(len(self.commuting)))
                     for i, c in enumerate(self.commuting))

    def identity(self) -> SemidirectElement:
        return SemidirectElement._of(self, (), self.induced_aut(0))

    def induced_aut(self, w) -> InducedAutomorphism:
        """g_w, the permutation of S by conjugation with w (an element of W or
        its table index): the simple reflections' permutations of S along w's
        word, last letter first."""
        if isinstance(w, GroupElement):
            w = self.table.element_index(w)
        elif isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < len(self.table):
            raise InputError(f"not an element of W or a table index: {w!r}")
        perm = range(len(self.conjugates))
        for s in reversed(self.table.elements[w].word):
            perm = tuple(map(self._gen_perms[s].__getitem__, perm))
        return InducedAutomorphism(perm)

    def _walk(self, word: CactusWord) -> tuple[list[int], int]:
        """The embedding of word as (racg part in normal form, x in W with
        g_x its aut part).  gamma_I pushes g_x(W_I) and x becomes x w_I; that
        move depends only on (x, I) and is kept in ctx.caches["moves"][I][x]
        once `_move` has made it, so a letter costs one lookup and a `_push`."""
        if word.system != self.system:
            raise InputError("word over a different system")
        moves = self.caches.setdefault("moves", {})
        commuting = self.commuting
        w: list[int] = []
        x = 0
        for letter in word.letters:
            try:
                i, x = moves[letter][x]
            except KeyError:
                i, x = self._move(moves, letter, x)
            _push(w, i, commuting)
        return w, x

    def _move(self, moves: dict, letter: frozenset, x: int) -> tuple[int, int]:
        # (g_x(i), x w_I) for i the index of W_I in S: i chased through the
        # simple reflections' permutations of S along x's word, last first
        step = self._steps.get(letter)
        if step is None:
            raise InputError(
                f"letter not in the generating family: {self.system.format_subset(letter)}"
            ) from None
        i, w_I = step
        for s in reversed(self.table.elements[x].word):
            i = self._gen_perms[s][i]
        move = (i, self.table.product(x, w_I))
        moves.setdefault(letter, {})[x] = move
        return move

    def embed(self, word: CactusWord) -> SemidirectElement:
        """Image under gamma_I -> (tau_{W_I}, g_I), multiplied out left to
        right on one word kept in normal form by `_push`, one memoized move
        a letter (see `_walk`); g_x is built once, at the end."""
        w, x = self._walk(word)
        return SemidirectElement._of(self, w, self.induced_aut(x))

    def cactus_equal(self, u: CactusWord, v: CactusWord) -> bool:
        """Word problem for C_W through the injective embedding: the same
        answer as embed(u) == embed(v).  The aut parts g_x are built only
        when the racg parts agree and the evaluations x differ."""
        wu, xu = self._walk(u)
        wv, xv = self._walk(v)
        return wu == wv and (xu == xv or self.induced_aut(xu) == self.induced_aut(xv))

    def sset_json(self) -> dict:
        """S as lists of reduced element words, M with 0 standing for infinity."""
        labels = self.system.labels
        out_sets = []
        for pc in self.conjugates:
            out_sets.append(
                [" ".join(labels[i] for i in w) if w else "e" for w in pc.words]
            )
        return {"S": out_sets, "M": [list(row) for row in self.M]}
