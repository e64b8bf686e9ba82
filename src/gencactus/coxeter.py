"""Coxeter systems and exact computation with their elements.

A system is a finite generating set with a Coxeter matrix (entry 0 encodes an
infinite bond).  An element w is keyed by integer ids of the roots
w(alpha_1), ..., w(alpha_n), which determine it, and s is a right descent of w
iff w(alpha_s) < 0, so products, reduced words, enumeration and longest
elements are lookups on ids.  For finite W, exact arithmetic runs only while
the root system is closed, one simple reflection at a time, and no sign is
ever decided; finiteness itself is read off the diagram by classification.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import CactusError, InfiniteGroupError, InputError

if TYPE_CHECKING:
    from .scalar import Scalar

__all__ = [
    "CoxeterSystem",
    "GroupElement",
    "GroupTable",
    "is_finite_parabolic",
    "connected_subsets",
    "longest_element",
    "conjugate_subset",
    "enumerate_group",
]

_LABEL_FORBIDDEN = set("{}, \t*")


def _bond(x) -> int:
    """A Coxeter matrix entry: an int, or a float with an integral value."""
    if type(x) is int or type(x) is float and x.is_integer():
        return int(x)
    raise InputError(f"Coxeter matrix entries must be integers, not {x!r}")


def exact_t(t) -> Fraction:
    """The parameter t of a form or a representation as a Fraction: an int,
    a rational or a string such as "5/2".  A float or a bool is refused, not
    rounded, and so is a malformed string or a zero denominator."""
    if not isinstance(t, (bool, float)):
        try:
            return Fraction(t)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InputError(f"t must be an exact rational: {t!r}")


class CoxeterSystem:
    """Immutable Coxeter system: labels plus symmetric Coxeter matrix.

    matrix[i][j] is the order of s_i s_j; 0 means infinite.  `_cache` holds
    the derived data that is reused, and only this module reads or writes
    it.  Its seven key kinds are "roots" (the root table), "table" (the
    group table), "fset" (F(S) as a tuple), "letters" (`letter_table`),
    ("longest", I) (w_I), ("longest_roots", I) (`longest_root_map`) and
    ("presentation", family) (`presentation`).
    """

    def __init__(self, labels: Sequence[str], matrix: Sequence[Sequence[int]]):
        labels = tuple(labels)
        matrix = tuple(tuple(_bond(x) for x in row) for row in matrix)
        n = len(labels)
        if n == 0:
            raise InputError("a Coxeter system needs at least one generator")
        if not all(isinstance(lab, str) for lab in labels):
            raise InputError("generator labels must be strings")
        if len(set(labels)) != n:
            raise InputError("generator labels must be distinct")
        for lab in labels:
            if not lab or any(ch in _LABEL_FORBIDDEN for ch in lab):
                raise InputError(f"bad generator label {lab!r}")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InputError("Coxeter matrix shape does not match labels")
        for i in range(n):
            if matrix[i][i] != 1:
                raise InputError("Coxeter matrix diagonal must be 1")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise InputError("Coxeter matrix must be symmetric")
                if i != j and matrix[i][j] == 1 or matrix[i][j] < 0:
                    raise InputError("off-diagonal entries must be 0 or >= 2")
        self.labels = labels
        self.matrix = matrix
        # conductor of the cyclotomic field holding all Gram entries
        self.conductor = _conductor(m for row in matrix for m in row)
        self._cache: dict = {}

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CoxeterSystem):
            return self.labels == other.labels and self.matrix == other.matrix
        return NotImplemented

    def __hash__(self):
        return hash((self.labels, self.matrix))

    def __repr__(self):
        return f"CoxeterSystem({list(self.labels)!r})"

    @property
    def rank(self) -> int:
        return len(self.labels)

    def m(self, i: int, j: int) -> int:
        """Coxeter matrix entry; 0 encodes infinity."""
        return self.matrix[i][j]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown generator {label!r}") from None

    # -- subset syntax ---------------------------------------------------------

    def parse_subset(self, text: str) -> frozenset[int]:
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise InputError("empty generator subset")
        return frozenset(self.label_index(p) for p in parts)

    def format_subset(self, subset: Iterable[int]) -> str:
        return "{" + ",".join(self.labels[i] for i in sorted(_checked_subset(self, subset))) + "}"

    # -- scalars ---------------------------------------------------------------

    # every entry is made once from 2B_t of `_twice_form`, at the system's
    # conductor: a Fraction when every bond is rational, which loads no
    # CycloReal arithmetic, else a CycloReal at N = 2 lcm of the bonds of 4
    # or more

    def _scalar(self, poly: dict) -> Scalar:
        """A polynomial {power: coefficient} in x = exp(2 pi i / N) as a Scalar."""
        if self.conductor is None:
            return Fraction(poly[0])
        from .scalar import CycloReal

        return CycloReal(self.conductor, [poly.get(k, 0) for k in range(max(poly) + 1)])

    def bilinear_entry(self, i: int, j: int, t) -> Scalar:
        """B_t(e_i, e_j): 1 on the diagonal, -cos(pi/m) for finite bonds, -t else."""
        return self._scalar(_twice_form(self.matrix[i][j], exact_t(t), self.conductor)) / 2

    def gram_matrix(self, t) -> tuple:
        t = exact_t(t)
        return tuple(
            tuple(self.bilinear_entry(i, j, t) for j in range(self.rank))
            for i in range(self.rank)
        )

    def reflection_matrix(self, s: int, t=1) -> tuple:
        """Matrix of the simple reflection s at parameter t, columns = images."""
        t = exact_t(t)
        n = self.rank
        zero, one = self._scalar({0: 0}), self._scalar({0: 1})
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for v in range(n):  # delta_vs - 2 B_t(alpha_v, alpha_s)
            poly = {p: -c for p, c in _twice_form(self.matrix[v][s], t, self.conductor).items()}
            poly[0] = poly.get(0, 0) + (v == s)
            rows[s][v] = self._scalar(poly)
        return tuple(tuple(row) for row in rows)

    # -- serialized forms ------------------------------------------------------

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data: dict) -> "CoxeterSystem":
        if not isinstance(data, dict) or "labels" not in data or "matrix" not in data:
            raise InputError('system JSON needs "labels" and "matrix" keys')
        labels, matrix = data["labels"], data["matrix"]
        if not (isinstance(labels, list) and isinstance(matrix, list)
                and all(isinstance(row, list) for row in matrix)):
            raise InputError('system JSON needs a list of labels and a list of matrix rows')
        return cls(labels, matrix)

    @classmethod
    def from_name(cls, name: str) -> "CoxeterSystem":
        return _system_from_name(name)

    def root_table(self) -> "RootTable":
        """The root table, shared by every system with this Coxeter matrix."""
        table = self._cache.get("roots")
        if table is None:
            table = _ROOT_TABLES.get(self.matrix) or RootTable(self)
            self._cache["roots"] = _ROOT_TABLES[self.matrix] = table
        return table

    def group_table(self) -> "GroupTable":
        if "table" not in self._cache:
            self._cache["table"] = GroupTable(self)
        return self._cache["table"]


class RootTable:
    """Root vectors of one Coxeter matrix in integer coordinates, interned to
    integer ids, and the reflection of each root in each root as a lookup on
    ids.

    A coordinate lives in the ring of its diagram component: an int when the
    component has no bond of 4 or more, else its tuple of int coefficients in
    Z[x]/Phi_N, for N the component's own conductor (2 lcm of those bonds).
    2 B(alpha_j, alpha_b) at t = 1 (`_twice_form`) is 2, -1, -2 or
    -(x**e + x**(N - e)), an algebraic integer, so no denominator ever
    appears; on a coordinate in Z[x]/Phi_N each power of x is a few shifts
    of its coefficients (`_times`).

    Ids 0..n-1 are the simple roots.  The simple reflection s_b changes only
    coordinate b and permutes the positive roots other than alpha_b, so a
    root it reaches first is negative iff the root it came from is negative
    or is alpha_b: no sign is decided.  For finite W the root system is
    closed at construction by BFS from the simple roots, generators in index
    order, and then every row is filled in id order: a root beta first
    reached as s(gamma) has the smaller id gamma, and s_beta = s s_gamma s is
    one row of lookups in rows already filled.  For infinite W a root gets
    the next id when first met, a non-simple reflection is the exact
    rho - 2 B(rho, beta) beta, and only a root first met that way has its
    sign certified, by a CycloReal made from its first nonzero coordinate.
    """

    def __init__(self, system: CoxeterSystem):
        n = system.rank
        self._comps = [()] * n  # the coordinates of each generator's component
        # None for an int coordinate, else (N, Phi_N) of its Z[x]/Phi_N
        self._rings: list[Optional[tuple]] = [None] * n
        for comp in _diagram_components(system, range(n)):
            comp = tuple(sorted(comp))
            N, ring = _conductor(system.m(i, j) for i in comp for j in comp), None
            if N is not None:
                from .cyclotomic import cyclotomic_polynomial

                ring = (N, cyclotomic_polynomial(N))
            for j in comp:
                self._comps[j], self._rings[j] = comp, ring
        # per simple root b, {j: 2 B(alpha_j, alpha_b)} over the nonzero
        # entries: an int, or the polynomial of `_twice_form` in Z[x]/Phi_N
        self._bonds = []
        for b, ring in enumerate(self._rings):
            forms = {j: _twice_form(system.m(j, b), 1, ring and ring[0])
                     for j in range(n) if system.m(j, b) != 2}
            self._bonds.append({j: g[0] for j, g in forms.items()} if ring is None else forms)
        # an int, or deg(Phi_N) 0s
        self._zero = [0 if ring is None else (0,) * (len(ring[1]) - 1) for ring in self._rings]
        self.vectors: list[tuple] = []
        self.negative: list[bool] = []
        self._ids: dict[tuple, int] = {}
        self._rows: list[dict[int, int]] = []  # b -> {r: s_b(r)}
        for s in range(n):
            unit = 1 if self._rings[s] is None else (1,) + self._zero[s][1:]
            self._intern(tuple(unit if i == s else self._zero[i] for i in range(n)), False)
        self.identity = tuple(range(n))
        self.finite = is_finite_parabolic(system, self.identity)
        if self.finite:
            parents = []  # (s, gamma) for each non-simple root s(gamma)
            for r, _ in enumerate(self.vectors):  # a BFS queue: grows while walked
                for s in range(n):
                    if self.reflect(s, r) == n + len(parents):  # a new root
                        parents.append((s, r))
            ids = range(len(self.vectors))
            for beta, (s, gamma) in enumerate(parents, n):
                rs, rg = self._rows[s], self._rows[gamma]
                self._rows[beta] = {r: rs[rg[rs[r]]] for r in ids}

    def _intern(self, vector: tuple, negative: Optional[bool]) -> int:
        """Id of a root vector; a new root with `negative` None has its sign
        certified (all its coordinates share it, so the first nonzero one)."""
        rid = self._ids.get(vector)
        if rid is None:
            if negative is None:
                k = next(k for k, x in enumerate(vector) if x != self._zero[k])
                negative = _is_negative(vector[k], self._rings[k])
            rid = self._ids[vector] = len(self.vectors)
            self.vectors.append(vector)
            self.negative.append(negative)
            self._rows.append({})
        return rid

    def reflect(self, b: int, r: int) -> int:
        """Id of s_b(rho) for the simple root alpha_b and the root id r."""
        row = self._rows[b]
        if r not in row:
            rho, ring = self.vectors[r], self._rings[b]
            terms = [_times(g, rho[j], ring) for j, g in self._bonds[b].items()]
            c = sum(terms) if ring is None else tuple(map(sum, zip(*terms)))
            if c == self._zero[b]:
                row[r] = r
            else:
                image = list(rho)
                image[b] = _minus(rho[b], c)
                # s_b maps -alpha_b to alpha_b, which is never new
                row[r] = self._intern(tuple(image), self.negative[r] or r == b)
        return row[r]

    def right_mul(self, key: tuple, s: int) -> tuple:
        """Key of w*s from the key of w: (ws)(alpha_j) = s_beta(w(alpha_j)) for
        beta = w(alpha_s)."""
        b = key[s]
        row = self._rows[b]
        try:
            return tuple([row[r] for r in key])
        except KeyError:
            pass
        # only infinite W gets here: every row of a finite W is full
        if b < len(key):  # a simple root
            return tuple([self.reflect(b, r) for r in key])
        # infinite W: 2 B(w(alpha_j), w(alpha_s)) = 2 B(alpha_j, alpha_s), as W
        # preserves B; the only place a sign is certified
        # beta and each root with a bond to alpha_s lie in the component of s
        beta, bonds, ring = self.vectors[b], self._bonds[s], self._rings[s]
        for j, r in enumerate(key):
            if r not in row:
                g = bonds.get(j)
                if g is None:
                    row[r] = r
                else:
                    image = list(self.vectors[r])
                    for k in self._comps[s]:
                        image[k] = _minus(image[k], _times(g, beta[k], ring))
                    row[r] = self._intern(tuple(image), None)
        return tuple([row[r] for r in key])

    def apply(self, key: tuple, word: Iterable[int]) -> tuple:
        for s in word:
            key = self.right_mul(key, s)
        return key

    def greedy_word(self, key: tuple) -> tuple[int, ...]:
        """Reduced word whose last letter is always the smallest right descent."""
        rev: list[int] = []
        negative = self.negative
        while True:
            for s, r in enumerate(key):
                if negative[r]:
                    rev.append(s)
                    key = self.right_mul(key, s)
                    break
            else:
                return tuple(reversed(rev))


def _conductor(bonds: Iterable[int]) -> Optional[int]:
    """2 lcm of the bonds of 4 or more, which holds each cos(pi/m); else None."""
    irrational = [m for m in bonds if m >= 4]
    return 2 * math.lcm(*irrational) if irrational else None


def _twice_form(m: int, t, N: Optional[int]) -> dict:
    """2 B_t(alpha_s, alpha_u) for the bond m of s and u (1 when s = u) as a
    polynomial {power: coefficient} in x = exp(2 pi i / N): 2, 0, -1 and -2t
    for m = 1, 2, 3 and infinity (0), else -2 cos(pi/m) = -(x**e + x**(N - e))
    for e = N/2m.  Its coefficients are ints when t is."""
    if m < 4:
        return {0: {0: -2 * t, 1: 2, 2: 0, 3: -1}[m]}
    e = N // (2 * m)
    return {e: -1, N - e: -1}


def _times(g, y, ring: Optional[tuple]):
    """g*y for a bond g and a coordinate y of its ring: an int when ring is
    None, else the coefficient list in Z[x]/Phi_N for ring = (N, Phi_N),
    where each term c*x**p of g is p steps of x, or N - p steps of 1/x when
    2p > N (x**N = 1)."""
    if ring is None:
        return g * y
    N, phi = ring
    out = None
    for p, c in g.items():
        z = y
        step, k = (_times_x, p) if 2 * p <= N else (_over_x, N - p)
        for _ in range(k):
            z = step(z, phi)
        out = [c * a for a in z] if out is None else [o + c * a for o, a in zip(out, z)]
    return out


def _times_x(y: tuple, phi: tuple) -> tuple:
    """x*y: every coefficient one power up, and the x**d term folded back
    through the monic Phi_N of degree d."""
    top = y[-1]
    return tuple([a - top * p for a, p in zip((0,) + y[:-1], phi)])


def _over_x(y: tuple, phi: tuple) -> tuple:
    """y/x: y - y_0 Phi_N, exact as Phi_N(0) = 1 for N >= 2, with every
    coefficient one power down."""
    low = y[0]
    return tuple([a - low * p for a, p in zip(y[1:] + (0,), phi[1:])])


def _minus(x, y):
    return x - y if type(x) is int else tuple(map(operator.sub, x, y))


def _is_negative(x, ring: Optional[tuple]) -> bool:
    """Whether a nonzero coordinate is negative; certified for one in Z[x]/Phi_N."""
    if ring is None:
        return x < 0
    from .scalar import CycloReal

    return CycloReal(ring[0], x).sign() < 0


# equal matrices share one table: ids are canonical even for infinite W
_ROOT_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class GroupElement:
    """Element w of W, keyed by the root ids of w(alpha_1), ..., w(alpha_n),
    which determine w; equality and hashing use the key.  `word` is the reduced
    word the element was built with (the BFS of `GroupTable`, greedy ascent
    in `longest_element`), else the greedy smallest-right-descent word.
    """

    __slots__ = ("system", "key", "_word")

    def __init__(self, system: CoxeterSystem, key: tuple, word: Optional[tuple] = None):
        self.system = system
        self.key = key
        self._word = word

    @classmethod
    def identity(cls, system: CoxeterSystem) -> "GroupElement":
        return cls(system, system.root_table().identity, ())

    @classmethod
    def simple(cls, system: CoxeterSystem, s: int) -> "GroupElement":
        return cls.from_word(system, (s,))

    @classmethod
    def from_word(cls, system: CoxeterSystem, word: Iterable[int]) -> "GroupElement":
        word = tuple(word)
        _checked_subset(system, word)
        roots = system.root_table()
        return cls(system, roots.apply(roots.identity, word))

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            self._word = self.system.root_table().greedy_word(self.key)
        return self._word

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return self.key == self.system.root_table().identity

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.system != other.system:
            raise InputError("elements of different systems")
        return GroupElement(self.system, self.system.root_table().apply(self.key, other.word))

    def inverse(self) -> "GroupElement":
        return GroupElement.from_word(self.system, tuple(reversed(self.word)))

    def __eq__(self, other):
        if isinstance(other, GroupElement):
            return self.system == other.system and self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if not self.word:
            return "<e>"
        return "<" + " ".join(self.system.labels[s] for s in self.word) + ">"


def _checked_subset(system: CoxeterSystem, subset: Iterable[int]) -> frozenset[int]:
    """The subset as a frozenset; InputError unless each entry is in range(rank)."""
    subset = frozenset(subset)
    for i in subset:
        if type(i) is not int or not 0 <= i < system.rank:
            raise InputError(f"not a generator index of {system!r}: {i!r}")
    return subset


def _subset_key(subset):
    """The F(S) order: by size, then lexicographically."""
    return (len(subset), sorted(subset))


def is_finite_parabolic(system: CoxeterSystem, subset: Iterable[int]) -> bool:
    """Whether the parabolic subgroup on the subset is finite.

    W_I is finite iff each connected component of its diagram is of type
    A, B, D, E, F, H or I (the classification of finite Coxeter groups), so
    the answer is read off the bonds with integers only.
    """
    subset = _checked_subset(system, subset)
    return all(_finite_component(system, comp) for comp in _diagram_components(system, subset))


def _finite_component(system: CoxeterSystem, comp: set[int]) -> int:
    """The order of the group of one connected diagram; 0 when infinite."""
    pairs = itertools.combinations(comp, 2)
    bonds = {(i, j): system.m(i, j) for i, j in pairs if system.m(i, j) != 2}
    n = len(comp)
    if 0 in bonds.values():
        return 0
    if n <= 2:  # A1 and I2(m)
        return 2 * max(bonds.values(), default=1)
    # a connected graph with |comp| - 1 edges is a tree
    if len(bonds) != n - 1 or max(bonds.values()) > 5:
        return 0
    degree = dict.fromkeys(comp, 0)
    for i, j in bonds:
        degree[i] += 1
        degree[j] += 1
    branches = [v for v in comp if degree[v] > 2]
    big = [edge for edge, m in bonds.items() if m > 3]
    if big:  # a path with one bond of 4 or 5
        if len(big) > 1 or branches:
            return 0
        i, j = big[0]
        at_end = min(degree[i], degree[j]) == 1
        if bonds[big[0]] == 4:  # B_n, or F4 with the 4 in the middle
            return 2**n * math.factorial(n) if at_end else (1152 if n == 4 else 0)
        return {3: 120, 4: 14_400}.get(n, 0) if at_end else 0  # H3, H4
    if not branches:  # A_n
        return math.factorial(n + 1)
    if len(branches) > 1 or degree[branches[0]] > 3:
        return 0
    # D_n and E6-8 by the arms p <= q <= r of the branch node, each counting it
    arms = tuple(sorted(len(arm) + 1 for arm in _diagram_components(system, comp - set(branches))))
    if arms[:2] == (2, 2):
        return 2 ** (n - 1) * math.factorial(n)
    return {(2, 3, 3): 51_840, (2, 3, 4): 2_903_040, (2, 3, 5): 696_729_600}.get(arms, 0)


def _diagram_components(system: CoxeterSystem, subset: Iterable[int]) -> list[set[int]]:
    # a bond of order >= 3, or infinite, is an edge of the diagram
    remaining = set(subset)
    comps = []
    while remaining:
        comp = [remaining.pop()]
        for v in comp:  # a BFS queue: grows while walked
            linked = {u for u in remaining if system.m(v, u) != 2}
            remaining -= linked
            comp += linked
        comps.append(set(comp))
    return comps


def connected_subsets(system: CoxeterSystem) -> tuple[frozenset[int], ...]:
    """F(S): all subsets that generate a finite parabolic with no direct-product
    split, as one immutable tuple shared by every caller.

    The no-split condition is connectivity of the induced Coxeter diagram.
    W_I <= W_J for I in J, so level k + 1 is the finite extensions of level k
    by one diagram neighbour: at most rank finiteness checks per member.
    Sorted by size, then lexicographically.
    """
    if "fset" in system._cache:
        return system._cache["fset"]
    n = system.rank
    linked = [{v for v in range(n) if system.m(u, v) != 2} for u in range(n)]
    level = [frozenset({u}) for u in range(n)]
    out = []
    while level:
        out += level
        grown = {I | {v} for I in level for u in I for v in linked[u] - I}
        level = [J for J in grown if _finite_component(system, J)]
    out.sort(key=_subset_key)
    fset = system._cache["fset"] = tuple(out)
    return fset


def letter_table(system: CoxeterSystem) -> dict[frozenset[int], frozenset[int]]:
    """F(S) as a table from each member to itself: one lookup swaps a subset
    equal to an F(S) letter for the very object `connected_subsets` holds,
    so every word over F(S) shares one frozenset per letter."""
    if "letters" not in system._cache:
        system._cache["letters"] = {I: I for I in connected_subsets(system)}
    return system._cache["letters"]


def longest_element(system: CoxeterSystem, subset: Iterable[int]) -> GroupElement:
    """Longest element of the (finite) parabolic subgroup on the subset.

    Greedy ascent: starting from the identity, repeatedly multiply by any
    generator in the subset that increases length, until every generator in
    the subset is a descent.
    """
    subset = _checked_subset(system, subset)
    key = ("longest", subset)
    if key in system._cache:
        return system._cache[key]
    if not is_finite_parabolic(system, subset):
        raise InfiniteGroupError(f"infinite parabolic: {system.format_subset(subset)}")
    idx = sorted(subset)
    roots = system.root_table()
    word: list[int] = []
    w = roots.identity
    while True:
        for s in idx:
            if not roots.negative[w[s]]:
                word.append(s)
                w = roots.right_mul(w, s)
                break
        else:
            break
    elem = GroupElement(system, w, tuple(word))
    system._cache[key] = elem
    return elem


class _RootMap(dict):
    """r -> the id of w(r), filled on first use by the simple reflections of
    a reduced word of w, last first: no sign is decided, even for infinite W."""

    def __init__(self, roots: RootTable, word: tuple[int, ...]):
        self.reflect, self.rword = roots.reflect, word[::-1]

    def __missing__(self, r: int) -> int:
        image = r
        for s in self.rword:
            image = self.reflect(s, image)
        self[r] = image
        return image


def longest_root_map(system: CoxeterSystem, subset: frozenset[int]) -> dict:
    """w_I as a map of root ids, r -> w_I(r)."""
    key = ("longest_roots", subset)
    if key not in system._cache:
        system._cache[key] = _RootMap(system.root_table(), longest_element(system, subset).word)
    return system._cache[key]


def conjugate_subset(
    system: CoxeterSystem, outer: Iterable[int], inner: Iterable[int]
) -> frozenset[int]:
    """Image of the inner subset under conjugation by the longest element of
    the outer subset.  Defined whenever the image consists of generators
    again, which holds for inner subsets of the outer one: w s w = s_v iff
    w(alpha_s) = +-alpha_v."""
    outer = _checked_subset(system, outer)
    inner = frozenset(inner)
    if not inner <= outer:
        raise InputError("inner subset must lie inside the outer subset")
    w = longest_element(system, outer)
    roots = system.root_table()
    out = set()
    for s in inner:
        root = w.key[s]
        for v in range(system.rank):
            if root in (v, roots.reflect(v, v)):
                out.add(v)
                break
        else:
            raise ArithmeticError("conjugate of a generator is not a generator")
    return frozenset(out)


def commuting_subsets(system: CoxeterSystem, I: frozenset, J: frozenset) -> bool:
    """Whether W_{I u J} = W_I x W_J: disjoint and every cross bond is 2."""
    if I & J:
        return False
    return all(system.m(s, t) == 2 for s in I for t in J)


class Presentation:
    """The relations of C_W over a family of subsets in the F(S) order: each
    pair I before J that commutes as (I, J, None) and each nested pair I < J
    as (I, J, w_J(I)), the family's own member when w_J(I) is in it, in the
    order `rep.check_relations` reports them; the `pattern` of the form on
    R^family, 1 where it is -t and 0 elsewhere; and `orbits[i]`, the
    positions (j, j2), j < j2, of each w_I-orbit {J, w_I(J)} of two proper
    subsets of I."""

    __slots__ = ("family", "relations", "pattern", "orbits")

    def __init__(self, system: CoxeterSystem, family: tuple):
        pos, n = {I: i for i, I in enumerate(family)}, len(family)
        self.family, self.relations, self.orbits = family, [], [[] for _ in family]
        for a, b in itertools.combinations(range(n), 2):
            I, J = family[a], family[b]
            if commuting_subsets(system, I, J):
                self.relations.append((I, J, None))
            if I < J:
                J2 = conjugate_subset(system, J, I)
                J2 = family[pos[J2]] if J2 in pos else J2
                self.relations.append((I, J, J2))
                if pos.get(J2, -1) > a:
                    self.orbits[b].append((a, pos[J2]))
        zeros = {(I, J) for I, J, _ in self.relations}
        self.pattern = [[int(I != J and (I, J) not in zeros and (J, I) not in zeros)
                         for J in family] for I in family]


def presentation(system: CoxeterSystem, family: Optional[Iterable] = None) -> Presentation:
    """The `Presentation` over a family (default F(S)), built once for each;
    InputError naming the first member that is not a set of generator indices."""
    if family is None:
        family = connected_subsets(system)
    else:
        family = tuple(family)
        for I in family:
            if not isinstance(I, frozenset) or not all(
                    type(i) is int and 0 <= i < system.rank for i in I):
                raise InputError(f"not a set of generator indices of {system!r}: {I!r}")
        family = tuple(sorted(family, key=_subset_key))
    if ("presentation", family) not in system._cache:
        system._cache["presentation", family] = Presentation(system, family)
    return system._cache["presentation", family]


# the largest |W| listed element by element: E6 (51,840) passes, E7 does not
_MAX_ORDER = 10**5


def enumerate_group(system: CoxeterSystem, max_length: Optional[int] = None) -> list[GroupElement]:
    """All elements of the (finite) group W, in the BFS order of its `GroupTable`.

    With max_length set, W is exhausted within that radius iff it is finite
    and its longest element is no longer; else InfiniteGroupError, decided
    before the size and the walk.
    """
    if max_length is not None:
        full = range(system.rank)
        if not is_finite_parabolic(system, full) or longest_element(system, full).length > max_length:
            raise InfiniteGroupError(f"group not exhausted within length {max_length}")
    return list(system.group_table().elements)


class GroupTable:
    """Index tables for a finite Coxeter group.

    Infinite W, and W of more than `_MAX_ORDER` elements, are refused before
    the walk.  Elements are indexed in the order of one BFS over right
    multiplication, generators in index order, deduplicated by key.  The
    first visit of an element happens at its length, so stored words are
    reduced.  |W| is known before the walk, so `gen_right` (gen_right[s][i]
    the index of w_i s) is allocated in full and filled in place: each
    ascent w < ws is one product, which also fills the descent (ws)s = w,
    so every entry is set once the walk ends.  Left multiplication by a
    generator is filled from it in BFS order, one lookup per entry.
    Products and conjugations cost one lookup per letter.
    """

    def __init__(self, system: CoxeterSystem):
        n = system.rank
        comps = _diagram_components(system, frozenset(range(n)))
        order = math.prod(_finite_component(system, comp) for comp in comps)
        if not order:
            raise InfiniteGroupError(f"infinite group: {system.format_subset(range(n))}")
        if order > _MAX_ORDER:
            raise CactusError(f"group too large: |W| = {order} exceeds the limit of {_MAX_ORDER}")
        self.system = system
        roots = system.root_table()
        negative = roots.negative
        identity = GroupElement.identity(system)
        self.elements = elements = [identity]
        self.index = index = {identity.key: 0}
        self.gen_right = right = [[0] * order for _ in range(n)]
        for i, el in enumerate(elements):  # a BFS queue: grows while walked
            for s, row in enumerate(right):
                if negative[el.key[s]]:
                    continue
                key = roots.right_mul(el.key, s)
                j = index.get(key)
                if j is None:
                    j = index[key] = len(elements)
                    elements.append(GroupElement(system, key, el.word + (s,)))
                row[i] = j
                row[j] = i
        self.simple_index = [right[s][0] for s in range(n)]
        # w_i = w_p t with t the last letter of w_i and p < i in BFS order,
        # so s w_i = (s w_p) t is one lookup in a row already filled
        steps = [(right[el.word[-1]], right[el.word[-1]][i])
                 for i, el in enumerate(elements) if i]
        self.gen_left = []
        for first in self.simple_index:
            row = [first]
            for rt, p in steps:
                row.append(rt[row[p]])
            self.gen_left.append(row)

    def __len__(self):
        return len(self.elements)

    def product(self, i: int, j: int) -> int:
        out = i
        for letter in self.elements[j].word:
            out = self.gen_right[letter][out]
        return out

    def conjugate_by_gen(self, s: int, x: int) -> int:
        return self.gen_left[s][self.gen_right[s][x]]

    def element_index(self, element: GroupElement) -> int:
        # a key of another system can name an element here: check the system
        i = self.index.get(element.key) if element.system == self.system else None
        if i is None:
            raise InputError("element does not belong to this group")
        return i

    def subgroup(self, gens: Iterable[int]) -> frozenset[int]:
        """Closure of simple generators (generator indices) inside the group."""
        gens = sorted(_checked_subset(self.system, gens))
        queue, seen = [0], {0}
        for i in queue:  # a BFS queue: grows while walked
            for s in gens:
                j = self.gen_right[s][i]
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return frozenset(seen)


# -- named systems -------------------------------------------------------------


def _named_bonds(family: str, n: int) -> dict[tuple[int, int], int]:
    """The bonds other than 2 of a named diagram as {(i, j): m}, after the
    size check: a path of 3s, where B's last bond and F4's middle one are 4
    and H's first is 5, D's last node hangs off node n - 3 and E's off node
    2, and D2 has no bond."""
    allowed, error = {
        "A": (n >= 1, "A<n> needs n >= 1"),
        "B": (n >= 2, "B<n> needs n >= 2"),
        "D": (n >= 2, "D<n> needs n >= 2"),
        "E": (n in (6, 7, 8), "E<n> needs n in {6, 7, 8}"),
        "F": (n == 4, "only F4 exists"),
        "H": (n in (3, 4), "H<n> needs n in {3, 4}"),
    }[family]
    if not allowed:
        raise InputError(error)
    if family == "D" and n == 2:
        return {}
    bonds = {(i, i + 1): 3 for i in range(n - 1)}
    if family == "B":
        bonds[n - 2, n - 1] = 4
    elif family == "F":
        bonds[1, 2] = 4
    elif family == "H":
        bonds[0, 1] = 5
    elif family in "DE":
        del bonds[n - 2, n - 1]
        bonds[n - 3 if family == "D" else 2, n - 1] = 3
    return bonds


_NAME_RE = re.compile(r"^([ABDEFH])(\d+)$|^I2\((\d+)\)$")


def _system_from_name(name: str) -> CoxeterSystem:
    factors = [f.strip() for f in name.strip().split("*")]
    labels: list[str] = []
    bonds: dict[tuple[int, int], int] = {}
    for k, f in enumerate(factors):
        match = _NAME_RE.match(f)
        if not match:
            raise InputError(f"unknown system name {f!r}")
        if match.group(3) is not None:
            m = int(match.group(3))
            if m < 2:
                raise InputError("I2(m) needs m >= 2")
            r, names, factor = 2, ["a", "b"], {(0, 1): m}
        else:
            r = int(match.group(2))
            factor = _named_bonds(match.group(1), r)
            names = [f"s{i + 1}" for i in range(r)]
        if len(factors) > 1:
            prefix = chr(ord("a") + k)
            names = [prefix] if r == 1 else [f"{prefix}{i + 1}" for i in range(r)]
        offset = len(labels)
        bonds.update({(i + offset, j + offset): m for (i, j), m in factor.items()})
        labels += names
    n = len(labels)
    return CoxeterSystem(labels, [[1 if i == j else bonds.get((min(i, j), max(i, j)), 2)
                                   for j in range(n)] for i in range(n)])
