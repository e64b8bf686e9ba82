"""Seeded inputs for the gencactus benchmark.

Nothing here imports gencactus.  The Coxeter matrices, F(S), the opposition
involution of each letter and the cactus relation moves are computed from the
bond data alone, so every `equal` pair is equal or unequal by construction and
every pure-by-construction word is known to be pure without asking the
program under test.

A workload is a list of decks.  Every deck of a workload has the same
composition (the same (kind, system, length) cells), and only the random
content differs, so a run that measures whole decks measures a fixed mix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re

WORKLOADS = ("words", "reps", "cli")

# -- Coxeter data, following the naming and labelling of gencactus ------------


def _chain(n, bonds):
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for (i, j), m in bonds.items():
        mat[i][j] = mat[j][i] = m
    return mat


def _factor_matrix(name):
    m = re.fullmatch(r"I2\((\d+)\)", name)
    if m:
        return [[1, int(m.group(1))], [int(m.group(1)), 1]]
    family, n = name[0], int(name[1:])
    if family == "A":
        return _chain(n, {(i, i + 1): 3 for i in range(n - 1)})
    if family == "B":
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 2, n - 1)] = 4
        return _chain(n, bonds)
    if family == "D":
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(n - 3, n - 1)] = 3
        return _chain(n, bonds)
    if family == "H":
        bonds = {(0, 1): 5}
        bonds.update({(i, i + 1): 3 for i in range(1, n - 1)})
        return _chain(n, bonds)
    raise ValueError(f"no benchmark data for system {name!r}")


def system_data(name):
    """(labels, Coxeter matrix) of a named system, e.g. "B3" or "A1*A1"."""
    factors = name.split("*")
    mats = [_factor_matrix(f) for f in factors]
    total = sum(len(m) for m in mats)
    big = [[2] * total for _ in range(total)]
    labels = []
    offset = 0
    for k, mat in enumerate(mats):
        r = len(mat)
        for i in range(r):
            for j in range(r):
                big[offset + i][offset + j] = mat[i][j]
        if len(mats) == 1:
            labels += ["a", "b"] if factors[0].startswith("I2") else [f"s{i + 1}" for i in range(r)]
        else:
            prefix = chr(ord("a") + k)
            labels += [prefix] if r == 1 else [f"{prefix}{i + 1}" for i in range(r)]
        offset += r
    return labels, big


def _edge(matrix, i, j):
    return matrix[i][j] >= 3 or matrix[i][j] == 0


def _connected(matrix, subset):
    subset = set(subset)
    seen = {min(subset)}
    frontier = [min(subset)]
    while frontier:
        v = frontier.pop()
        for u in subset - seen:
            if _edge(matrix, u, v):
                seen.add(u)
                frontier.append(u)
    return seen == subset


def fset(matrix):
    """F(S) of a finite system: the connected subsets, by size then index."""
    n = len(matrix)
    return [
        frozenset(c)
        for size in range(1, n + 1)
        for c in itertools.combinations(range(n), size)
        if _connected(matrix, c)
    ]


def opposition(matrix, subset):
    """The permutation s -> w_J s w_J of a connected finite-type subset J.

    -w_J is the identity on roots except for types A_n (n >= 2), D_n with n
    odd, E6 and I2(m) with m odd, where it is the diagram flip.
    """
    J = sorted(subset)
    ident = {s: s for s in J}
    if len(J) == 1:
        return ident
    bonds = {(a, b): matrix[a][b] for a, b in itertools.combinations(J, 2) if matrix[a][b] != 2}
    if any(m != 3 for m in bonds.values()):
        (a, b), m = next(iter(bonds.items()))
        if len(J) == 2 and m % 2:
            return {a: b, b: a}
        return ident  # B_n, F4, H3, H4 and I2(even) have central w_J
    nbrs = {s: [t for t in J if t != s and (min(s, t), max(s, t)) in bonds] for s in J}
    branch = [s for s in J if len(nbrs[s]) == 3]
    if not branch:
        end = next(s for s in J if len(nbrs[s]) == 1)
        path = [end]
        while len(path) < len(J):
            path.append(next(t for t in nbrs[path[-1]] if t not in path))
        return dict(zip(path, reversed(path)))
    arms = []
    for start in nbrs[branch[0]]:
        arm, prev = [start], branch[0]
        while len(nbrs[arm[-1]]) == 2:
            nxt = next(t for t in nbrs[arm[-1]] if t != prev)
            prev = arm[-1]
            arm.append(nxt)
        arms.append(arm)
    short = [a for a in arms if len(a) == 1]
    if len(short) >= 2 and len(J) % 2 == 0:
        return ident  # D_n, n even
    raise ValueError("opposition involution not needed by this benchmark")


class Alphabet:
    """F(S) of one system plus what the relation moves need."""

    def __init__(self, name, labels=None, matrix=None):
        self.name = name
        if matrix is None:
            labels, matrix = system_data(name)
        self.labels, self.matrix = list(labels), matrix
        self.letters = fset(self.matrix)
        self._opp = {J: opposition(self.matrix, J) for J in self.letters}

    def conj(self, outer, inner):
        """w_J(I) for I inside J."""
        opp = self._opp[outer]
        return frozenset(opp[s] for s in inner)

    def commute(self, a, b):
        return not (a & b) and all(self.matrix[s][t] == 2 for s in a for t in b)

    def fmt(self, subset):
        return "{" + ",".join(self.labels[i] for i in sorted(subset)) + "}"

    def text(self, word):
        return " ".join("g" + self.fmt(l) for l in word)

    def random_word(self, rng, length):
        """A random word in which every letter of F(S) occurs equally often,
        up to one.  The cost of a query depends on which letters a word
        holds; fixing the composition leaves only the order to chance, so
        runs on different seeds measure the same amount of work."""
        k = len(self.letters)
        word = self.letters * (length // k) + rng.sample(self.letters, length % k)
        rng.shuffle(word)
        return word

    def scramble(self, rng, word, moves, inserts):
        """A word equal to `word` in the cactus group.

        Inserts `inserts` squares g_I g_I, then tries `moves` random defining
        relations at random positions, in both directions:
        g_I g_J = g_J g_{w_J(I)} for I inside J, and g_I g_J = g_J g_I for
        commuting I, J.
        """
        w = list(word)
        for _ in range(inserts):
            letter = rng.choice(self.letters)
            p = rng.randint(0, len(w))
            w[p:p] = [letter, letter]
        for _ in range(moves):
            if len(w) < 2:
                break
            p = rng.randrange(len(w) - 1)
            a, b = w[p], w[p + 1]
            if a == b:
                continue
            if a < b:
                w[p:p + 2] = [b, self.conj(b, a)]
            elif b < a:
                w[p:p + 2] = [self.conj(a, b), a]
            elif self.commute(a, b):
                w[p:p + 2] = [b, a]
        return w


def relation_count(alpha):
    """How many relations check_relations verifies for generator images over
    F(S): one involution each, one per commuting pair, one per nested pair."""
    letters = sorted(alpha.letters, key=lambda I: (len(I), sorted(I)))
    count = len(letters)
    for a, b in itertools.combinations(range(len(letters)), 2):
        I, J = letters[a], letters[b]
        count += alpha.commute(I, J)
    for I in letters:
        for J in letters:
            count += I < J
    return count


# -- decks ---------------------------------------------------------------------

WORDS_SYSTEMS = ("A4", "D4", "B3", "H3")
WORDS_LENGTHS = (10, 30, 100, 300)
# Costs at the seed on a 2-core box fix which cells a deck holds, so that a
# run of --seconds 20 holds at least 100 queries: evaluation to W multiplies
# cyclotomic matrices (an H3 word takes 1 s at L = 100 and 3.5 s at L = 300),
# so evaluations stop at L = 100 on B3 and L = 30 on H3; `equal` on A4/D4 at
# L = 300 takes 1.2-2.3 s and varies most with content, so L = 300 pairs run
# on B3/H3.
CYCLOTOMIC = ("B3", "H3")

REPS_SYSTEMS = ("A3", "B3", "H3", "A4")
# Pi on H3/A4 costs 1.6-6 s per query at the seed (check_relations alone
# 4.4/5.4 s), which leaves no room for 100 queries in a run; Pi work runs on
# A3/B3, rho work on all four systems.
PI_SYSTEMS = ("A3", "B3")

_LARGE_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


def _fresh_t(rng):
    # A form degenerates at finitely many t, the roots of determinants with
    # small integer coefficients; a rational root's denominator divides the
    # leading coefficient, so a prime denominator above 1000 avoids them on
    # the systems used here.
    q = rng.choice(_LARGE_PRIMES)
    return f"{rng.randint(q + 1, 9 * q)}/{q}"


def _enc(word):
    return [sorted(l) for l in word]


def _words_deck(rng, deck, small):
    lengths = WORDS_LENGTHS[:2] if small else WORDS_LENGTHS
    systems = WORDS_SYSTEMS[::2] if small else WORDS_SYSTEMS
    out = []
    for name in systems:
        alpha = Alphabet(name)
        for li, L in enumerate(lengths):
            u = alpha.random_word(rng, L)
            out.append({"kind": "embed", "system": name, "L": L, "word": _enc(u)})
            same = (li + deck) % 2 == 0
            if L < 300 or name in CYCLOTOMIC:
                base = u if same else u + [rng.choice(alpha.letters)]
                v = alpha.scramble(rng, base, moves=2 * L, inserts=max(1, L // 10))
                out.append({"kind": "equal", "system": name, "L": L,
                            "u": _enc(u), "v": _enc(v), "expect": same})
            if L == 300 and name in CYCLOTOMIC or L == 100 and name == "H3":
                continue
            w = alpha.random_word(rng, L)
            out.append({"kind": "eval", "system": name, "L": L, "word": _enc(w)})
            if same:
                half = alpha.random_word(rng, L // 2)
                w = half + alpha.scramble(rng, half[::-1], moves=L, inserts=0)
            else:
                w = alpha.random_word(rng, L)
            out.append({"kind": "pure", "system": name, "L": L, "word": _enc(w),
                        "expect": True if same else None})
    return out


def _reps_deck(rng, deck, small):
    systems = PI_SYSTEMS if small else REPS_SYSTEMS
    out = []
    for name in systems:
        alpha = Alphabet(name)
        # The repeats place the median and the p90 inside runs of
        # similar-cost queries (A3 products; A4 rho checks and B3 Pi
        # quotients) rather than in a gap between two costs.
        kinds = ["rho_check", "stable_rho", "quotient_rho"]
        if name == "A4":
            kinds.append("rho_check")
        if name in PI_SYSTEMS:
            kinds += ["Pi_check", "stable_Pi", "quotient_Pi"]
            kinds += ["Pi_of"] * (4 if name == "A3" else 2)
        if name == "B3":
            kinds.append("quotient_Pi")
        for kind in kinds:
            q = {"kind": kind, "system": name, "t": _fresh_t(rng)}
            if kind == "Pi_of":
                q["word"] = _enc(alpha.random_word(rng, 8))
            out.append(q)
    return out


_B3 = ((1, 3, 2), (3, 1, 4), (2, 4, 1))


def system_file(rng):
    """The JSON system of one seed: B3 with its nodes in a seeded order under
    seeded labels.  All decks of a run use it, so it is one system for every
    seed: a seeded choice among systems of different size would move every
    command that reads the file, and the whole run with them."""
    labels = rng.sample(["p", "q", "r", "u", "v", "x", "y", "z"], 3)
    order = rng.sample(range(3), 3)
    return {"labels": labels, "matrix": [[_B3[i][j] for j in order] for i in order]}


def _cli_deck(rng, deck, small, file_path, file_alpha):
    out = []

    def add(argv, **extra):
        out.append(dict({"kind": "cli", "argv": argv}, **extra))

    def alphabet(name):
        return file_alpha if name == file_path else Alphabet(name)

    # README examples, verbatim, with the outputs the README prints
    add(["--system", "A2", "fset"], readme="{s1}\n{s2}\n{s1,s2}")
    add(["--system", "B2", "longest", "{s1,s2}", "--format", "json"],
        readme_json={"word": "s1 s2 s1 s2", "length": 4})
    add(["--system", "A2", "eval", "g{s1} g{s1,s2}"], readme="s2 s1")
    add(["--system", "A2", "pure", "g{s2} g{s1,s2} g{s2} g{s1,s2} g{s2} g{s1,s2}"], readme="true")
    add(["--system", "A2", "equal", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}"], readme="true")
    add(["--system", "A2", "normalize", "g{s2} g{s1,s2}", "--format", "json"],
        readme_json={"racg": [2, 3], "aut": [2, 0, 1, 3]})
    add(["--system", "A3", "dict-a", "s_{2,4}"], readme="g{s2,s3}")
    if not small:
        add(["--system", "A2", "sset"])
        add(["--system", "A2", "diagram"])
        add(["--system", "A2", "rep", "rho", "--t", "5/2"])
        add(["--system", "I2(5)", "rep", "pi", "--t", "1"])
        add(["--system", "B3", "check-relations", "Pi", "--t", "2"])
        add(["--system", "A2", "stable-lines", "Pi"])
        add(["--system", "A2", "quotient", "Pi", "--restrict", "1,0,0,0", "--restrict", "0,1,0,0",
             "--restrict", "0,0,1,0", "--subspace", "1,-1,1", "--keep", "0,2"])

    # expected domain errors
    add(["--system", "A2", "rep", "rho", "--t", "1"], exit=1)
    add(["--system", rng.choice(["A3", "B3"]), "--max-len", str(rng.randint(1, 3)), "sset"], exit=1)

    # seeded queries over the system ladder; word lengths are fixed (at most
    # 30 letters) so that only the letters' order depends on the seed
    dihedral = f"I2({rng.choice([5, 7, 8, 9])})"
    for name in (["A3", dihedral] if small else ["A3", "B3", "H3", "A4", "D4", dihedral, "B4"]):
        alpha = alphabet(name)
        add(["--system", name, "eval", alpha.text(alpha.random_word(rng, 20))])
    equal_systems = ["A3", file_path] if small else ["A4", "D4", "H3", "B3", "A1*A1", file_path]
    for i, name in enumerate(equal_systems):
        alpha = alphabet(name)
        L = 10
        u = alpha.random_word(rng, L)
        same = (i + deck) % 2 == 0
        base = u if same else u + [rng.choice(alpha.letters)]
        v = alpha.scramble(rng, base, moves=2 * L, inserts=1)
        add(["--system", name, "equal", alpha.text(u), alpha.text(v)], expect=same)
    for i, name in enumerate(["A2"] if small else ["A2", "B3", "H3"]):
        alpha = alphabet(name)
        if (i + deck) % 2 == 0:
            half = alpha.random_word(rng, 6)
            word = half + alpha.scramble(rng, half[::-1], moves=10, inserts=0)
            add(["--system", name, "pure", alpha.text(word)], expect=True)
        else:
            add(["--system", name, "pure", alpha.text(alpha.random_word(rng, 12))])
    if small:
        return out
    for name in ("A3", "D4", file_path):
        alpha = alphabet(name)
        word = alpha.random_word(rng, 12)
        add(["--system", name, "normalize", alpha.text(word), "--format", "json"])
    h3 = Alphabet("H3")
    add(["--system", "B4", "longest", "{s1,s2,s3,s4}", "--format", "json"])
    add(["--system", "H3", "longest", h3.fmt(rng.choice(h3.letters))])
    add(["--system", file_path, "fset"])
    # H3/D4 sset and B3 Pi widen the run of 0.5-0.8 s commands that holds
    # the p90, so it does not sit at the edge of the heaviest few
    for name in ("A1*A1", dihedral, "H3", "D4"):
        add(["--system", name, "sset", "--format", "json"])
    add(["--system", "A3", "rep", "rho", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "A3", "rep", "Pi", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "B3", "rep", "Pi", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", dihedral, "rep", "pi", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "A4", "check-relations", "rho", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "A3", "check-relations", "Pi", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "H3", "stable-lines", "rho", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", "B3", "stable-lines", "Pi", "--t", _fresh_t(rng), "--format", "json"])
    add(["--system", dihedral, "diagram"])
    p = rng.randint(1, 4)
    add(["--system", "A4", "dict-a", f"s_{{{p},{rng.randint(p + 1, 5)}}}", "--format", "json"])
    a4 = Alphabet("A4")
    add(["--system", "A4", "dict-a", "g" + a4.fmt(rng.choice(a4.letters)), "--format", "json"])
    return out


def generate(workload, seed, decks, small=False):
    """The inputs of one run: `decks` decks plus any files they name.

    Returns {"decks": [[query, ...], ...], "files": {relative path: JSON}}.
    """
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    out = []
    if workload == "cli":
        path = f".bench_out/system_{seed}.json"
        files[path] = system_file(rng)
        alpha = Alphabet(path, files[path]["labels"], files[path]["matrix"])
    for deck in range(decks):
        if workload == "words":
            queries = _words_deck(rng, deck, small)
        elif workload == "reps":
            queries = _reps_deck(rng, deck, small)
        elif workload == "cli":
            queries = _cli_deck(rng, deck, small, path, alpha)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        # the order inside a deck is seeded too, so cheap and costly queries
        # interleave differently on each seed
        rng.shuffle(queries)
        out.append(queries)
    return {"decks": out, "files": files}


def digest(inputs):
    """sha256 of the canonical JSON of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
