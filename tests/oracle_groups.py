"""Hand-rolled group models used as oracles.

Nothing in this module imports the package under test.  Symmetric groups
act on index tuples, dihedral groups on polygon vertices, hyperoctahedral
groups on signed tuples; a generic BFS gives orders, word lengths, and the
longest element straight from the definitions.  The matrix kernel
computes in the reflection representation itself, from generator matrices
and a sign function the caller passes in.  The last two oracles are the
arithmetic the library used before it read finiteness off the classification
and root signs off the simple-reflection rule: Sylvester's criterion on the
Gram matrix, and a root table that reflects every root in every root exactly
and certifies the sign of each new root, both from a Gram matrix and a sign
function the caller passes in.
"""

import itertools


def compose(p, q):
    # p after q, permutations as image tuples
    return tuple(p[i] for i in q)


def symmetric_gens(n):
    """Adjacent transpositions of S_n, in chain order s1..s(n-1)."""
    gens = []
    for i in range(n - 1):
        img = list(range(n))
        img[i], img[i + 1] = img[i + 1], img[i]
        gens.append(tuple(img))
    return gens


def dihedral_gens(m):
    """Two reflections of the m-gon whose product rotates one step."""
    a = tuple((-i) % m for i in range(m))
    b = tuple((1 - i) % m for i in range(m))
    return [a, b]


def signed_identity(n):
    return tuple(range(1, n + 1))


def signed_apply(w, i):
    # w is the image tuple on 1..n, extended to negatives by w(-i) = -w(i)
    return w[i - 1] if i > 0 else -w[-i - 1]


def signed_compose(p, q):
    return tuple(signed_apply(p, signed_apply(q, i)) for i in range(1, len(p) + 1))


def signed_gens(n):
    """Hyperoctahedral generators: n-1 adjacent swaps, then the sign flip
    on the last coordinate (so the 4-bond sits at the chain's end)."""
    gens = []
    for i in range(n - 1):
        img = list(range(1, n + 1))
        img[i], img[i + 1] = img[i + 1], img[i]
        gens.append(tuple(img))
    last = list(range(1, n + 1))
    last[-1] = -n
    gens.append(tuple(last))
    return gens


def closure(gens, mul, identity):
    """BFS over right multiplication; element -> distance from identity."""
    dist = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                prod = mul(el, g)
                if prod not in dist:
                    dist[prod] = dist[el] + 1
                    nxt.append(prod)
        frontier = nxt
    return dist


def word_image(gens, mul, identity, word):
    out = identity
    for s in word:
        out = mul(out, gens[s])
    return out


def inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def model_for(name):
    """(gens, mul, identity) for the systems the tests cross-check."""
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:]) + 1
        return symmetric_gens(n), compose, tuple(range(n))
    if name.startswith("B") and name[1:].isdigit():
        n = int(name[1:])
        return signed_gens(n), signed_compose, signed_identity(n)
    if name.startswith("I2(") and name.endswith(")"):
        m = int(name[3:-1])
        return dihedral_gens(m), compose, tuple(range(m))
    raise KeyError(name)


# classical Coxeter group orders, for systems without a cheap model here
KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48,
    "D4": 192,
    "H3": 120,
    "F4": 1152,
    "A1*A1": 4,
}
for _m in range(2, 13):
    KNOWN_ORDERS[f"I2({_m})"] = 2 * _m


def all_subsets(rank):
    items = list(range(rank))
    for r in range(1, rank + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


# -- matrix kernel: elements as exact reflection-representation matrices ------


def mat_mul(a, b):
    # reflection-representation matrices have many zero entries; skipping
    # zero factors keeps exact cyclotomic products affordable
    zero = a[0][0] * 0
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x != 0 and y != 0), zero) for col in bt)
        for row in a
    )


def is_identity_matrix(a):
    n = len(a)
    return all((a[i][j] == 1 if i == j else a[i][j] == 0) for i in range(n) for j in range(n))


def identity_like(gens):
    one, zero = gens[0][0][0] * 0 + 1, gens[0][0][0] * 0
    n = len(gens[0])
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def column_nonpositive(matrix, s, sign):
    """Whether w(alpha_s), column s of the matrix of w, is a negative root."""
    return all(sign(row[s]) <= 0 for row in matrix)


def matrix_of_word(gens, word):
    mat = identity_like(gens)
    for s in word:
        mat = mat_mul(mat, gens[s])
    return mat


def matrix_reduced_word(gens, matrix, sign):
    """Greedy right-descent extraction: the last letter is always the
    smallest s with w(alpha_s) < 0."""
    rev = []
    while not is_identity_matrix(matrix):
        for s in range(len(gens)):
            if column_nonpositive(matrix, s, sign):
                rev.append(s)
                matrix = mat_mul(matrix, gens[s])
                break
        else:
            raise ArithmeticError("matrix has no descent; not a group element")
    return tuple(reversed(rev))


def matrix_bfs_words(gens):
    """Words of a finite group in BFS order, generators in index order,
    deduplicated by matrix."""
    ident = identity_like(gens)
    words, seen, frontier = [()], {ident}, [((), ident)]
    while frontier:
        nxt = []
        for word, mat in frontier:
            for s, g in enumerate(gens):
                prod = mat_mul(mat, g)
                if prod not in seen:
                    seen.add(prod)
                    words.append(word + (s,))
                    nxt.append((word + (s,), prod))
        frontier = nxt
    return words


def matrix_longest(gens, subset, sign):
    """Greedy ascent in the parabolic on the subset: (word, matrix)."""
    word, mat = [], identity_like(gens)
    while True:
        for s in sorted(subset):
            if not column_nonpositive(mat, s, sign):
                word.append(s)
                mat = mat_mul(mat, gens[s])
                break
        else:
            return tuple(word), mat


def matrix_conjugate_subset(gens, outer, inner, sign):
    """{v : w s w = s_v for s in inner}, w the longest element of the outer subset."""
    _, w = matrix_longest(gens, outer, sign)
    out = set()
    for s in inner:
        conj = mat_mul(mat_mul(w, gens[s]), w)
        out.add(next(v for v, g in enumerate(gens) if g == conj))
    return frozenset(out)


# -- finiteness by the bilinear form ------------------------------------------


def determinant(rows):
    """Exact determinant by elimination on nonzero pivots."""
    a = [list(row) for row in rows]
    n = len(a)
    one = a[0][0] * 0 + 1
    det = one
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return one * 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det = det * a[k][k]
        inv = one / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f != 0:
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return det


def sylvester_finite(matrix, gram, subset, sign):
    """Whether W_I is finite: no infinite bond inside I, and every leading
    principal minor of the Gram matrix at t = 1 restricted to I is positive."""
    idx = sorted(subset)
    if any(matrix[i][j] == 0 for i, j in itertools.combinations(idx, 2)):
        return False
    sub = [[gram[a][b] for b in idx] for a in idx]
    return all(
        sign(determinant([row[:k] for row in sub[:k]])) > 0 for k in range(1, len(idx) + 1)
    )


# -- root table with exact reflections and certified signs ------------------


class RootTable:
    """Roots interned to ids in order of discovery (simple roots first; for
    finite W closed by BFS, generators in index order).  The reflection of a
    root rho in a root beta is always rho - 2 B(rho, beta) beta, computed once,
    and the sign of every new root is certified coordinate by coordinate."""

    def __init__(self, gram, finite, sign):
        n = len(gram)
        self._twice_gram = [[2 * g for g in row] for row in gram]
        self._sign = sign
        self.vectors, self.negative, self.ids, self._rows = [], [], {}, []
        one = gram[0][0]
        zero = one - one
        for s in range(n):
            self._intern(tuple(one if i == s else zero for i in range(n)))
        self.identity = tuple(range(n))
        if finite:
            for r, _ in enumerate(self.vectors):
                for s in range(n):
                    self.reflect(s, r)

    def _intern(self, vector):
        if vector not in self.ids:
            self.ids[vector] = len(self.vectors)
            self.vectors.append(vector)
            self.negative.append(any(self._sign(x) < 0 for x in vector))
            self._rows.append({})
        return self.ids[vector]

    def reflect(self, b, r, c=None):
        """s_beta(rho) for root ids b, r; c = 2 B(rho, beta), computed from the
        Gram matrix when beta is the simple root alpha_b and c is left out."""
        row = self._rows[b]
        if r not in row:
            # zero terms are skipped, so scalars of two components, which may
            # have different conductors, never meet in a sum
            rho, beta = self.vectors[r], self.vectors[b]
            if c is None:
                c = sum(g * x for g, x in zip(self._twice_gram[b], rho) if g != 0 and x != 0)
            row[r] = r if c == 0 else self._intern(
                tuple(x - c * y if y != 0 else x for x, y in zip(rho, beta)))
        return row[r]

    def right_mul(self, key, s):
        # 2 B(w(alpha_j), w(alpha_s)) = 2 B(alpha_j, alpha_s)
        c = self._twice_gram[s]
        return tuple(self.reflect(key[s], r, c[j]) for j, r in enumerate(key))

    def apply(self, key, word):
        for s in word:
            key = self.right_mul(key, s)
        return key


def root_group_tables(roots):
    """Keys of a finite W in BFS order (right multiplication, generators in
    index order, ascents only) and the tables of w -> ws and w -> sw."""
    n = len(roots.identity)
    keys, index, frontier = [roots.identity], {roots.identity: 0}, [roots.identity]
    while frontier:
        nxt = []
        for key in frontier:
            for s in range(n):
                if not roots.negative[key[s]]:
                    new = roots.right_mul(key, s)
                    if new not in index:
                        index[new] = len(keys)
                        keys.append(new)
                        nxt.append(new)
        frontier = nxt
    right = [[index[roots.right_mul(k, s)] for k in keys] for s in range(n)]
    left = [[index[tuple(roots.reflect(s, r) for r in k)] for k in keys] for s in range(n)]
    return keys, right, left


def left_by_simple_rows(keys, index, rows):
    """w -> sw as the group table first built it: every key mapped through
    the full row of the simple root alpha_s (root id -> id of its image
    under s), the new key looked up in index."""
    return [[index[tuple(row[r] for r in key)] for key in keys] for row in rows]
