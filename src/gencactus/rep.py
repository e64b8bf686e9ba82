"""Exact linear representations on the F(S)-indexed and S-indexed spaces.

A query reads an image as the column of each shared unit row of
`identity_matrix` and the nonzeros of its general rows, as ints over one
denominator d for rational images; relation checks and `Pi_of`, of a word
through `ctx.embed`, multiply two readings in one `_compose`.  rho and Pi
are built as readings, which their `_Rep` keeps, and `_matrix` makes every
matrix returned from one; a hand-built or edited rep is read row by row
(`_images`).  What does not depend on t comes from `coxeter.presentation`.
rho_I is the closed-form reflection 1 - 2 C G^-1 (BC)^T in the span C of
R e_I + E_I, one fraction-free elimination of int rows per generator, once
a forward elimination of the int rows q B (t = p/q) has shown the form
nondegenerate; a Pi image is unit rows plus one row of a reflection of the
big right-angled form, after a permutation.  Stable lines split the space
generator by generator; a unit row is an equation v_j = s v_i, which gives
the first generator's eigenspaces, and a later one splits each piece U by
the kernel of (M - sI)U, after the rows with one nonzero have fixed their
unknowns at 0.  Restriction and quotient read k pivot coordinates P of U:
O(nnz(M) k) per image tests M U in U and gives its coordinates, and the
quotient is M_KK - U_K U_P^-1 M_PK; that one elimination of U also says
whether U is independent and transverse to the kept axes.  Results share
the zero and the unit rows of `identity_matrix`.  Cyclotomic images take
the same steps on their entries (`linalg._integer_reduce`, `integer_kernel`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .cactus import CactusWord
from .coxeter import CoxeterSystem, exact_t, presentation
from .errors import DegenerateFormError, InputError, SubspaceError
from .linalg import (
    _IDENTITIES,
    _ONE,
    _ZERO,
    _integer_reduce,
    _integer_rows,
    _sparse_row,
    identity_matrix,
    integer_kernel,
    reduced_basis,
)

if TYPE_CHECKING:  # rho needs no embedding: racg is imported where Pi_of reads one
    from .racg import RacgContext, SemidirectElement


class _Rep(dict):
    """The matrices of readings over d; `reading` keeps d, the readings and
    the matrices they describe."""

    __slots__ = ("reading", "__weakref__")

    def __init__(self, d, images: dict):
        super().__init__((key, _matrix(image, d)) for key, image in images.items())
        self.reading = d, images, tuple(self.values())


def _matrix(image, d) -> tuple:
    """The matrix of a reading (units, general) over d, unit rows shared."""
    units, general = image
    ones = identity_matrix(len(units))
    rows = [None if u is None else ones[u] for u in units]
    for i, hits in general.items():
        value = {v: Fraction(v, d) for v in set(hits.values())}
        rows[i] = _sparse_row([(c, value[v]) for c, v in hits.items()], len(ones), _ZERO)
    return tuple(rows)


def _pi_image(ctx: RacgContext, k: Optional[int], perm: Sequence[int], two_t: Fraction) -> tuple:
    """The reading over the denominator d of 2t of sigma_k P_g: x -> x -
    2 B(x, e_k) e_k in the form on S after e_j -> e_{g(j)}, or P_g alone
    when k is None.  Row i != k is the unit row at g^-1(i); row k, e_k - 2
    (row k of the form) read through g, is -1 where g(c) = k, 2t where g(c)
    does not commute with k, else 0."""
    units = [None] * len(perm)
    for j, p in enumerate(perm):
        units[p] = j
    if k is None:
        return units, {}
    units[k], ck, d, off = None, ctx.commuting[k], two_t.denominator, two_t.numerator
    return units, {k: {c: -d if p == k else off
                       for c, p in enumerate(perm) if p == k or off and p not in ck}}


def Pi_rep(ctx: RacgContext, t) -> dict:
    """Letter images gamma_I -> pi(tau_{W_I}) pi'(g_I) on the S-indexed space."""
    t = exact_t(t)
    key = ("Pi", t)
    cached = ctx.caches.get(key)
    if cached is None:
        two_t = 2 * t
        cached = ctx.caches[key] = _Rep(two_t.denominator, {
            I: _pi_image(ctx, *x.racg_part, x.aut_part.perm, two_t) for I, x in ctx.letters.items()})
    return cached


def Pi_of(ctx: RacgContext, x: Union[CactusWord, SemidirectElement], t):
    """Matrix of a semidirect element, or of a cactus word's `ctx.embed`:
    `_compose` folds its reflections' readings, then its permutation's."""
    from .racg import SemidirectElement

    t = exact_t(t)
    if isinstance(x, CactusWord):
        x = ctx.embed(x)
    elif not isinstance(x, SemidirectElement):
        raise InputError(f"cannot represent object of type {type(x).__name__}")
    elif x.context is not ctx:
        raise InputError("element from a different context")
    n, two_t = len(ctx.conjugates), 2 * t
    d, images = two_t.denominator, {i: _pi_image(ctx, i, range(n), two_t) for i in set(x.racg_part)}
    images[None] = _pi_image(ctx, None, x.aut_part.perm, two_t)
    reading, scale = (list(range(n)), {}), 1
    for key in [*x.racg_part, None]:
        reading, scale = _compose(reading, scale, images[key], d), scale * d
    return _matrix(reading, scale)


def rho_rep(system: CoxeterSystem, t) -> dict:
    """All generator images I -> rho_I at parameter t: -1 on R e_I + E_I,
    with E_I spanned by the e_J - e_{w_I(J)} over proper F(S)-subsets J of
    I, and +1 on its B-orthocomplement, for the form B on R^F(S) (1 on the
    diagonal, 0 on containment or product pairs, -t elsewhere).  A
    degenerate form, on the whole space or on that span, is an error: the
    sum is not direct there."""
    t = exact_t(t)
    gram, pres = _nondegenerate_form(system, t), presentation(system)
    built = {I: _rho_assemble(system, I, t, gram, [(i, None), *pres.orbits[i]])
             for i, I in enumerate(pres.family)}
    d = lcm(*[abs(p) // gcd(p, *hits.values())
              for _, general in built.values() for p, hits in general.values()])
    return _Rep(d, {I: (units, {r: {c: v * d // p for c, v in hits.items()}
                                for r, (p, hits) in general.items()})
                    for I, (units, general) in built.items()})


def _nondegenerate_form(system, t):
    """q B as int rows, for the form B on R^F(S) at t = p/q: q on the
    diagonal, 0 on containment or product pairs, -p elsewhere.  B is
    nondegenerate when a forward elimination of a copy finds |F(S)|
    pivots."""
    p, q = t.numerator, t.denominator
    gram = [[q * (i == j) - p * x for j, x in enumerate(row)]
            for i, row in enumerate(presentation(system).pattern)]
    if len(_integer_reduce([list(row) for row in gram], len(gram), jordan=False)) < len(gram):
        raise DegenerateFormError(f"degenerate form at t = {t}: full space")
    return gram


def _rho_assemble(system, I, t, gram, cols):
    """rho_I as unit columns and general rows {r: (p, {column: nonzero})}
    over their own int p.  cols span R e_I + E_I: e_a for I at (a, None) and
    e_a - e_b for each w_I-orbit (a, b); their supports are disjoint."""
    n, k = len(gram), len(cols)
    # rho_I = 1 - C Y with G Y = 2 (BC)^T: -1 on span C, +1 on its
    # B-orthocomplement.  In ints gram is q B, so the rows [qG | 2q(BC)^T]
    # hold G = C^T B C (symmetric: its rows are its columns); one
    # fraction-free elimination leaves row c with a pivot p on column c and
    # p Y_c beside it, and row r of rho_I is (p e_r -+ p Y_c) / p
    bc = [gram[a] if b is None else [x - y for x, y in zip(gram[a], gram[b])] for a, b in cols]
    rows = [[v[a] if b is None else v[a] - v[b] for a, b in cols] + [2 * x for x in v] for v in bc]
    if len(_integer_reduce(rows, k)) < k:
        raise DegenerateFormError(
            f"degenerate form at t = {t}: span(e_I, E_I) for I = {system.format_subset(I)}"
        )
    units, general = list(range(n)), {}
    for c, ((a, b), row) in enumerate(zip(cols, rows)):
        p = row[c]
        for r, sign in ((a, -1), (b, 1)):
            if r is not None:
                hits = {j: v for j, y in enumerate(row[k:]) if (v := sign * y + p * (j == r))}
                units[r] = next(iter(hits)) if list(hits.values()) == [p] else None
                if units[r] is None:
                    general[r] = p, hits
    return units, general


class RelationReport:
    """How many relations `check_relations` checked, and the (kind, detail)
    pairs of those that fail."""

    def __init__(self, checked: int = 0, violations: Optional[list] = None):
        self.checked = checked
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.checked, self.violations) == (other.checked, other.violations)
        return NotImplemented

    def __repr__(self):
        return f"RelationReport(checked={self.checked!r}, violations={self.violations!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"all {self.checked} relations hold"
        head = f"{len(self.violations)} of {self.checked} relations fail:"
        lines = [f"  {kind}: {detail}" for kind, detail in self.violations]
        return "\n".join([head] + lines)


def check_relations(system: CoxeterSystem, rep: dict) -> RelationReport:
    """Verify the defining relations on generator images.

    (a) every image squares to the identity, (b) product pairs commute,
    (c) nested pairs satisfy M_I M_J = M_J M_{w_J(I)}, as the
    `presentation` over the keys of rep lists them.  Violations are
    reported, not raised.
    """
    report = RelationReport()
    if not rep:
        return report
    pres = presentation(system, rep)
    fmt = system.format_subset
    d, im = _images(rep)
    d = d or 1
    for I in pres.family:
        report.checked += 1
        if _compose(im[I], d, im[I], d) != (list(range(len(im[I][0]))), {}):
            report.violations.append(("involution", fmt(I)))
    for I, J, J2 in pres.relations:  # M_I M_J = M_J M_I, or M_J M_{w_J(I)}
        report.checked += 1
        if J2 is not None and J2 not in rep:
            report.violations.append(("missing-conjugate", f"w_{fmt(J)}({fmt(I)}) = {fmt(J2)}"))
        elif _compose(im[I], d, im[J], d) != _compose(im[J], d, im[I if J2 is None else J2], d):
            report.violations.append(("commute", f"{fmt(I)}, {fmt(J)}") if J2 is None
                                     else ("nested", f"{fmt(I)} inside {fmt(J)}"))
    return report


def _images(rep: dict):
    """(d, {key: (units, general)}): units[i] is the column of the 1 in a
    shared unit row i, else None, and general[i] the {column: nonzero} of
    d times row i.  Over Fractions d is the lcm of their denominators, which
    makes them ints; otherwise d is None and they are the entries.  A `_Rep`
    keeps its own while each key maps to the matrix it was built with.  The
    shared unit rows are those of the identity of the images' size that
    `_IDENTITIES` keeps: alive, so no other row holds their ids."""
    carried = getattr(rep, "reading", None)
    if carried and len(rep) == len(carried[2]) and all(
            k is a and m is b for k, a, m, b in zip(rep, carried[1], rep.values(), carried[2])):
        return carried[:2]
    images, n = {}, len(next(iter(rep.values()), ()))
    column = {id(row): j for j, row in enumerate(_IDENTITIES.get(n, ()))}
    for key, mat in rep.items():
        if len(mat) != n or any(len(row) != n for row in mat):
            raise InputError(f"image of {key!r} is not {n} rows of {n} entries")
        units = [column.get(id(row)) for row in mat]
        images[key] = units, {i: dict(_nonzeros(mat[i])) for i, u in enumerate(units) if u is None}
    xs = [x for _, general in images.values() for hits in general.values() for x in hits.values()]
    if not all(type(x) is Fraction for x in xs):
        return None, images
    d = lcm(*{x.denominator for x in xs})
    for _, general in images.values():
        for i, hits in general.items():
            general[i] = {c: x.numerator * (d // x.denominator) for c, x in hits.items()}
    return d, images


def _compose(a, sa, b, sb) -> tuple:
    """The reading of M_a M_b over sa sb from readings a over sa and b over
    sb: a unit row i -> j of a reads row j of b, and a general row adds v
    times row x of b, or sb v at k for a unit row x -> k of b.  A row whose
    one nonzero is sa sb is a unit row, so equal products read equal."""
    (units, general), (bunits, bgeneral) = a, b
    out_units, out_general = [], {}
    for i, j in enumerate(units):
        if j is not None:
            k = bunits[j]
            if k is not None:
                out_units.append(k)
                continue
            row = {c: sa * y for c, y in bgeneral[j].items()}
        else:
            acc = {}
            for x, v in general[i].items():
                u = bunits[x]
                for c, y in ((u, sb),) if u is not None else bgeneral[x].items():
                    acc[c] = acc.get(c, 0) + v * y
            row = {c: v for c, v in acc.items() if v != 0}
        if len(row) == 1 and next(iter(row.values())) == sa * sb:
            out_units.append(next(iter(row)))
        else:
            out_units.append(None)
            out_general[i] = row
    return out_units, out_general


def stable_lines(rep: dict) -> list:
    """Lines fixed by every generator, with the sign each generator acts by.

    Splits the space into simultaneous +1/-1 eigenspaces generator by
    generator, reading each image row by row.  A shared unit row i of
    `identity_matrix` with its 1 in column j says (Mv)_i = v_j, so an
    s-eigenvector has v_j = s v_i.  For the first generator these equations
    alone give one vector per component of the coordinates they join, and
    only the other rows are eliminated, over those vectors.  Each piece U
    is then split by the kernel of (M - sI)U, assembled row by row, once
    its one-entry rows have fixed their unknowns at 0.  Every
    simultaneous eigenvector spans such a line because the generators are
    involutions.  Returns (vector, {key: sign}) pairs: for each surviving
    sign pattern, the `reduced_basis` of its piece, which depends on the
    piece alone, with every entry of the type and conductor of the images.
    """
    keys = list(rep)
    first = rep[keys[0]] if keys else ()
    if not first:
        return []
    n, zero = len(first), first[0][0] * 0 + _ZERO
    d, images = _images(rep)
    work = zero if d is None else 0
    pieces = None
    for units, general in images.values():
        if pieces is None:
            splits = [(_unit_solutions(units, s, work), (), (s,)) for s in (1, -1)]
        else:
            splits = [(basis, signs, (1, -1)) for basis, signs in pieces]
        pieces = [
            (part, signs + (sign,))
            for basis, signs, wanted in splits
            for sign, part in _split_piece(basis, units, general, d or 1, wanted, work)
            if part
        ]
    out = []
    for basis, signs in pieces:
        for v in reduced_basis([_sparse_row(list(vec.items()), n, 0) for vec in basis]):
            if type(zero) is not Fraction:
                v = tuple(zero + x for x in v)
            out.append((v, dict(zip(keys, signs))))
    return out


def _unit_solutions(units: list, sign: int, zero) -> list:
    """A basis of the v with v_j = sign * v_i for every unit row i -> j, as
    {coordinate: value} dicts.

    The rows join the coordinates into components, and each component gives
    one vector: +-1 on its coordinates, by the parity of their distance from
    its first one.  At sign = -1 a component with an odd cycle or a fixed
    unit row (v_i = -v_i) gives none.
    """
    n = len(units)
    one = 1 if type(zero) is int else _ONE
    links = [[] for _ in units]
    for i, j in enumerate(units):
        if j is not None and j != i:
            links[i].append(j)
            links[j].append(i)
    parity = [None] * n
    basis = []
    for start in range(n):
        if parity[start] is not None:
            continue
        parity[start] = 0
        group = [start]
        alive = True
        for x in group:
            alive = alive and not (sign == -1 and units[x] == x)
            for y in links[x]:
                if parity[y] is None:
                    parity[y] = parity[x] ^ 1
                    group.append(y)
                elif sign == -1 and parity[y] == parity[x]:
                    alive = False
        if alive:
            basis.append({x: -one if sign == -1 and parity[x] else one for x in group})
    return basis


def _split_piece(basis: list, units: list, general: dict, d, signs, zero) -> list:
    """The s-eigenspace of an image M inside the span of basis for each s
    in signs, as (s, basis) pairs, from the kernel of (M - sI)U; a basis
    vector is a {coordinate: nonzero} dict.  units[i] is the column of the
    1 in unit row i of M, or None for a general row, whose nonzeros times d
    are general[i].  Row i of (M - sI)U is U_j - s U_i for a unit row i -> j
    (nothing at s = +1 and U_i at s = -1 when j = i), and d M_i U - s d U_i
    for a general row.  With zero the int 0 the basis and the pieces are
    primitive int vectors."""
    # U_x, coordinate x of every basis vector, as {vector index: value}
    coords = [{} for _ in units]
    for q, vec in enumerate(basis):
        for x, y in vec.items():
            coords[x][q] = y
    # row i of MU for the general rows, the same for both signs
    products = {}
    for i, hits in general.items():
        acc = products[i] = {}
        for x, m in hits.items():
            _add(acc, coords[x], m)
    out = []
    for sign in signs:
        rows = []
        for i, j in enumerate(units):
            if j is None:
                acc = dict(products[i])
                _add(acc, coords[i], -sign * d)
            elif j == i:
                if sign == 1:
                    continue
                acc = coords[i]
            else:
                acc = dict(coords[j])
                _add(acc, coords[i], -sign)
            hits = [(q, v) for q, v in acc.items() if v != 0]
            if hits:
                rows.append(hits)
        # a row with one nonzero fixes its unknown at 0; dropping the fixed
        # unknowns from every row, to a fixpoint, leaves the kernel only the
        # live unknowns and the rows that still bind them
        dead, fixed = set(), {hits[0][0] for hits in rows if len(hits) == 1}
        while fixed:
            dead |= fixed
            rows = [h for h in ([(q, v) for q, v in hits if q not in fixed] for hits in rows) if h]
            fixed = {hits[0][0] for hits in rows if len(hits) == 1}
        live = [q for q in range(len(basis)) if q not in dead]
        if not rows:
            out.append((sign, [basis[q] for q in live]))
            continue
        # sparsest first: a sparse pivot row fills in little, and the kernel
        # does not depend on the order of the rows
        rows.sort(key=len)
        k, column = len(live), {q: c for c, q in enumerate(live)}
        rows = [[(column[q], v) for q, v in hits] for hits in rows]
        part = []
        for hits in integer_kernel([list(_sparse_row(hits, k, 0)) for hits in rows], k):
            acc = {}
            for c, x in hits:
                _add(acc, basis[live[c]], x)
            v = {x: y for x, y in acc.items() if y != 0}
            g = gcd(*v.values()) if type(zero) is int else 1
            part.append(v if g == 1 else {x: y // g for x, y in v.items()})
        out.append((sign, part))
    return out


def _nonzeros(row) -> list:
    return [(c, y) for c, y in enumerate(row) if y is not _ZERO and y != 0]


def _add(acc: dict, coords: dict, c) -> None:
    """acc += c * coords, with no multiplication when c is +-1."""
    one, minus = c == 1, c == -1
    for q, y in coords.items():
        v = y if one else -y if minus else c * y
        acc[q] = acc[q] + v if q in acc else v


def _pivot_blocks(rep: dict, basis: Sequence, keep, dependent: str) -> dict:
    """Each generator's matrix on the invariant span U of basis, in that
    basis (keep None), or on the quotient by U in the basis of the axes in
    keep, read off k coordinates P with U_P invertible: those keep leaves
    out, or the pivots of U.  U is eliminated once, over every coordinate
    (the kept axes last), and SubspaceError says in this order that U is
    dependent, that the axes in keep are not n - k many, or that they repeat
    or hold a pivot.  That reduces U to rows u'_j with pivot p_j on P_j and
    0 on the rest of P; then
    L (w - sum_j (w_{P_j} / p_j) u'_j) is 0 for w = M u_q in U, and on K is
    L (w_K - U_K U_P^-1 w_P) for w a column of M, the quotient block, with
    L the lcm of the |p_j| (ints for any entries).  For images over d and a
    rational basis it is all ints: u_j times the lcm s_j of its
    denominators."""
    keys = list(rep)
    n, k = len(rep[keys[0]]), len(basis)
    d, images = _images(rep)
    got = None if d is None else _integer_rows(basis)
    if got is None:
        # any other entries: every scalar of the type of the images and basis
        zero = sum((v[0] * 0 for v in basis[:1] if v), rep[keys[0]][0][0] * 0 + _ZERO)
        scaled, scales, d = [[zero + x for x in v] for v in basis], [1] * k, d or 1
    else:
        (scaled, scales), zero = got, _ZERO

    def read(v, den):
        return (zero + v) / den if got is None else _ONE if v == den else Fraction(v, den)

    order = list(range(n)) if keep is None else sorted(set(range(n)).difference(keep)) + keep
    rows = [[u[c] for c in order] + [int(i == j) for j in range(k)] for i, u in enumerate(scaled)]
    pivots = _integer_reduce(rows, len(order))
    if len(pivots) < k:
        raise SubspaceError(dependent)
    if keep is not None:
        if k + len(keep) != n:
            raise SubspaceError("complement has the wrong dimension")
        if len(order) > n or any(c >= k for c in pivots):  # U_P is not square or singular
            raise SubspaceError("chosen axes are not transverse to the subspace")
    L = lcm(*[row[c] for row, c in zip(rows, pivots)])
    supports = [_nonzeros(u) for u in scaled]
    reducers = [(order[c], L // row[c], _nonzeros(row[n:]),
                 [(order[x], y) for x, y in enumerate(row[:n]) if y != 0])
                for row, c in zip(rows, pivots)]

    def reduce(w: dict):
        # L (w - sum_j (w_{P_j} / p_j) u'_j), and L times that sum in the u_i
        residual, coords = {i: L * v for i, v in w.items()}, {}
        for p, c, inverse, span in reducers:
            f = c * w.get(p, 0)
            if f != 0:
                for x, y in span:
                    residual[x] = residual.get(x, 0) - f * y
                for i, g in inverse:
                    coords[i] = coords.get(i, 0) + g * f
        return residual, coords

    out = {}
    for key in keys:
        units, general = images[key]
        column = {}  # column c of d M as (row, nonzero) pairs
        for i, x in enumerate(units):
            for c, y in [(x, d)] if x is not None else general[i].items():
                column.setdefault(c, []).append((i, y))
        block = [[] for _ in range(k if keep is None else n - k)]
        for q, support in enumerate(supports):
            w = {}
            for c, y in support:
                for i, m in column.get(c, ()):
                    w[i] = w.get(i, 0) + m * y
            residual, coords = reduce(w)
            if any(v != 0 for v in residual.values()):
                raise SubspaceError("subspace not invariant")
            for i, v in coords.items():
                if v != 0 and keep is None:
                    block[i].append((q, read(v * scales[i], L * d * scales[q])))
        if keep is not None:
            pos = {a: i for i, a in enumerate(keep)}
            for l, a in enumerate(keep):
                for x, v in reduce(dict(column.get(a, ())))[0].items():
                    if v != 0:
                        block[pos[x]].append((l, read(v, L * d)))
        out[key] = tuple(_sparse_row(hits, len(block), zero) for hits in block)
    return out


def _check_lengths(vectors: Sequence, n: int) -> None:
    for v in vectors:
        if len(v) != n:
            text = ",".join(str(x) for x in v)
            raise InputError(f"vector {text!r} needs {n} coordinates")


def restrict_rep(rep: dict, basis: Sequence) -> dict:
    """Matrices of the action on an invariant subspace, in the given basis."""
    if not rep:
        return {}
    _check_lengths(basis, len(next(iter(rep.values()))))
    return _pivot_blocks(rep, basis, None, "restriction vectors are linearly dependent")


def quotient_rep(rep: dict, subspace: Sequence, keep: Sequence[int]) -> dict:
    """Induced action on the quotient by an invariant subspace.

    keep lists the coordinate axes representing the quotient; together with
    the subspace they must form a basis of the whole space.
    """
    keys = list(rep)
    if not keys:
        return {}
    n = len(rep[keys[0]])
    _check_lengths(subspace, n)
    bad = [i for i in keep if not 0 <= i < n]
    if bad:
        raise InputError(f"keep axis {bad[0]} outside 0..{n - 1}")
    return _pivot_blocks(rep, subspace, list(keep), "subspace vectors are linearly dependent")


def signed_permutation_check(rep: dict) -> bool:
    """Whether every generator image is a signed permutation matrix."""
    for mat in rep.values():
        if any(len(row) != len(mat) for row in mat):
            return False
        hits = [[(i, x) for i, x in enumerate(col) if x != 0] for col in zip(*mat)]
        if any(len(h) != 1 or h[0][1] not in (1, -1) for h in hits):
            return False
        if len({h[0][0] for h in hits}) != len(mat):
            return False
    return True
