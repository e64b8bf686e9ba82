"""Exact linear representations on the F(S)-indexed and S-indexed spaces.

rho acts on E = R^F(S) through the orthogonal decomposition
R e_I + E_I + F_I; Pi acts on the span of the parabolic conjugates through
reflections of the big right-angled form composed with relabeling
permutations.  All arithmetic is exact: entries are Fractions here (the
geometric representation of W itself, with its cyclotomic entries, lives in
the coxeter module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .cactus import CactusWord, commuting_subsets
from .coxeter import CoxeterSystem, connected_subsets, conjugate_subset
from .errors import DegenerateFormError, InputError, SubspaceError
from .linalg import (
    determinant,
    identity_matrix,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    solve_in_span,
    transpose,
)
from .racg import InducedAutomorphism, RacgContext, SemidirectElement


@dataclass(frozen=True)
class BilinearForm:
    labels: tuple
    gram: tuple
    t: Fraction

    @property
    def dim(self) -> int:
        return len(self.labels)


def form_on_fset(system: CoxeterSystem, t) -> BilinearForm:
    """Symmetric form on R^F(S): 1 on the diagonal, 0 on containment or
    product pairs, -t on every other pair."""
    t = Fraction(t)
    fset = connected_subsets(system)
    n = len(fset)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(1)
        for j in range(i + 1, n):
            I, J = fset[i], fset[j]
            if I < J or J < I or commuting_subsets(system, I, J):
                entry = Fraction(0)
            else:
                entry = -t
            rows[i][j] = rows[j][i] = entry
    labels = tuple(system.format_subset(I) for I in fset)
    return BilinearForm(labels, tuple(tuple(r) for r in rows), t)


def form_on_S(ctx: RacgContext, t) -> BilinearForm:
    """Form on the span of the parabolic conjugates, read off the big
    right-angled matrix: 0 where the entry is 2, -t where it is infinite."""
    t = Fraction(t)
    n = len(ctx.conjugates)
    rows = [
        tuple(
            Fraction(1) if i == j else (Fraction(0) if ctx.M[i][j] == 2 else -t)
            for j in range(n)
        )
        for i in range(n)
    ]
    labels = tuple(pc.label() for pc in ctx.conjugates)
    return BilinearForm(labels, tuple(rows), t)


def reflection_in_form(form: BilinearForm, k: int):
    """sigma_k(x) = x - 2 B(x, e_k) e_k as a matrix (columns are images)."""
    g = form.gram
    n = len(g)
    one, zero = g[k][k], g[k][k] - g[k][k]
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for j in range(n):
        rows[k][j] = rows[k][j] - 2 * g[j][k]
    return tuple(tuple(r) for r in rows)


def pi_prime(g: Union[InducedAutomorphism, Sequence[int]]):
    """Permutation matrix of a diagram automorphism: e_s -> e_{g(s)}."""
    perm = g.perm if isinstance(g, InducedAutomorphism) else tuple(g)
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, p in enumerate(perm):
        rows[p][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def Pi_rep(ctx: RacgContext, t) -> dict:
    """Letter images gamma_I -> pi(tau_{W_I}) pi'(g_I) on the S-indexed space."""
    t = Fraction(t)
    key = ("Pi", t)
    cached = ctx.caches.get(key)
    if cached is None:
        form = form_on_S(ctx, t)
        images = {}
        for I, letter in ctx.letters.items():
            refl = reflection_in_form(form, letter.racg_part[0])
            images[I] = mat_mul(refl, pi_prime(letter.aut_part))
        cached = ctx.caches[key] = images
    return cached


def Pi_of(ctx: RacgContext, x: Union[CactusWord, SemidirectElement], t):
    """Matrix of a cactus word (letterwise product) or of a semidirect
    element (reflection product times permutation)."""
    t = Fraction(t)
    n = len(ctx.conjugates)
    if isinstance(x, CactusWord):
        letters = Pi_rep(ctx, t)
        acc = identity_matrix(n)
        for I in x.letters:
            if I not in letters:
                raise InputError(
                    f"letter not in the generating family: {ctx.system.format_subset(I)}"
                )
            acc = mat_mul(acc, letters[I])
        return acc
    if isinstance(x, SemidirectElement):
        form = form_on_S(ctx, t)
        acc = identity_matrix(n)
        for i in x.racg_part:
            acc = mat_mul(acc, reflection_in_form(form, i))
        return mat_mul(acc, pi_prime(x.aut_part))
    raise InputError(f"cannot represent object of type {type(x).__name__}")


def _bilinear(gram, a, b):
    gb = mat_vec(gram, b)
    return sum((x * y for x, y in zip(a, gb)), Fraction(0))


def _subset_key(I):
    return (len(I), sorted(I))


def rho_generator(system: CoxeterSystem, I, t):
    """Involution rho_I: -1 on R e_I + E_I, +1 on the orthocomplement F_I.

    E_I is spanned by the differences e_J - e_{w_I(J)} over proper
    F(S)-subsets J of I; F_I is computed as an exact kernel.  Degeneracy of
    the form, global or restricted, is an error since the decomposition
    stops being direct there.
    """
    t = Fraction(t)
    return _rho_assemble(system, frozenset(I), t, _nondegenerate_form(system, t))


def rho_rep(system: CoxeterSystem, t) -> dict:
    """All generator images I -> rho_I at parameter t."""
    t = Fraction(t)
    form = _nondegenerate_form(system, t)
    return {I: _rho_assemble(system, I, t, form) for I in connected_subsets(system)}


def _nondegenerate_form(system, t):
    form = form_on_fset(system, t)
    if determinant(form.gram) == 0:
        raise DegenerateFormError(f"degenerate form at t = {t}: full space")
    return form


def _rho_assemble(system, I, t, form):
    fset = connected_subsets(system)
    pos = {S: i for i, S in enumerate(fset)}
    if I not in pos:
        raise InputError(f"not a connected finite-type subset: {system.format_subset(I)}")
    n = len(fset)
    cols = [identity_matrix(n)[pos[I]]]
    done = set()
    for J in fset:
        if J < I and J not in done:
            J2 = conjugate_subset(system, I, J)
            done.add(J)
            done.add(J2)
            if J2 != J:
                vec = list(identity_matrix(n)[pos[J]])
                vec[pos[J2]] = Fraction(-1)
                cols.append(tuple(vec))
    k = len(cols)
    restricted = [[_bilinear(form.gram, a, b) for b in cols] for a in cols]
    if determinant(restricted) == 0:
        raise DegenerateFormError(
            f"degenerate form at t = {t}: span(e_I, E_I) for I = {system.format_subset(I)}"
        )
    pairing_rows = [mat_vec(form.gram, a) for a in cols]
    fbasis = kernel_basis(pairing_rows)
    if len(fbasis) != n - k:
        raise DegenerateFormError(f"degenerate form at t = {t}: full space")
    basis = cols + list(fbasis)
    p = tuple(zip(*basis))
    pd = tuple(
        tuple(-x if j < k else x for j, x in enumerate(row)) for row in p
    )
    return mat_mul(pd, mat_inverse(p))


@dataclass
class RelationReport:
    checked: int = 0
    violations: list = field(default_factory=list)

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
    (c) nested pairs satisfy M_I M_J = M_J M_{w_J(I)}.  Violations are
    reported, not raised.
    """
    report = RelationReport()
    if not rep:
        return report
    keys = sorted(rep, key=_subset_key)
    fmt = system.format_subset
    ident = identity_matrix(len(rep[keys[0]]))
    for I in keys:
        report.checked += 1
        if mat_mul(rep[I], rep[I]) != ident:
            report.violations.append(("involution", fmt(I)))
    for a in range(len(keys)):
        for b in range(len(keys)):
            I, J = keys[a], keys[b]
            if a < b and commuting_subsets(system, I, J):
                report.checked += 1
                if mat_mul(rep[I], rep[J]) != mat_mul(rep[J], rep[I]):
                    report.violations.append(("commute", f"{fmt(I)}, {fmt(J)}"))
            if I < J:
                report.checked += 1
                J2 = conjugate_subset(system, J, I)
                if J2 not in rep:
                    report.violations.append(
                        ("missing-conjugate", f"w_{fmt(J)}({fmt(I)}) = {fmt(J2)}")
                    )
                elif mat_mul(rep[I], rep[J]) != mat_mul(rep[J], rep[J2]):
                    report.violations.append(("nested", f"{fmt(I)} inside {fmt(J)}"))
    return report


def stable_lines(rep: dict) -> list:
    """Lines fixed by every generator, with the sign each generator acts by.

    Works by intersecting +1/-1 eigenspaces generator by generator; every
    simultaneous eigenvector spans such a line because the generators are
    involutions.  Returns (vector, {key: sign}) pairs, one basis vector per
    surviving sign pattern.
    """
    keys = list(rep)
    if not keys:
        return []
    n = len(rep[keys[0]])
    pieces = [(list(identity_matrix(n)), ())]
    for key in keys:
        mat = rep[key]
        eigenspaces = []
        for sign in (1, -1):
            # eigenspace of sign = kernel of (M - sign*I)
            shifted = tuple(
                tuple(mat[i][j] - (sign if i == j else 0) for j in range(n))
                for i in range(n)
            )
            eigenspaces.append((sign, kernel_basis(shifted)))
        nxt = []
        for basis, signs in pieces:
            for sign, eig in eigenspaces:
                inter = _intersect_spans(basis, eig)
                if inter:
                    nxt.append((inter, signs + (sign,)))
        pieces = nxt
        if not pieces:
            return []
    out = []
    for basis, signs in pieces:
        for v in basis:
            out.append((v, dict(zip(keys, signs))))
    return out


def _intersect_spans(ubasis, vbasis):
    if not ubasis or not vbasis:
        return []
    n = len(ubasis[0])
    k = len(ubasis)
    rows = [
        [u[i] for u in ubasis] + [-v[i] for v in vbasis] for i in range(n)
    ]
    coeffs = kernel_basis(rows)
    out = []
    for c in coeffs:
        vec = [Fraction(0)] * n
        for j in range(k):
            if c[j] != 0:
                for i in range(n):
                    vec[i] += c[j] * ubasis[j][i]
        out.append(tuple(vec))
    return [v for v in out if any(x != 0 for x in v)]


def restrict_rep(rep: dict, basis: Sequence) -> dict:
    """Matrices of the action on an invariant subspace, in the given basis."""
    out = {}
    for key, mat in rep.items():
        images = [mat_vec(mat, v) for v in basis]
        try:
            coords = solve_in_span(list(basis), images)
        except ValueError:
            raise SubspaceError("restriction vectors are linearly dependent") from None
        if coords is None:
            raise SubspaceError("subspace not invariant")
        out[key] = tuple(zip(*coords))
    return out


def quotient_rep(rep: dict, subspace: Sequence, keep: Sequence[int]) -> dict:
    """Induced action on the quotient by an invariant subspace.

    keep lists the coordinate axes representing the quotient; together with
    the subspace they must form a basis of the whole space.
    """
    keys = list(rep)
    if not keys:
        return {}
    n = len(rep[keys[0]])
    k = len(subspace)
    bad = [i for i in keep if not 0 <= i < n]
    if bad:
        raise InputError(f"keep axis {bad[0]} outside 0..{n - 1}")
    if kernel_basis(transpose(subspace)):
        raise SubspaceError("subspace vectors are linearly dependent")
    if k + len(keep) != n:
        raise SubspaceError("complement has the wrong dimension")
    cols = list(subspace) + [identity_matrix(n)[i] for i in keep]
    p = tuple(zip(*cols))
    try:
        pinv = mat_inverse(p)
    except ValueError:
        raise SubspaceError("chosen axes are not transverse to the subspace") from None
    out = {}
    for key, mat in rep.items():
        x = mat_mul(pinv, mat_mul(mat, p))
        for i in range(k, n):
            for j in range(k):
                if x[i][j] != 0:
                    raise SubspaceError("subspace not invariant")
        out[key] = tuple(tuple(row[k:]) for row in x[k:])
    return out


def signed_permutation_check(rep: dict) -> bool:
    """Whether every generator image is a signed permutation matrix."""
    for mat in rep.values():
        n = len(mat)
        seen_rows = set()
        for j in range(n):
            hits = [i for i in range(n) if mat[i][j] != 0]
            if len(hits) != 1 or mat[hits[0]][j] not in (1, -1):
                return False
            seen_rows.add(hits[0])
        if len(seen_rows) != n:
            return False
    return True
