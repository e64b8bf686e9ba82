"""The eigenspace-intersection rho assembly and stable lines, as an oracle.

These are the bodies the library used before the closed forms: rho_I is
assembled from an exact kernel F_I and an n x n basis change (P D P^-1), and
stable lines intersect the +1/-1 eigenspaces of every generator with every
surviving piece.  They build on the package's exact linear algebra
(`kernel_basis`, `mat_inverse`, `mat_mul`), which has oracles of its own in
tests/test_linalg.py.  They are slow (n x n inverses and kernels per
generator) and plain.
"""

from fractions import Fraction

from gencactus.coxeter import connected_subsets, conjugate_subset
from gencactus.errors import DegenerateFormError, InputError
from gencactus.linalg import (
    determinant,
    identity_matrix,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
)
from gencactus.rep import form_on_fset


def rho_rep(system, t):
    t = Fraction(t)
    form = _nondegenerate_form(system, t)
    return {I: _rho_assemble(system, I, t, form) for I in connected_subsets(system)}


def rho_generator(system, I, t):
    t = Fraction(t)
    return _rho_assemble(system, frozenset(I), t, _nondegenerate_form(system, t))


def _nondegenerate_form(system, t):
    form = form_on_fset(system, t)
    if determinant(form.gram) == 0:
        raise DegenerateFormError(f"degenerate form at t = {t}: full space")
    return form


def _bilinear(gram, a, b):
    gb = mat_vec(gram, b)
    return sum((x * y for x, y in zip(a, gb)), Fraction(0))


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


def stable_lines(rep: dict) -> list:
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
