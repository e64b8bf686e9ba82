"""The bodies the rep module used before its closed forms, as an oracle.

rho_I is assembled from an exact kernel F_I and an n x n basis change
(P D P^-1); stable lines intersect the +1/-1 eigenspaces of every generator
with every surviving piece, or (`piece_stable_lines`) split each piece U by
the kernel of the dense n x dim U matrix (M - sI)U, starting from the n x n
kernels of the first generator; restriction solves the dense images of each
generator against the basis, one generator at a time; and the quotient
conjugates each generator by an inverse.  They build on the package's
exact `kernel_basis`, which has oracles of its own in tests/test_linalg.py,
on the product `mat_mul`, the solve `solve_in_span` and the elimination
`_row_reduce` of tests/oracle_linalg.py, and on a plain inverse (by that
elimination) and matrix-vector product of their own.  They are slow (n x n inverses and kernels per generator)
and plain.  `check_relations` compares Fraction products of the images by
`mat_mul`.  The dense form on S and the dense reflection and permutation
matrices, whose product the Pi images equal, are here too, as are
`rho_generator` (one rho_I) and the axis-by-axis default `--keep` of the
quotient command.

The change of basis that restriction and quotient made before they read
the pivot coordinates is here as well (`in_basis_restrict_rep`,
`in_basis_quotient_rep`): one elimination of the whole basis against the
dense images of every generator, a quotient's basis being n x n.  So is
`product_Pi_of`, which multiplies the Fraction images letter by letter
with `mat_mul`, and a semidirect element's dense reflections
`reflection_in_form` and permutation `pi_prime`.

The Fraction Gram `form_on_fset` of the form rho preserves is here too:
rho builds t.denominator times it as int rows and never the Fractions, and
`_nondegenerate_form` below takes its `determinant`.
"""

from fractions import Fraction
from typing import Sequence, Union

from gencactus.cactus import CactusWord, commuting_subsets
from gencactus.coxeter import connected_subsets, conjugate_subset
from gencactus.errors import DegenerateFormError, InputError, SubspaceError
from gencactus.linalg import (
    _ONE,
    _ZERO,
    _sparse_row,
    identity_matrix,
    kernel_basis,
    reduced_basis,
)
from gencactus.racg import InducedAutomorphism, SemidirectElement
from oracle_linalg import (
    _exact_rows,
    _row_reduce,
    determinant,
    mat_mul,
    solve_in_span,
    transpose,
)
from gencactus.rep import (
    Pi_rep,
    RelationReport,
    _check_lengths,
    _nonzeros,
)


def form_on_fset(system, t) -> tuple:
    """Gram matrix on R^F(S): 1 on the diagonal, 0 on containment or
    product pairs, -t on every other pair."""
    t, fset = Fraction(t), connected_subsets(system)
    return tuple(
        tuple(_ONE if I == J else
              _ZERO if I < J or J < I or commuting_subsets(system, I, J) else -t for J in fset)
        for I in fset
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_inverse(a):
    """Exact inverse; ValueError when a is singular."""
    n = len(a)
    rows = [row + list(e) for row, e in zip(_exact_rows(a), identity_matrix(n))]
    if len(_row_reduce(rows, n)[0]) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def rho_rep(system, t):
    t = Fraction(t)
    gram = _nondegenerate_form(system, t)
    return {I: _rho_assemble(system, I, t, gram) for I in connected_subsets(system)}


def rho_generator(system, I, t):
    t = Fraction(t)
    return _rho_assemble(system, frozenset(I), t, _nondegenerate_form(system, t))


def _nondegenerate_form(system, t):
    gram = form_on_fset(system, t)
    if determinant(gram) == 0:
        raise DegenerateFormError(f"degenerate form at t = {t}: full space")
    return gram


def _bilinear(gram, a, b):
    gb = mat_vec(gram, b)
    return sum((x * y for x, y in zip(a, gb)), Fraction(0))


def _rho_assemble(system, I, t, gram):
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
    restricted = [[_bilinear(gram, a, b) for b in cols] for a in cols]
    if determinant(restricted) == 0:
        raise DegenerateFormError(
            f"degenerate form at t = {t}: span(e_I, E_I) for I = {system.format_subset(I)}"
        )
    pairing_rows = [mat_vec(gram, a) for a in cols]
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


def piece_stable_lines(rep: dict) -> list:
    """Lines fixed by every generator, with the sign each generator acts by.

    Splits the space into simultaneous +1/-1 eigenspaces generator by
    generator: each generator M splits a piece with basis U by the kernel of
    the n x dim U matrix (M - sI)U, so only the first generator, whose one
    piece is the whole space, takes n x n kernels.  Every simultaneous
    eigenvector spans such a line because the generators are involutions.
    Returns (vector, {key: sign}) pairs: for each surviving sign pattern,
    the `reduced_basis` of its piece, which depends on the piece alone.
    """
    keys = list(rep)
    if not keys:
        return []
    pieces = [(identity_matrix(len(rep[keys[0]])), ())]
    for key in keys:
        nxt = []
        for basis, signs in pieces:
            columns = transpose(basis)
            images = mat_mul(rep[key], columns)
            for sign in (1, -1):
                # coefficients c with (M - sI)Uc = 0 give the piece's eigenspace
                shifted = [
                    [m - sign * u if u else m for m, u in zip(mrow, urow)]
                    for mrow, urow in zip(images, columns)
                ]
                coeffs = kernel_basis(shifted)
                if coeffs:
                    nxt.append((mat_mul(coeffs, basis), signs + (sign,)))
        pieces = nxt
    out = []
    for basis, signs in pieces:
        for v in reduced_basis(basis):
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
        zero = x[0][0] * 0
        out[key] = tuple(
            _sparse_row([(j, v) for j, v in enumerate(row[k:]) if v != 0], n - k, zero)
            for row in x[k:]
        )
    return out


def form_on_S(ctx, t):
    """The Gram matrix on S entry by entry: 1, then 0 where M is 2, else -t."""
    t = Fraction(t)
    n = len(ctx.conjugates)
    return tuple(
        tuple(
            Fraction(1) if i == j else (Fraction(0) if ctx.M[i][j] == 2 else -t)
            for j in range(n)
        )
        for i in range(n)
    )


def reflection_in_form(gram, k: int):
    """sigma_k(x) = x - 2 B(x, e_k) e_k as a matrix (columns are images)."""
    n = len(gram)
    one, zero = gram[k][k], gram[k][k] - gram[k][k]
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for j in range(n):
        rows[k][j] = rows[k][j] - 2 * gram[j][k]
    return tuple(tuple(r) for r in rows)


def pi_prime(g: Union[InducedAutomorphism, Sequence[int]]):
    """Permutation matrix of a diagram automorphism: e_s -> e_{g(s)}."""
    perm = g.perm if isinstance(g, InducedAutomorphism) else tuple(g)
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, p in enumerate(perm):
        rows[p][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def default_keep(subspace, dim):
    """The first axes transverse to the subspace, one span test per axis."""
    keep = []
    basis = list(subspace)
    for i in range(dim):
        if len(basis) == dim:
            break
        unit = tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
        try:
            outside = solve_in_span(basis, [unit]) is None
        except ValueError:
            raise SubspaceError("subspace vectors are linearly dependent") from None
        if outside:
            basis.append(unit)
            keep.append(i)
    return keep


def check_relations(system, rep: dict) -> RelationReport:
    report = RelationReport()
    if not rep:
        return report
    keys = sorted(rep, key=lambda I: (len(I), sorted(I)))
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


def _in_basis(rep: dict, basis: Sequence, dependent: str, skip: int = 0) -> dict:
    """Each generator's matrix in a basis of an invariant subspace.

    One elimination of the basis columns U against the images M U of every
    generator gives the coordinates X with M U = U X.  The first skip basis
    vectors must span an invariant subspace of their own, and the blocks
    returned act on the quotient by it: X without its first skip rows and
    columns.  SubspaceError(dependent) when the basis is dependent.
    """
    keys = list(rep)
    if not keys:
        return {}
    k = len(basis)
    columns = transpose(basis)
    images = [col for key in keys for col in zip(*mat_mul(rep[key], columns))]
    try:
        coords = solve_in_span(basis, images)
    except ValueError:
        raise SubspaceError(dependent) from None
    if coords is None:
        raise SubspaceError("subspace not invariant")
    blocks = [coords[q * k : (q + 1) * k] for q in range(len(keys))]
    if any(_nonzeros(col[skip:]) for b in blocks for col in b[:skip]):
        raise SubspaceError("subspace not invariant")
    zero = coords[0][0] * 0 if k else None
    out = {}
    for key, b in zip(keys, blocks):
        kept = b[skip:]
        out[key] = tuple(
            _sparse_row(_nonzeros([col[i] for col in kept]), k - skip, zero) for i in range(skip, k)
        )
    return out


def in_basis_restrict_rep(rep: dict, basis: Sequence) -> dict:
    if rep:
        _check_lengths(basis, len(next(iter(rep.values()))))
    return _in_basis(rep, basis, "restriction vectors are linearly dependent")


def in_basis_quotient_rep(rep: dict, subspace: Sequence, keep: Sequence[int]) -> dict:
    keys = list(rep)
    if not keys:
        return {}
    n = len(rep[keys[0]])
    _check_lengths(subspace, n)
    k = len(subspace)
    bad = [i for i in keep if not 0 <= i < n]
    if bad:
        raise InputError(f"keep axis {bad[0]} outside 0..{n - 1}")
    if kernel_basis(transpose(subspace)):
        raise SubspaceError("subspace vectors are linearly dependent")
    if k + len(keep) != n:
        raise SubspaceError("complement has the wrong dimension")
    basis = list(subspace) + [identity_matrix(n)[i] for i in keep]
    return _in_basis(rep, basis, "chosen axes are not transverse to the subspace", skip=k)


def product_Pi_of(ctx, x, t):
    t = Fraction(t)
    n = len(ctx.conjugates)
    if isinstance(x, CactusWord):
        if x.system != ctx.system:
            raise InputError("word over a different system")
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
        if x.context is not ctx:
            raise InputError("element from a different context")
        acc, gram = identity_matrix(n), form_on_S(ctx, t)
        for i in x.racg_part:
            acc = mat_mul(acc, reflection_in_form(gram, i))
        return mat_mul(acc, pi_prime(x.aut_part.perm))
    raise InputError(f"cannot represent object of type {type(x).__name__}")
