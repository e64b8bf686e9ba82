"""Cactus groups over finite-rank Coxeter systems.

Exact computation with the generators gamma_I: evaluation to W, the word
problem through an embedding into a right-angled Coxeter group extended by
diagram automorphisms, and exact linear representations with invariant-line
and quotient tooling.
"""

from .cactus import (
    CactusWord,
    apply_relation,
    evaluate_to_coxeter,
    format_word,
    free_reduce,
    is_pure,
    parse_word,
    type_a_dictionary,
)
from .coxeter import (
    CoxeterSystem,
    GroupElement,
    GroupTable,
    connected_subsets,
    conjugate_subset,
    enumerate_group,
    is_finite_parabolic,
    longest_element,
)
from .errors import (
    CactusError,
    DegenerateFormError,
    InfiniteGroupError,
    InputError,
    RelationApplicationError,
    SubspaceError,
)
from .racg import (
    InducedAutomorphism,
    ParabolicConjugate,
    RacgContext,
    SemidirectElement,
    big_matrix,
    build_S,
    normal_form,
    semidirect_mul,
)
from .rep import (
    BilinearForm,
    Pi_of,
    Pi_rep,
    RelationReport,
    check_relations,
    form_on_S,
    form_on_fset,
    pi_prime,
    quotient_rep,
    reflection_in_form,
    restrict_rep,
    rho_generator,
    rho_rep,
    signed_permutation_check,
    stable_lines,
)
from .scalar import CycloReal, Rational, cos_pi_over, format_scalar, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "CactusError",
    "CactusWord",
    "CoxeterSystem",
    "CycloReal",
    "DegenerateFormError",
    "GroupElement",
    "GroupTable",
    "InducedAutomorphism",
    "InfiniteGroupError",
    "InputError",
    "ParabolicConjugate",
    "Pi_of",
    "Pi_rep",
    "RacgContext",
    "Rational",
    "RelationApplicationError",
    "RelationReport",
    "SemidirectElement",
    "SubspaceError",
    "apply_relation",
    "big_matrix",
    "build_S",
    "check_relations",
    "conjugate_subset",
    "connected_subsets",
    "cos_pi_over",
    "enumerate_group",
    "evaluate_to_coxeter",
    "form_on_S",
    "form_on_fset",
    "format_scalar",
    "format_word",
    "free_reduce",
    "is_finite_parabolic",
    "is_pure",
    "longest_element",
    "normal_form",
    "parse_scalar",
    "parse_word",
    "pi_prime",
    "quotient_rep",
    "reflection_in_form",
    "restrict_rep",
    "rho_generator",
    "rho_rep",
    "semidirect_mul",
    "signed_permutation_check",
    "stable_lines",
    "type_a_dictionary",
]
