"""Cactus groups over finite-rank Coxeter systems.

Exact computation with the generators gamma_I: evaluation to W, the word
problem through an embedding into a right-angled Coxeter group extended by
diagram automorphisms, and exact linear representations with invariant-line
and quotient tooling.

The package root re-exports the documented API (the "Library API" list in
the README); everything else is reached through its submodule.
"""

# these imports also bind the submodules (gencactus.cactus, .coxeter, .errors,
# .racg, .rep, .scalar, and .linalg through them) as package attributes
from .cactus import (
    CactusWord,
    apply_relation,
    evaluate_to_coxeter,
    format_word,
    is_pure,
    parse_word,
    type_a_dictionary,
)
from .coxeter import (
    CoxeterSystem,
    GroupElement,
    conjugate_subset,
    connected_subsets,
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
from .racg import RacgContext, SemidirectElement
from .rep import (
    Pi_of,
    Pi_rep,
    check_relations,
    quotient_rep,
    restrict_rep,
    rho_rep,
    signed_permutation_check,
    stable_lines,
)
from .scalar import CycloReal, format_scalar, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "CoxeterSystem",
    "GroupElement",
    "connected_subsets",
    "longest_element",
    "conjugate_subset",
    "CactusWord",
    "parse_word",
    "format_word",
    "apply_relation",
    "evaluate_to_coxeter",
    "is_pure",
    "type_a_dictionary",
    "RacgContext",
    "SemidirectElement",
    "rho_rep",
    "Pi_rep",
    "Pi_of",
    "check_relations",
    "stable_lines",
    "restrict_rep",
    "quotient_rep",
    "signed_permutation_check",
    "CycloReal",
    "format_scalar",
    "parse_scalar",
    "CactusError",
    "InputError",
    "InfiniteGroupError",
    "DegenerateFormError",
    "SubspaceError",
    "RelationApplicationError",
]
