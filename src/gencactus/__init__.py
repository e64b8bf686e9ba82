"""Cactus groups over finite-rank Coxeter systems.

Exact computation with the generators gamma_I: evaluation to W, the word
problem through an embedding into a right-angled Coxeter group extended by
diagram automorphisms, and exact linear representations with invariant-line
and quotient tooling.

The package root re-exports the documented API (the "Library API" list in
the README); everything else is reached through its submodule.  A name or
submodule is imported on first access (PEP 562), so a caller compiles only
the layers it uses, and the value is then kept in this module's globals.
"""

from importlib import import_module

__version__ = "0.1.0"

# each documented name -> the submodule that defines it, in README order
_HOME = {
    "CoxeterSystem": "coxeter",
    "GroupElement": "coxeter",
    "connected_subsets": "coxeter",
    "longest_element": "coxeter",
    "conjugate_subset": "coxeter",
    "CactusWord": "cactus",
    "parse_word": "cactus",
    "format_word": "cactus",
    "apply_relation": "cactus",
    "evaluate_to_coxeter": "cactus",
    "is_pure": "cactus",
    "type_a_dictionary": "cactus",
    "RacgContext": "racg",
    "SemidirectElement": "racg",
    "rho_rep": "rep",
    "Pi_rep": "rep",
    "Pi_of": "rep",
    "check_relations": "rep",
    "stable_lines": "rep",
    "restrict_rep": "rep",
    "quotient_rep": "rep",
    "signed_permutation_check": "rep",
    "CycloReal": "scalar",
    "format_scalar": "scalar",
    "parse_scalar": "scalar",
    "CactusError": "errors",
    "InputError": "errors",
    "InfiniteGroupError": "errors",
    "DegenerateFormError": "errors",
    "SubspaceError": "errors",
    "RelationApplicationError": "errors",
}

__all__ = list(_HOME)

_SUBMODULES = ("cactus", "coxeter", "cyclotomic", "errors", "linalg", "racg", "rep", "scalar")


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
