"""Helpers the package exported once and only tests call, kept as oracles.

`free_reduce` cancels adjacent equal letters of a cactus word; `rational_value`
reads the rational number a CycloReal equals; `purity_consistency` asks
whether a trivial aut part of the embedding and a trivial evaluation agree
on a word.  Nothing in this module imports the package under test.
"""

from fractions import Fraction


def free_reduce(word):
    """Cancel adjacent equal letters (gamma_I^2 = 1) to a fixed point."""
    stack = []
    for l in word.letters:
        if stack and stack[-1] == l:
            stack.pop()
        else:
            stack.append(l)
    return type(word)(word.system, stack)


def rational_value(x) -> Fraction:
    """The Fraction a rational CycloReal equals; ValueError otherwise."""
    if not x.is_rational():
        raise ValueError("not a rational value")
    return x.coeffs[0]


def purity_consistency(ctx, w) -> bool:
    """Whether (aut part trivial) and (evaluation trivial) agree on w.

    Purity always forces a trivial aut part.  The converse can fail when the
    center of W is nontrivial: conjugation by a central evaluation relabels
    nothing.  One walk gives both: its x is the evaluation of w in W.
    """
    x = ctx._walk(w)[1]
    return ctx.induced_aut(x).is_identity() == (x == 0)
