"""Nonlinear Fubini: when iterated worst-case integrals commute.

With one ambiguity set per coordinate (neither depending on the other),
each iteration order induces a pasted joint set; the two orders can be
interchanged for every payoff exactly when the two pasted sets coincide
after aligning coordinates.  When they differ, a separating payoff gives
an explicit gap between the iterated values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conditional import CredalKernel, compose, pasting
from .credal import CredalSet, first_outside
from .lp import DEFAULT_TOL
from .spaces import ProductSpace, RandomVariable, swap_measure, swap_variable


@dataclass(frozen=True)
class FubiniReport:
    interchangeable: bool
    forward_set: CredalSet  # pasted set for the U-then-V order, on U x V
    backward_set: CredalSet  # pasted set for the V-then-U order, mapped to U x V
    witness: Optional[tuple[RandomVariable, float, float]]  # (payoff, lhs, rhs)


def interchange_gap(SU: CredalSet, SV: CredalSet, X: RandomVariable):
    """The two iterated worst-case values of ``X`` under constant ambiguity.

    ``lhs`` integrates the inner V-supremum against the outer U-supremum;
    ``rhs`` swaps the roles.
    """
    if not isinstance(X.space, ProductSpace):
        raise ValueError("interchange_gap needs a payoff on a product space")
    lhs = compose(SU, CredalKernel.constant(SU.space, SV), X)
    rhs = compose(SV, CredalKernel.constant(SV.space, SU), swap_variable(X))
    return lhs, rhs


def check_fubini(SU: CredalSet, SV: CredalSet, tol: float = DEFAULT_TOL) -> FubiniReport:
    """Decide interchangeability by comparing the two pasted joint sets.

    On inequality, a vertex of one set outside the other is separated and
    the resulting payoff witnesses a gap between the iterated values.
    """
    forward = pasting(SU, CredalKernel.constant(SU.space, SV))
    backward_raw = pasting(SV, CredalKernel.constant(SV.space, SU))
    space = ProductSpace(SU.space, SV.space)
    backward = CredalSet(
        space, [swap_measure(v) for v in backward_raw.vertices], tol, canonical=True
    )
    outside = first_outside(forward, backward, tol) or first_outside(backward, forward, tol)
    witness = None
    if outside is not None:
        payoff = outside[1].witness
        witness = (payoff, *interchange_gap(SU, SV, payoff))
    return FubiniReport(outside is None, forward, backward, witness)
