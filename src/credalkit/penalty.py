"""Convex expectations generated by finite penalty-atom families.

An atom family ``{(P_i, c_i)}`` induces ``X -> max_i (E_{P_i}[X] - c_i)``,
a convex increasing functional preserving constants once the smallest cost
is zero.  The minimal (convex, lower semicontinuous) penalty representing
the same functional is the convex envelope of the atoms, evaluated here by
a small linear program; points outside the atom hull carry infinite
penalty.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lp import DEFAULT_TOL, OPTIMAL
from .spaces import Frozen, ProbVector, RandomVariable, Space, _check_same_space, _prob_stack
from .credal import _distinct, _hull_lp

# Costs may exceed the envelope by at most this before an atom is dropped.
DOMINANCE_TOL = 1e-9


class PenaltyAtoms(Frozen):
    """A finite family of (probability, cost) atoms with min cost zero.

    If the smallest input cost is positive, construction shifts every cost
    down by it and records the shift in ``normalization_shift`` so reports
    can surface the adjustment; negative costs are rejected.
    """

    __slots__ = ("space", "points", "costs", "normalization_shift")

    def __init__(self, space: Space, atoms: Sequence[tuple[ProbVector, float]]):
        atoms = tuple(atoms)
        self._set(space, [P.weights for P, _ in atoms], [c for _, c in atoms],
                  [P.space for P, _ in atoms])

    def _set(self, space: Space, points, costs, spaces=()):
        """Every constructor ends here: costs checked, then atom spaces, then costs shifted."""
        if not len(points):
            raise ValidationError("a penalty family needs at least one atom")
        costs = np.array([float(c) for c in costs])
        if not np.all(np.isfinite(costs)):
            raise ValidationError("atom costs must be finite")
        if np.any(costs < 0.0):
            raise ValidationError(f"negative atom cost {float(costs.min())!r}")
        for other in spaces:
            _check_same_space(other, space, "penalty atom")
        shift = float(costs.min()) or 0.0  # a zero minimum, -0.0 too, records no shift
        return self._freeze(space=space, points=np.asarray(points), costs=costs - shift,
                            normalization_shift=shift)

    @classmethod
    def from_rows(cls, space: Space, rows: Sequence[tuple[Sequence[float], float]]):
        rows = list(rows)
        return cls.__new__(cls)._set(space, _prob_stack(space.size, [w for w, _ in rows]),
                                     [c for _, c in rows])

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PenaltyAtoms({self.space!r}, {self.n_atoms} atoms)"


def convex_expectation(A: PenaltyAtoms, X: RandomVariable) -> float:
    """``max_i (E_{P_i}[X] - c_i)``; bounded by the sup norm of ``X``."""
    _check_same_space(A.space, X.space, "convex expectation")
    return float(np.max(A.points @ X.values - A.costs))


def minimal_penalty(A: PenaltyAtoms, P: ProbVector, tol: float = DEFAULT_TOL) -> float:
    """The convex envelope of the atom costs at ``P``; +inf outside the hull.

    This is the unique convex lower semicontinuous penalty generating
    ``convex_expectation(A, .)``, evaluated by the cheapest-mixture LP.
    """
    _check_same_space(A.space, P.space, "minimal penalty")
    res = _hull_lp(A.points, P.weights, tol, A.costs)
    if res.status != OPTIMAL:
        return float("inf")
    return max(res.value, 0.0)


def envelope_atoms(A: PenaltyAtoms, tol: float = DOMINANCE_TOL) -> PenaltyAtoms:
    """Drop atoms whose cost the remaining family already undercuts.

    Exact duplicates go first (keeping the earliest listing); then each atom
    is removed when the current family without it reproduces its point at a
    cost more than ``tol`` cheaper.  Removals are sequential in listing
    order, so the surviving family still generates the same convex
    expectation.
    """
    keep = _distinct(np.column_stack([A.points, A.costs]))
    pos = 0
    while pos < len(keep) and len(keep) > 1:
        i = keep[pos]
        others = [j for j in keep if j != i]
        res = _hull_lp(A.points[others], A.points[i], DEFAULT_TOL, A.costs[others])
        if res.status == OPTIMAL and A.costs[i] > res.value + tol:
            keep.pop(pos)
        else:
            pos += 1
    return PenaltyAtoms.from_rows(A.space, zip(A.points[keep], A.costs[keep]))
