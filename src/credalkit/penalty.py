"""Convex expectations generated by finite penalty-atom families.

An atom family ``{(P_i, c_i)}`` induces ``X -> max_i (E_{P_i}[X] - c_i)``,
a convex increasing functional preserving constants once the smallest cost
is zero.  The minimal (convex, lower semicontinuous) penalty representing
the same functional is the convex envelope of the atoms, evaluated here by
a small linear program; points outside the atom hull carry infinite
penalty.  The programs of one family at many points are one lockstep simplex
stack, bit for bit the programs solved one at a time.  The atoms it needs are
pruned as a credal set is, in its perspective lift.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lp import DEFAULT_TOL, OPTIMAL, SimplexStalledError
from .spaces import Frozen, ProbVector, RandomVariable, Space, _check_same_space, _prob_stack
from .credal import _canonicalize, _hull_lp


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
    ``convex_expectation(A, .)``, evaluated by the cheapest-mixture LP.  Costs past
    ``2**900`` are scaled down by a power of two, exactly, so the simplex cannot overflow.
    """
    _check_same_space(A.space, P.space, "minimal penalty")
    [value] = _penalties(A, P.weights[None], tol)
    if isinstance(value, SimplexStalledError):
        raise value
    return value


def _penalties(A: PenaltyAtoms, W: np.ndarray, tol: float) -> list:
    """``minimal_penalty`` at each row of ``W``, the programs solved in lockstep; a program
    that stalls gives its :class:`SimplexStalledError` in place of its value."""
    k = max(math.frexp(A.costs.max())[1] - 900, 0)
    return [res if isinstance(res, SimplexStalledError)
            else math.ldexp(max(res.value, 0.0), k) if res.status == OPTIMAL else float("inf")
            for res in _hull_lp(A.points, W, tol, np.ldexp(A.costs, -k))]


def envelope_atoms(A: PenaltyAtoms, tol: float = DEFAULT_TOL) -> PenaltyAtoms:
    """The atoms the envelope needs, in listing order: the others pruned as a credal set is.

    With ``t = c / max c``, the perspective map ``(p, t) / (1 + t)`` sends the envelope's
    epigraph onto the hull of the lifted atoms and the apex ``e_{n+1}``, its point at
    infinite cost.  An atom drops when its lifted point lies within ``tol`` (L1) of the
    hull of the others kept and the apex; at a payoff ``X`` it then exceeds them by at
    most ``(1 + t) tol (max c + ptp(X) / 2)``.
    """
    t = A.costs[:, None] / (A.costs.max() or 1.0)
    lifted = np.vstack([np.hstack([A.points, t]) / (1 + t), np.eye(A.space.size + 1)[-1]])
    keep = [i for i in _canonicalize(lifted, tol) if i < A.n_atoms]
    return PenaltyAtoms.__new__(PenaltyAtoms)._set(A.space, A.points[keep], A.costs[keep])
