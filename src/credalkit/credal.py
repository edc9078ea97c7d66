"""Credal sets: probability polytopes in vertex form.

A credal set induces the sublinear upper expectation
``X -> max over vertices of E_P[X]``; hull membership and its dual
separation certificate realize the conjugate side, which takes only the
values zero (member) and infinity (separated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSeparableError, SpaceMismatchError, ValidationError
from .lp import DEFAULT_TOL, INFEASIBLE, OPTIMAL, solve_lp
from .spaces import (
    Frozen,
    ProbVector,
    ProductSpace,
    RandomVariable,
    Space,
    _check_same_space,
)

# Points closer than this (sup-norm) are treated as duplicates before the
# canonicalization LPs run.
DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class SeparationCertificate:
    """A direction along which a point beats every member of a credal set."""

    witness: RandomVariable
    margin: float


class CredalSet(Frozen):
    """A nonempty convex compact set of probabilities, stored by vertices.

    Construction canonicalizes the generator list: exact duplicates are
    dropped first, then every generator lying in the hull of the others is
    removed (one membership LP each, scanning from the back so earlier
    generators survive ties).  Surviving vertices keep their original order.
    """

    __slots__ = ("space", "vertices", "matrix")

    def __init__(self, space: Space, vertices: Sequence[ProbVector],
                 tol: float = DEFAULT_TOL, *, canonical: bool = False):
        vertices = tuple(vertices)
        if not vertices:
            raise ValidationError("a credal set needs at least one vertex")
        for v in vertices:
            _check_same_space(v.space, space, "credal set vertex")
        if not canonical:
            vertices = _canonicalize(space, vertices, tol)
        matrix = np.stack([v.weights for v in vertices])
        matrix.setflags(write=False)
        self._freeze(space=space, vertices=vertices, matrix=matrix)

    @classmethod
    def from_rows(cls, space: Space, rows: Sequence[Sequence[float]],
                  tol: float = DEFAULT_TOL) -> "CredalSet":
        return cls(space, [ProbVector(space, row) for row in rows], tol)

    @classmethod
    def simplex(cls, space: Space) -> "CredalSet":
        """The set of all probabilities on the space (hull of the Diracs)."""
        return cls(space, [ProbVector(space, row) for row in np.eye(space.size)],
                   canonical=True)

    @classmethod
    def singleton(cls, P: ProbVector) -> "CredalSet":
        return cls(P.space, [P], canonical=True)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"CredalSet({self.space!r}, {self.n_vertices} vertices)"


def _membership_rows(points: np.ndarray, p: np.ndarray):
    """Equality system for barycentric coordinates: points.T @ lam = p, sum lam = 1."""
    k = points.shape[0]
    A = np.vstack([points.T, np.ones((1, k))])
    b = np.concatenate([p, [1.0]])
    return A, b


def _distinct(rows: np.ndarray) -> list[int]:
    """Indices of the rows farther than ``DEDUP_TOL`` (sup norm) from every
    earlier kept row; the first listing of each duplicate group survives."""
    keep: list[int] = []
    for i, row in enumerate(rows):
        if np.all(np.max(np.abs(rows[keep] - row), axis=1) > DEDUP_TOL):
            keep.append(i)
    return keep


def _canonicalize(space: Space, vertices: tuple[ProbVector, ...], tol: float):
    points = np.stack([v.weights for v in vertices])
    keep = _distinct(points)
    if len(keep) > 1:
        # scan from the back so that, among redundant generators, the ones
        # listed first survive
        for pos in range(len(keep) - 1, -1, -1):
            if len(keep) == 1:
                break
            others = points[[j for j in keep if j != keep[pos]]]
            A, b = _membership_rows(others, points[keep[pos]])
            if solve_lp(np.zeros(others.shape[0]), A, b, tol).status == OPTIMAL:
                del keep[pos]
    return tuple(vertices[i] for i in keep)


def sublinear_expectation(S: CredalSet, X: RandomVariable) -> float:
    """Upper expectation ``max over vertices of E_P[X]``.

    A linear objective over a polytope peaks at a vertex, so the vertex
    maximum equals the supremum over the whole set.
    """
    _check_same_space(S.space, X.space, "sublinear expectation")
    return float(np.max(S.matrix @ X.values))


def _membership_lp(S: CredalSet, P: ProbVector, tol: float):
    A, b = _membership_rows(S.matrix, P.weights)
    return solve_lp(np.zeros(S.n_vertices), A, b, tol)


def membership(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL):
    """Hull membership with a barycentric certificate.

    Returns ``(True, lam)`` with ``lam`` the convex coefficients over the
    vertices when ``P`` belongs to the set, else ``(False, None)``.
    """
    _check_same_space(S.space, P.space, "membership")
    res = _membership_lp(S, P, tol)
    if res.status == OPTIMAL:
        lam = np.maximum(res.x, 0.0)
        return True, lam / lam.sum()
    return False, None


def separate(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL) -> SeparationCertificate:
    """A witness payoff with ``E_P[X] > sublinear_expectation(S, X)``.

    The witness is the dual certificate of the infeasible membership
    program.  Margins are invariant under adding constants to the
    direction, so the witness is centered (max +1, min -1) before the
    sup-norm normalization; that makes the reported direction canonical.
    Raises :class:`NotSeparableError` when ``P`` is a member (the conjugate
    value is zero there, so no separating direction exists).
    """
    _check_same_space(S.space, P.space, "separate")
    return _certificate(S, P, _membership_lp(S, P, tol), tol)


def _certificate(S: CredalSet, P: ProbVector, res, tol: float) -> SeparationCertificate:
    """The separation certificate carried by a solved membership program."""
    if res.status != INFEASIBLE:
        raise NotSeparableError("point is a member of the set")
    direction = res.dual[:-1]
    direction = direction - 0.5 * (direction.max() + direction.min())
    scale = float(np.max(np.abs(direction)))
    if scale <= 0.0:  # pragma: no cover - a constant direction cannot separate
        raise NotSeparableError("degenerate separation direction")
    witness = RandomVariable(S.space, direction / scale)
    margin = float(np.dot(P.weights, witness.values)) - sublinear_expectation(S, witness)
    if margin <= tol:
        raise NotSeparableError("point is within tolerance of the set")
    return SeparationCertificate(witness, margin)


def first_outside(A: CredalSet, B: CredalSet, tol: float = DEFAULT_TOL):
    """The first vertex of ``A`` outside ``B`` with its separation certificate.

    Returns ``(vertex, certificate)``, or ``None`` when ``A`` is contained
    in ``B``.  Each vertex costs one membership program; the certificate is
    read from the same program that decided non-membership.
    """
    _check_same_space(A.space, B.space, "set inclusion")
    for v in A.vertices:
        res = _membership_lp(B, v, tol)
        if res.status != OPTIMAL:
            return v, _certificate(B, v, res, tol)
    return None


def conjugate_indicator(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL) -> float:
    """The conjugate of the sublinear expectation: 0 on members, +inf outside."""
    member, _ = membership(S, P, tol)
    return 0.0 if member else float("inf")


def equal_sets(S1: CredalSet, S2: CredalSet, tol: float = DEFAULT_TOL) -> bool:
    """Set equality via cross membership of the canonical vertices."""
    _check_same_space(S1.space, S2.space, "set equality")
    for v in S1.vertices:
        if not membership(S2, v, tol)[0]:
            return False
    for v in S2.vertices:
        if not membership(S1, v, tol)[0]:
            return False
    return True


def marginal_set(S: CredalSet) -> CredalSet:
    """The first-coordinate restriction of a credal set on a product space.

    The marginal map is linear, so the hull of the vertex marginals equals
    the set of marginals of all members.
    """
    space = S.space
    if not isinstance(space, ProductSpace):
        raise SpaceMismatchError("marginal_set needs a credal set on a product space")
    nu, nv = space.u_space.size, space.v_space.size
    rows = S.matrix.reshape(S.n_vertices, nu, nv).sum(axis=2)
    return CredalSet(space.u_space, [ProbVector(space.u_space, row) for row in rows])
