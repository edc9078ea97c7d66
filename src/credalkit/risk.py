"""Time-consistent robust risk measures on scenario trees.

The one-step measure is an optimized certainty equivalent
``inf over s of (worst-case E[loss(X - s)] + s)`` for a convex,
nondecreasing, piecewise-linear loss with zero value at zero; the loss
``max(x, 0) / level`` gives the robust average value at risk.  Its exact
dual is the supremum of plain expectations over all probabilities whose
density against *some* member of the ambiguity set is capped at
``1 / level`` -- note the cap measure ranges over the whole set, not just
its vertices: the capped-expectation value is concave in the reference
measure, so restricting to vertices can undershoot.  Multi-period values
follow by backward induction node by node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from .credal import CredalSet, DEDUP_TOL, sublinear_expectation
from .errors import SizeGuardError, ValidationError
from .lp import DEFAULT_TOL, OPTIMAL, solve_lp
from .spaces import Frozen, OutcomeSpace, ProbVector, RandomVariable, _check_same_space

# Explicit dual-set construction enumerates vertex candidates; past this
# many outcomes the construction is refused (evaluation has no such limit).
DUAL_SET_MAX_OUTCOMES = 10
# Active-set combinations scanned during dual-set vertex enumeration.
DUAL_SET_MAX_COMBINATIONS = 100_000
# Tree evaluation refuses more than this many nodes.
MAX_TREE_NODES = 200_000

# Ties between one-step minimizers are resolved to the smallest location;
# two objective values this close count as tied.
_TIE_TOL = 1e-12


class LossSpec(Frozen):
    """A convex nondecreasing piecewise-linear loss with ``l(0) = 0``.

    ``slopes`` has one entry per segment (one more than ``breakpoints``)
    and must be nondecreasing and nonnegative; the last slope must exceed
    one and the first must not, which makes the certainty-equivalent
    objective coercive on the left and nondecreasing on the right, so its
    minimum is attained.  The average-value-at-risk loss is
    ``max(x, 0) / level``; ``level == 1`` is admitted as a degenerate
    boundary useful for cross-checks (the measure then collapses to the
    worst-case expectation) and is flagged by ``boundary``.
    """

    __slots__ = ("breakpoints", "slopes", "_anchors", "level", "boundary")

    def __init__(self, breakpoints: Sequence[float], slopes: Sequence[float],
                 level: Optional[float] = None, _allow_boundary: bool = False):
        bp = np.asarray(breakpoints, dtype=float).reshape(-1)
        sl = np.asarray(slopes, dtype=float).reshape(-1)
        if bp.size == 0:
            raise ValidationError("a piecewise loss needs at least one breakpoint")
        if bp.size + 1 != sl.size:
            raise ValidationError("need exactly one slope per segment")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl))):
            raise ValidationError("loss data must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if np.any(np.diff(sl) < 0):
            raise ValidationError("slopes must be nondecreasing (convexity)")
        if sl[0] < 0:
            raise ValidationError("loss must be nondecreasing")
        if sl[0] > 1:
            raise ValidationError("first slope above one leaves the objective unbounded")
        boundary = bool(_allow_boundary and sl[-1] <= 1.0 + 1e-15)
        if not boundary and sl[-1] <= 1.0:
            raise ValidationError("last slope must exceed one")

        # loss values at the breakpoints, anchored so that l(0) = 0
        rel = np.concatenate([[0.0], np.cumsum(sl[1:-1] * np.diff(bp))])
        seg0 = int(np.searchsorted(bp, 0.0, side="right"))
        j0 = max(seg0 - 1, 0)
        anchors = rel - (rel[j0] + sl[seg0] * (0.0 - bp[j0]))

        for arr in (bp, sl, anchors):
            arr.setflags(write=False)
        self._freeze(breakpoints=bp, slopes=sl, _anchors=anchors, level=level,
                     boundary=boundary)

    @classmethod
    def avar(cls, level: float) -> "LossSpec":
        if not (0.0 < level <= 1.0):
            raise ValidationError("level must lie in (0, 1]")
        return cls([0.0], [0.0, 1.0 / level], level=level,
                   _allow_boundary=(level == 1.0))

    @classmethod
    def piecewise(cls, breakpoints, slopes) -> "LossSpec":
        return cls(breakpoints, slopes)

    def __call__(self, x):
        """Evaluate the loss at (an array of) points."""
        x = np.asarray(x, dtype=float)
        seg = np.searchsorted(self.breakpoints, x, side="right")
        j = np.maximum(seg - 1, 0)
        return self._anchors[j] + self.slopes[seg] * (x - self.breakpoints[j])


@dataclass(frozen=True)
class OceResult:
    value: float
    minimizer: float  # the smallest minimizing kink location


def oce(S: CredalSet, X: RandomVariable, L: LossSpec) -> OceResult:
    """One-step robust optimized certainty equivalent, minimized exactly.

    The objective ``f(s) = s + max over vertices of E[loss(X - s)]`` is
    convex piecewise linear.  Kinks sit where some payoff entry crosses a
    loss breakpoint *or* where the active vertex switches; the scan
    therefore evaluates all shifted-breakpoint candidates, brackets the
    discrete minimum, and adds the pairwise vertex-crossing points inside
    the two bracketing intervals.  A scan over shifted breakpoints alone
    can overshoot on multi-vertex sets.
    """
    _check_same_space(S.space, X.space, "oce")
    x = X.values
    V = S.matrix
    cand = np.unique((x[:, None] - L.breakpoints[None, :]).reshape(-1))

    def f(s: float) -> float:
        return s + float(np.max(V @ L(x - s)))

    evaluated = [(float(s), f(float(s))) for s in cand]
    j = int(np.argmin([v for _, v in evaluated]))
    brackets = []
    if j > 0:
        brackets.append((float(cand[j - 1]), float(cand[j])))
    if j + 1 < cand.size:
        brackets.append((float(cand[j]), float(cand[j + 1])))
    for a, b in brackets:
        evaluated.extend((s, f(s)) for s in _vertex_crossings(V, x, L, a, b))

    value = min(v for _, v in evaluated)
    minimizer = min(s for s, v in evaluated if v <= value + _TIE_TOL)
    return OceResult(value, minimizer)


def _vertex_crossings(V, x, L, a, b):
    """Interior points of ``(a, b)`` where two vertex objectives intersect.

    On the open interval every ``loss(x_i - s)`` is linear in ``s``, so
    each vertex objective is a line; pairwise intersections are the only
    extra kink candidates the breakpoint grid misses.
    """
    mid = 0.5 * (a + b)
    seg_slopes = L.slopes[np.searchsorted(L.breakpoints, x - mid, side="right")]
    alphas = 1.0 - V @ seg_slopes
    at_a = a + V @ L(x - a)
    betas = at_a - alphas * a
    out = []
    k = V.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            da = alphas[i] - alphas[j]
            if abs(da) < 1e-15:
                continue
            s = (betas[j] - betas[i]) / da
            if a + 1e-15 < s < b - 1e-15:
                out.append(float(s))
    return out


def avar_dual_evaluate(S: CredalSet, level: float, X: RandomVariable,
                       tol: float = DEFAULT_TOL) -> float:
    """Exact sup of ``E_Q[X]`` over densities capped at ``1/level``.

    The feasible pairs are ``(Q, mix)`` with ``Q`` a probability and
    ``Q <= (mix of vertices) / level`` componentwise; one linear program
    maximizes the payoff expectation over them.
    """
    _check_same_space(S.space, X.space, "avar dual")
    if not (0.0 < level <= 1.0):
        raise ValidationError("level must lie in (0, 1]")
    n = S.space.size
    k = S.n_vertices
    # variables: q (n), mix (k), slack (n); rows: caps (n), two simplex rows
    A = np.zeros((n + 2, 2 * n + k))
    A[:n, :n] = np.eye(n)
    A[:n, n : n + k] = -S.matrix.T / level
    A[:n, n + k :] = np.eye(n)
    A[n, :n] = 1.0
    A[n + 1, n : n + k] = 1.0
    b = np.concatenate([np.zeros(n), [1.0, 1.0]])
    c = np.concatenate([-X.values, np.zeros(n + k)])
    res = solve_lp(c, A, b, tol)
    if res.status != OPTIMAL:  # pragma: no cover - feasible by construction
        raise RuntimeError("dual evaluation program must be feasible and bounded")
    return -res.value


def avar_dual_set(S: CredalSet, level: float, tol: float = DEFAULT_TOL) -> CredalSet:
    """The capped-density dual ambiguity set, as an explicit credal set.

    A pair ``(Q, mix)`` is feasible when ``Q`` is a probability capped
    componentwise by the mixed vertex measure over ``level``.  Every vertex
    of the projected set is the projection of a vertex of that lifted
    polytope, so enumerating lifted active sets (intersections of the two
    simplex equalities with dim-2 further tight inequalities) and keeping
    the feasible solutions yields a superset of the dual set's vertices;
    canonicalization removes the rest.  Singleton sets take a direct route:
    their dual polytope is a capped box whose vertices saturate a subset of
    caps and spend the leftover on one coordinate.
    """
    if not (0.0 < level <= 1.0):
        raise ValidationError("level must lie in (0, 1]")
    n = S.space.size
    if n > DUAL_SET_MAX_OUTCOMES:
        raise SizeGuardError(
            f"dual-set enumeration limited to {DUAL_SET_MAX_OUTCOMES} outcomes"
        )
    if level == 1.0:
        return CredalSet(S.space, S.vertices, tol, canonical=True)
    if S.n_vertices == 1:
        pts = _capped_box_vertices(S.matrix[0] / level, tol)
    else:
        pts = _projected_lifted_vertices(S.matrix, level, tol)
    pts = _dedup_rows(pts)
    return CredalSet(S.space, [ProbVector(S.space, p) for p in pts], tol)


def _capped_box_vertices(caps: np.ndarray, tol: float) -> np.ndarray:
    """Vertices of ``{q >= 0, q <= caps, sum q = 1}`` by subset saturation."""
    n = caps.size
    out = []
    idx = np.arange(n)
    for mask in range(1 << n):
        sat = idx[[(mask >> i) & 1 == 1 for i in range(n)]]
        s = float(np.sum(caps[sat]))
        if s > 1.0 + tol:
            continue
        rest = 1.0 - s
        if rest <= tol:
            q = np.zeros(n)
            q[sat] = caps[sat]
            out.append(q)
            continue
        for j in range(n):
            if (mask >> j) & 1 or caps[j] < rest - tol:
                continue
            q = np.zeros(n)
            q[sat] = caps[sat]
            q[j] = rest
            out.append(q)
    return np.vstack(out)


def _projected_lifted_vertices(V: np.ndarray, level: float, tol: float) -> np.ndarray:
    """Project lifted-polytope vertices onto the probability coordinates."""
    k, n = V.shape
    d = n + k
    n_ineq = 2 * n + k
    combos = comb(n_ineq, d - 2)
    if combos > DUAL_SET_MAX_COMBINATIONS:
        raise SizeGuardError(
            f"dual-set enumeration needs {combos} active-set combinations, "
            f"budget is {DUAL_SET_MAX_COMBINATIONS}"
        )
    # inequality rows G z <= h over z = (q, mix)
    G = np.zeros((n_ineq, d))
    G[:n, :n] = np.eye(n)
    G[:n, n:] = -V.T / level
    G[n : 2 * n, :n] = -np.eye(n)
    G[2 * n :, n:] = -np.eye(k)
    h = np.zeros(n_ineq)
    E = np.zeros((2, d))
    E[0, :n] = 1.0
    E[1, n:] = 1.0
    e = np.array([1.0, 1.0])

    out = []
    system = np.empty((d, d))
    rhs = np.empty(d)
    system[:2] = E
    rhs[:2] = e
    for active in itertools.combinations(range(n_ineq), d - 2):
        system[2:] = G[list(active)]
        rhs[2:] = h[list(active)]
        try:
            z = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(z)):
            continue
        if np.all(G @ z <= h + tol):
            out.append(z[:n])
    if not out:  # pragma: no cover - the lifted polytope is never empty
        raise RuntimeError("dual-set enumeration found no feasible vertex")
    return np.vstack(out)


def _dedup_rows(pts: np.ndarray) -> np.ndarray:
    # Sort, then compare neighbours: O(n log n) over the many enumerated
    # candidates, where credal._distinct's first-listing scan is quadratic.
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    keep = [0]
    for i in range(1, pts.shape[0]):
        if np.max(np.abs(pts[i] - pts[keep[-1]])) > DEDUP_TOL:
            keep.append(i)
    return pts[keep]


class ScenarioTree(Frozen):
    """A finite-horizon product tree with one ambiguity set per node.

    Level ``t`` has one node per length-``t`` path over the step space;
    ``ambiguity[t][node]`` is the credal set governing the next step from
    that node (nodes in row-major path order).  Terminal payoffs live on
    level ``horizon``.
    """

    __slots__ = ("step_space", "horizon", "ambiguity")

    def __init__(self, step_space: OutcomeSpace, horizon: int,
                 ambiguity: Sequence[Sequence[CredalSet]]):
        horizon = int(horizon)
        if horizon < 1:
            raise ValidationError("horizon must be at least one")
        b = step_space.size
        total = sum(b**t for t in range(horizon + 1))
        if total > MAX_TREE_NODES:
            raise SizeGuardError(f"tree exceeds {MAX_TREE_NODES} nodes")
        ambiguity = tuple(tuple(level) for level in ambiguity)
        if len(ambiguity) != horizon:
            raise ValidationError(
                f"need ambiguity for {horizon} levels, got {len(ambiguity)}"
            )
        for t, level in enumerate(ambiguity):
            if len(level) != b**t:
                raise ValidationError(
                    f"level {t} needs {b**t} ambiguity sets, got {len(level)}"
                )
            for S in level:
                _check_same_space(S.space, step_space, "tree ambiguity")
        self._freeze(step_space=step_space, horizon=horizon, ambiguity=ambiguity)

    @property
    def n_terminal(self) -> int:
        return self.step_space.size**self.horizon

    @classmethod
    def uniform(cls, step_space: OutcomeSpace, horizon: int,
                S: CredalSet) -> "ScenarioTree":
        """The tree using the same ambiguity set at every node."""
        b = step_space.size
        return cls(step_space, horizon, [[S] * (b**t) for t in range(horizon)])


def _backward(tree: ScenarioTree, X: RandomVariable,
              step_value: Callable[[CredalSet, RandomVariable], float]):
    if X.space.size != tree.n_terminal:
        raise ValidationError(
            f"terminal payoff needs {tree.n_terminal} values, got {X.space.size}"
        )
    b = tree.step_space.size
    levels: list[np.ndarray] = [np.empty(0)] * (tree.horizon + 1)
    levels[tree.horizon] = np.asarray(X.values, dtype=float)
    for t in range(tree.horizon - 1, -1, -1):
        vals = np.empty(b**t)
        children = levels[t + 1].reshape(-1, b)
        for node, (S, child) in enumerate(zip(tree.ambiguity[t], children)):
            vals[node] = step_value(S, RandomVariable(tree.step_space, child))
        levels[t] = vals
    return levels


def compose_risk(tree: ScenarioTree, X: RandomVariable, L: LossSpec):
    """Backward induction of the one-step certainty equivalent.

    Returns one value array per level, terminal payoffs included; the root
    value is ``result[0][0]``.
    """
    return _backward(tree, X, lambda S, child: oce(S, child, L).value)


def compose_sublinear(tree: ScenarioTree, X: RandomVariable):
    """Backward induction of the plain worst-case expectation."""
    return _backward(tree, X, sublinear_expectation)
