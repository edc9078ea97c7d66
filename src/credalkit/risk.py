"""Time-consistent robust risk measures on scenario trees.

The one-step measure is an optimized certainty equivalent
``inf over s of (worst-case E[loss(X - s)] + s)`` for a convex,
nondecreasing, piecewise-linear loss with zero value at zero; the loss
``max(x, 0) / level`` gives the robust average value at risk.  Its exact
dual is the supremum of plain expectations over all probabilities whose
density against *some* member of the ambiguity set is capped at
``1 / level`` -- note the cap measure ranges over the whole set, not just
its vertices: the capped-expectation value is concave in the reference
measure, so restricting to vertices can undershoot.  By duality that
supremum is the AVaR value itself, so one scan serves both; the dual set is
enumerated explicitly only when asked for.  Multi-period values follow by
backward induction level by level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, frexp
from typing import Callable, Sequence

import numpy as np

from .credal import _CELL_BUDGET, CredalSet, _pair_blocks, _solve
from .errors import CredalkitError, SizeGuardError, ValidationError
from .lp import DEFAULT_TOL
from .spaces import Frozen, OutcomeSpace, RandomVariable, _check_same_space

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


def _avar_level(level: float) -> None:
    if not (0.0 < level <= 1.0):
        raise ValidationError("level must lie in (0, 1]")


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

    __slots__ = ("breakpoints", "slopes", "_pieces", "boundary")

    def __init__(self, breakpoints: Sequence[float], slopes: Sequence[float],
                 *, boundary: bool = False):
        bp = np.asarray(breakpoints, dtype=float).reshape(-1)
        sl = np.asarray(slopes, dtype=float).reshape(-1)
        if bp.size == 0:
            raise ValidationError("a piecewise loss needs at least one breakpoint")
        if bp.size + 1 != sl.size:
            raise ValidationError("need exactly one slope per segment")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl))):
            raise ValidationError("loss data must be finite")
        if np.any(bp[1:] <= bp[:-1]):
            raise ValidationError("breakpoints must be strictly increasing")
        if np.any(np.diff(sl) < 0):
            raise ValidationError("slopes must be nondecreasing (convexity)")
        if sl[0] < 0:
            raise ValidationError("loss must be nondecreasing")
        if sl[0] > 1:
            raise ValidationError("first slope above one leaves the objective unbounded")
        if not boundary and sl[-1] <= 1.0:
            raise ValidationError("last slope must exceed one")

        # loss values at breakpoints, l(0) = 0; overflowing sums are taken on bp / 2 and doubled
        seg0 = int(np.searchsorted(bp, 0.0, side="right"))
        j0 = max(seg0 - 1, 0)
        for e in (0, 1):
            h = np.ldexp(bp, -e)
            with np.errstate(over="ignore", invalid="ignore"):
                rel = np.concatenate([[0.0], np.cumsum(sl[1:-1] * np.diff(h))])
                anchors = np.ldexp(rel - (rel[j0] + sl[seg0] * (0.0 - h[j0])), e)
            if np.all(np.isfinite(anchors)):
                break

        # per segment: loss at its anchor, slope, anchor (left breakpoint, the first for segment 0)
        self._freeze(breakpoints=bp, slopes=sl, boundary=boundary,
                     _pieces=np.stack([np.r_[anchors[:1], anchors], sl, np.r_[bp[:1], bp]]))

    @classmethod
    def avar(cls, level: float) -> "LossSpec":
        _avar_level(level)
        slope = 1.0 / float(level)
        if slope == np.inf:
            raise ValidationError(
                f"level {level!r} is too small: 1/level overflows the float range")
        return cls([0.0], [0.0, slope], boundary=level == 1.0)

    @classmethod
    def piecewise(cls, breakpoints, slopes) -> "LossSpec":
        return cls(breakpoints, slopes)

    def __call__(self, x):
        """Evaluate the loss at (an array of) points."""
        x = np.asarray(x, dtype=float)
        anchor, slope, start = self._pieces.take(self._segment(x), axis=1)
        return anchor + slope * (x - start)

    def _segment(self, x: np.ndarray) -> np.ndarray:
        """Each point's segment, as ``searchsorted(side="right")`` finds it off NaN: counted up to
        eight breakpoints (one byte per point and breakpoint, no more than the loss array)."""
        if self.breakpoints.size > 8:
            return np.searchsorted(self.breakpoints, x, side="right")
        return np.add.reduce(np.less_equal.outer(self.breakpoints, x), axis=0, dtype=np.uint8)


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
    value, minimizer = _oce_batch(S.matrix[None], X.values[None], L)
    return OceResult(float(value[0]), float(minimizer[0]))


def _expect(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``E[Y[c, r]]`` under every vertex of ``V[r]``, shape ``(k, c, r)``: vertices lead.

    Each product is the matrix-vector call ``V[r] @ Y[c, r]`` makes, so a batch agrees bit for
    bit with per-node evaluation; it is the scan's only expectation kernel.
    """
    return np.matmul(V, Y[..., None])[..., 0].transpose(2, 0, 1).copy()


def _objective(V: np.ndarray, x: np.ndarray, L: LossSpec, s: np.ndarray):
    """``s + max over vertices of E[loss(x - s)]`` at every point ``s[c, r]``, with each row's
    first minimum ``j`` (``argmin``'s) and the per-vertex expectations at points ``j - 1`` and
    ``j`` (``j`` twice when ``j = 0``), shape ``(k, 2, r)``."""
    # chunks of candidates whose loss and expectation arrays hold at most _CELL_BUDGET cells
    # (rows * max(k, n) when that is more), so wide one-step scans need no quadratic temporaries;
    # the running minimum keeps 2 k r cells, and the previous chunk's last column k r more
    out = np.empty(s.shape)
    rows = np.arange(s.shape[1])
    step = max(1, _CELL_BUDGET // (s.shape[1] * max(V.shape[1:])))
    for lo in range(0, s.shape[0], step):
        c = s[lo : lo + step]
        E = _expect(V, L(x - c[..., None]))
        f = out[lo : lo + step] = c + E.max(axis=0)
        jc, fc = f.argmin(axis=0), f.min(axis=0)
        # a row's minimum moves here when below the kept one, or NaN first, as in argmin
        new = lo == 0 or (fc < best) | (np.isnan(fc) > np.isnan(best))
        if np.any(new):
            at = E.reshape(len(E), -1).take(np.maximum(jc - [[1], [0]], 0) * len(rows) + rows, 1)
            if lo:
                at[:, 0] = np.where(jc > 0, at[:, 0], last)
                jc, fc, at = (np.where(new, lo + jc, j), np.where(new, fc, best),
                              np.where(new, at, kept))
            j, best, kept = jc, fc, at
        last = E[:, -1].copy()
    return out, j, kept


def _oce_batch(V: np.ndarray, x: np.ndarray, L: LossSpec):
    """Values and smallest-tie minimizers of the one-step OCE, row by row.

    Row ``r`` has vertex matrix ``V[r]`` and payoff ``x[r]``.  Candidates lie along the leading
    axis, sorted with their duplicates: equal points have equal objectives, so ``argmin`` picks
    the first copy and its neighbours bracket it.  The objective is scored once at each
    candidate and at each vertex crossing, (pair-bracket, row) entry by entry, the crossings
    found and scored a block of vertex pairs (at most ``_CELL_BUDGET`` cells) at a time; minima
    and tie tests run in the order of candidates, then crossings.  A scan whose losses could
    overflow runs on ``x / 2^k``.
    """
    k = frexp(L.slopes[-1])[1] + frexp(max(x.max(), -x.min(), *abs(L.breakpoints)))[1] - 1019
    if k > 0:  # every loss is below 32 m max|x, bp| (m the last slope); 2^-k scales exactly
        Lk = LossSpec(np.ldexp(L.breakpoints, -k), L.slopes, boundary=L.boundary)
        value, minimizer = (np.ldexp(v, k) for v in _oce_batch(V, np.ldexp(x, -k), Lk))
        if not np.all(np.isfinite(value)):
            raise CredalkitError("the OCE value overflows the float range")
        return value, minimizer
    r = x.shape[0]
    rows = np.arange(r)
    cand = np.sort((x[:, :, None] - L.breakpoints).reshape(r, -1), axis=1).T.copy()
    f, j, at = _objective(V, x, L, cand)
    # flat indices of the previous candidate (the minimum itself when it comes first), the
    # minimum, and the first larger candidate (the first one, an empty bracket, when none is)
    ends = np.concatenate([np.maximum(j - 1, 0), j, np.argmax(cand > cand[j, rows], axis=0)])
    ends = ends.reshape(3, -1) * r + rows
    a, b = cand.take(ends[:2]), cand.take(ends[1:])
    # on an open bracket every loss(x_i - s) is linear in s, so each vertex objective is the
    # line alphas * s + betas, with the slopes' expectation taken at the bracket's midpoint
    alphas = 1.0 - _expect(V, L.slopes.take(L._segment(x - (0.5 * (a + b))[..., None])))
    betas = a + at - alphas * a
    step = max(1, _CELL_BUDGET // a.size)  # vertex pairs per block of (pair, bracket, row) cells
    found = []  # (rows, crossings, objectives) of each block's live entries, in flat order
    for i, j in _pair_blocks(V.shape[1], step):
        cross = _vertex_crossings(alphas, betas, a, b, i, j)
        hit, g = _crossing_objective(V, x, L, cross.reshape(-1))
        found.append((hit % r, cross.take(hit), g))
    row, cross, g = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
    value = np.fmin.reduce(f, axis=0)
    np.fmin.at(value, row, g)
    tied = value + _TIE_TOL
    minimizer = np.where(f <= tied, cand, np.inf).min(axis=0)
    np.minimum.at(minimizer, row, np.where(g <= tied.take(row), cross, np.inf))
    return value, minimizer


def _vertex_crossings(alphas, betas, a, b, i, j):
    """Interior points of each ``(a[c, r], b[c, r])`` where the vertex objectives ``i`` and
    ``j`` meet, given each vertex's line ``alphas * s + betas`` there.

    Pairwise intersections are the only extra kink candidates the breakpoint grid misses.
    Shape ``(pairs * brackets, r)``, NaN where a pair does not cross inside.
    """
    da = alphas[i] - alphas[j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf lies outside
        s = (betas[j] - betas[i]) / da
    inside = (np.abs(da) >= 1e-15) & (a + 1e-15 < s) & (s < b - 1e-15)
    return np.where(inside, s, np.nan).reshape(-1, a.shape[1])


def _crossing_objective(V, x, L, cross):
    """``(entries, values)``: the objective at each crossing of the flat ``(pair-bracket, row)``
    block ``cross``, which ``_pair_blocks``' step has sized, at its non-NaN entries only, in
    order.  They are scored in chunks whose gathered payoffs, vertex matrices, losses and
    expectations hold at most ``_CELL_BUDGET`` cells each."""
    r, (k, n) = x.shape[0], V.shape[1:]
    per = max(1, _CELL_BUDGET // (k * n if V.shape[0] > 1 else max(k, n)))
    live, g = np.flatnonzero(~np.isnan(cross)), [np.empty(0)]
    for e in (live[c : c + per] for c in range(0, live.size, per)):
        row = e % r
        g.append(_objective(V if V.shape[0] == 1 else V[row], x[row], L, cross[e][None])[0][0])
    return live, np.concatenate(g)


def avar_dual_evaluate(S: CredalSet, level: float, X: RandomVariable) -> float:
    """Exact sup of ``E_Q[X]`` over densities capped at ``1/level``.

    The feasible pairs are ``(Q, mix)`` with ``Q`` a probability and
    ``Q <= (mix of vertices) / level`` componentwise.  By linear-programming
    duality (Rockafellar and Uryasev; Ben-Tal and Teboulle) that supremum is
    the robust AVaR ``inf over s of (s + max over S of E[max(X - s, 0)] / level)``,
    so it is read off the one-step scan, ``oce`` with the AVaR loss.  Where ``1/level``
    overflows, the value is ``max X`` over the face ``avar_dual_set`` answers there.
    """
    _check_same_space(S.space, X.space, "avar dual")
    _avar_level(level)
    if 1.0 / float(level) == np.inf:
        return float(np.max(X.values[_overflow_face(S.matrix, level)]))
    return oce(S, X, LossSpec.avar(level)).value


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
    caps and spend the leftover on one coordinate.  A level at which the caps
    or the enumeration overflow is answered only when the vertex mean caps
    every coordinate some vertex charges at 1 or more: the dual set is then the
    face of the simplex on those coordinates, the hull of their Diracs.
    """
    _avar_level(level)
    n = S.space.size
    if n > DUAL_SET_MAX_OUTCOMES:
        raise SizeGuardError(
            f"dual-set enumeration limited to {DUAL_SET_MAX_OUTCOMES} outcomes"
        )
    if level == 1.0:
        return S
    V = S.matrix
    try:
        with np.errstate(over="raise", invalid="raise"):
            pts = (_capped_box_vertices(V[0] / level, tol) if len(V) == 1
                   else _projected_lifted_vertices(V, level, tol))
    except FloatingPointError:
        pts = np.eye(n)[_overflow_face(V, level)]
    # the sorted order is the dual set's vertex order; construction drops
    # duplicates, keeping the first listing.  The feasibility screen admits
    # coordinates down to -tol: they are clamped to 0, as construction does
    pts = pts[np.lexsort(pts.T[::-1])]
    return CredalSet.from_rows(S.space, np.where(pts < 0.0, 0.0, pts), tol)


def _overflow_face(V: np.ndarray, level: float) -> np.ndarray:
    """The outcomes some vertex charges, when the vertex mean caps each of them at 1 or more:
    the dual set is then the face of the simplex on them.  Else the level is refused."""
    support = V.max(axis=0) > 0.0
    if not np.all(V.mean(axis=0)[support] >= level * (1.0 + 4 * len(V) * np.finfo(float).eps)):
        raise CredalkitError(f"dual-set enumeration overflows at level {level!r}")
    return support


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
        base = np.zeros(n)
        base[sat] = caps[sat]
        if rest <= tol:
            out.append(base)
            continue
        for j in range(n):
            if (mask >> j) & 1 or caps[j] < rest - tol:
                continue
            out.append(np.where(idx == j, rest, base))
    return np.vstack(out)


def _projected_lifted_vertices(V: np.ndarray, level: float, tol: float) -> np.ndarray:
    """Project lifted-polytope vertices onto the probability coordinates.

    The active sets are solved in lexicographic blocks of at most ``_CELL_BUDGET``
    cells, one stacked ``_solve`` per block; a singular system solves to NaN and
    drops out with every other non-finite solution.  The candidates are checked in one
    stacked ``np.matmul`` per block, the same matrix-vector product ``G @ z`` for each, so
    the candidates and their order are the per-system loop's.
    """
    k, n = V.shape
    d = n + k
    n_ineq = 2 * n + k
    combos = comb(n_ineq, d - 2)
    if combos > DUAL_SET_MAX_COMBINATIONS:
        raise SizeGuardError(
            f"dual-set enumeration needs {combos} active-set combinations, "
            f"budget is {DUAL_SET_MAX_COMBINATIONS}"
        )
    # inequality rows G z <= 0 over z = (q, mix)
    G = np.zeros((n_ineq, d))
    G[:n, :n] = np.eye(n)
    G[:n, n:] = -V.T / level
    G[n : 2 * n, :n] = -np.eye(n)
    G[2 * n :, n:] = -np.eye(k)

    out = []
    simplex_rows = np.zeros((2, d))
    simplex_rows[0, :n] = 1.0
    simplex_rows[1, n:] = 1.0
    rhs = np.zeros(d)
    rhs[:2] = 1.0
    block = _CELL_BUDGET // (d * d)  # at least 9: the combination guard admits d <= 84
    active_sets = itertools.combinations(range(n_ineq), d - 2)
    for _ in range(0, combos, block):
        flat = itertools.chain.from_iterable(itertools.islice(active_sets, block))
        active = np.fromiter(flat, np.intp).reshape(-1, d - 2)
        systems = np.concatenate([np.broadcast_to(simplex_rows, (len(active), 2, d)), G[active]], 1)
        Z = _solve(systems, rhs[None, :, None])[..., 0]
        Z = Z[np.isfinite(Z).all(axis=1)]  # a singular system solves to NaN
        out.extend(Z[(np.matmul(G, Z[..., None])[..., 0] <= tol).all(axis=1), :n])
    if not out:  # pragma: no cover - the lifted polytope is never empty
        raise CredalkitError(f"dual-set enumeration found no feasible vertex at level {level!r}")
    return np.vstack(out)


class ScenarioTree(Frozen):
    """A finite-horizon product tree with one ambiguity set per node.

    Level ``t`` has one node per length-``t`` path over the step space;
    ``ambiguity[t][node]`` is the credal set governing the next step from
    that node (nodes in row-major path order).  Terminal payoffs live on
    level ``horizon``.  The tree keeps each level as read-only stacks of vertex
    matrices, one per vertex count with its sorted node indices, or one matrix
    for a level that shares one set; a tree read from its level stacks builds
    ``ambiguity`` from them on first use.  Construction screens the node sets
    still pending their small-set screen as one stack per vertex count, so a
    scan refusal of such a set surfaces here.
    """

    __slots__ = ("step_space", "horizon", "_ambiguity", "_groups")

    def __init__(self, step_space: OutcomeSpace, horizon: int,
                 ambiguity: Sequence[Sequence[CredalSet]]):
        horizon = int(horizon)
        ambiguity = tuple(tuple(level) for level in ambiguity)
        _check_shape(step_space.size, horizon, ambiguity)
        for level in ambiguity:
            for S in level:
                _check_same_space(S.space, step_space, "tree ambiguity")
        CredalSet._settle(itertools.chain.from_iterable(ambiguity))
        self._freeze(step_space=step_space, horizon=horizon, _ambiguity=ambiguity,
                     _groups=tuple(map(_level_groups, ambiguity)))

    @classmethod
    def _from_stacks(cls, step_space: OutcomeSpace, horizon: int, levels) -> "ScenarioTree":
        """The tree of level stacks ``levels[t] = [(nodes, matrices), ...]`` on ``step_space``
        (one stack per vertex count, the nodes a sorted index array, the matrices read-only),
        validated and canonicalized, in a shape ``_check_shape`` has passed."""
        return cls.__new__(cls)._freeze(step_space=step_space, horizon=horizon, _ambiguity=None,
                                        _groups=tuple(levels))

    @property
    def ambiguity(self) -> tuple:
        if self._ambiguity is None:  # built once; a race builds equal sets twice
            b = self.step_space.size
            self._freeze(_ambiguity=tuple(
                tuple(CredalSet._unstack(self.step_space, groups, b**t))
                for t, groups in enumerate(self._groups)))
        return self._ambiguity

    @property
    def n_terminal(self) -> int:
        return self.step_space.size**self.horizon

    @classmethod
    def uniform(cls, step_space: OutcomeSpace, horizon: int,
                S: CredalSet) -> "ScenarioTree":
        """The tree using the same ambiguity set at every node."""
        b = step_space.size
        _check_tree_size(b, int(horizon))
        return cls(step_space, horizon, [[S] * (b**t) for t in range(horizon)])


def _check_shape(b: int, horizon: int, levels: Sequence) -> None:
    """Refuse a tree of ``levels`` (one sized sequence of nodes per level) on ``b`` outcomes
    whose horizon, total size, level count or level widths are wrong, reading no node."""
    if horizon < 1:
        raise ValidationError("horizon must be at least one")
    _check_tree_size(b, horizon)
    if len(levels) != horizon:
        raise ValidationError(f"need ambiguity for {horizon} levels, got {len(levels)}")
    for t, level in enumerate(levels):
        if len(level) != b**t:
            raise ValidationError(f"level {t} needs {b**t} ambiguity sets, got {len(level)}")


def _check_tree_size(b: int, horizon: int) -> None:
    """Refuse a tree of more than ``MAX_TREE_NODES`` nodes, counting no further."""
    total, width = 0, 1
    for _ in range(horizon + 1):
        total += width
        if total > MAX_TREE_NODES:
            raise SizeGuardError(f"tree exceeds {MAX_TREE_NODES} nodes")
        width *= b


def _level_groups(sets: Sequence[CredalSet]):
    """``(nodes, stacked vertex matrices)`` per vertex count of one tree level, read-only.

    A level that shares one set stores its matrix once, as ``(slice(None), matrix[None])``: a
    batch of one that broadcasts over the nodes.  Any other level's nodes are sorted index
    arrays.  Sets are never padded to a common vertex count: padding changes the rounding.
    """
    if all(S is sets[0] for S in sets):
        return [(slice(None), sets[0].matrix[None])]
    by_count: dict[int, list[int]] = {}
    for node, S in enumerate(sets):
        by_count.setdefault(S.n_vertices, []).append(node)
    groups = [(np.array(nodes), np.stack([sets[i].matrix for i in nodes]))
              for nodes in by_count.values()]
    for _, V in groups:
        V.setflags(write=False)
    return groups


def _backward(tree: ScenarioTree, X: RandomVariable,
              step_values: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """Every level's values, one ``step_values`` call per vertex-count group the tree holds.

    ``step_values(V, children)`` maps stacked vertex matrices ``(r, k, b)``
    and child values ``(r, b)`` to the ``r`` node values.
    """
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
        for nodes, V in tree._groups[t]:
            vals[nodes] = step_values(V, children[nodes])
        levels[t] = vals
    return levels


def compose_risk(tree: ScenarioTree, X: RandomVariable, L: LossSpec):
    """Backward induction of the one-step certainty equivalent.

    Returns one value array per level, terminal payoffs included; the root
    value is ``result[0][0]``.
    """
    return _backward(tree, X, lambda V, children: _oce_batch(V, children, L)[0])


def compose_sublinear(tree: ScenarioTree, X: RandomVariable):
    """Backward induction of the plain worst-case expectation."""
    return _backward(tree, X, lambda V, children: _expect(V, children[None]).max(axis=(0, 1)))
