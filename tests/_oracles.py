"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own solvers: hull
membership and penalty programs go through scipy's HiGHS backend,
suprema are brute-force enumerations, and the one-step risk minimization
is a refined grid scan.  The package must agree with these, never the
other way around.

The last section keeps the plain loop forms of computations the package
now vectorises or shortcuts (the per-node scalar OCE scan, node-by-node
backward induction, the first-listing duplicate scan, the sorted-neighbour
duplicate scan, the vertex match over all rows, the per-selection pasting
and composed-atom loops, the per-vertex Fubini transpose, the
branch-per-type report writer, the one-row probability check, the
node-by-node tree build, the entry-by-entry kernel build, the
one-``ProbVector``-per-row family builds, the full-width crossing scan with
the rows-first objective and ``searchsorted`` loss it ran on, the direct
loss anchors, the one-solve-per-active-set dual-set enumeration, the
one-program-at-a-time simplex); the package's versions must reproduce them
bit for bit.  The path-by-path walk expectation is the one exception: the
package computes it by backward induction, which rounds differently, so it
must agree to 1e-12.  The hull-program membership decision (``decide_lp``)
is kept as a verdict reference for the nearest-point decision that replaced
it, and the costed dominance loop (``envelope_atoms_lp``) for the
perspective-lift pruning that replaced it.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np
from scipy.optimize import linprog

from credalkit.errors import ValidationError


def hull_membership(points: np.ndarray, p: np.ndarray, tol: float = 1e-9):
    """Feasibility of ``p`` as a convex combination of the rows of ``points``."""
    k, n = points.shape
    A_eq = np.vstack([points.T, np.ones((1, k))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(np.zeros(k), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def min_penalty(points: np.ndarray, costs: np.ndarray, p: np.ndarray):
    """Cheapest convex combination of atoms reproducing ``p`` (inf outside)."""
    k = points.shape[0]
    A_eq = np.vstack([points.T, np.ones((1, k))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(costs, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return float("inf")
    return float(res.fun)


def worst_value_loss(points: np.ndarray, costs: np.ndarray, p: np.ndarray, c: float) -> float:
    """How far the atom ``(p, c)`` can exceed the family ``(points, costs)`` at a payoff with
    ``|X| <= 1``: HiGHS maximizes ``p.X - c - s`` over ``s >= points @ X - costs``, and the
    loss is recomputed at its clipped maximizer, away from the solver's tolerances."""
    k, n = points.shape
    res = linprog(np.append(-p, 1.0), A_ub=np.hstack([points, -np.ones((k, 1))]), b_ub=costs,
                  bounds=[(-1, 1)] * n + [(None, None)], method="highs")
    assert res.status == 0
    X = np.clip(res.x[:n], -1.0, 1.0)
    return float(p @ X - c - np.max(points @ X - costs))


def support_value(points: np.ndarray, x: np.ndarray) -> float:
    """Support function of the hull of ``points`` at direction ``x``."""
    return float(np.max(points @ x))


def pasting_generator_support(su_vertices, kernel_vertex_lists, x_joint) -> float:
    """Support of the pasted set at ``x_joint`` by full generator enumeration."""
    nu = len(kernel_vertex_lists)
    nv = kernel_vertex_lists[0][0].shape[0]
    best = -np.inf
    for q in su_vertices:
        for choice in itertools.product(*[range(len(vl)) for vl in kernel_vertex_lists]):
            joint = np.concatenate(
                [q[iu] * kernel_vertex_lists[iu][choice[iu]] for iu in range(nu)]
            )
            best = max(best, float(np.dot(joint, x_joint)))
    return best


def greedy_tail(p: np.ndarray, lam: float, x: np.ndarray) -> float:
    """Classical single-measure AVaR dual: fill mass on the largest payoffs."""
    order = np.argsort(-x, kind="stable")
    caps = p / lam
    q = np.zeros_like(p)
    remaining = 1.0
    for j in order:
        q[j] = min(caps[j], remaining)
        remaining -= q[j]
        if remaining <= 0:
            break
    return float(np.dot(q, x))


def robust_tail_lp(vertices: np.ndarray, lam: float, x: np.ndarray) -> float:
    """Exact sup of E_Q[x] over {Q <= P/lam, Q prob, P in hull(vertices)}."""
    k, n = vertices.shape
    # variables: q (n), mu (k)
    c = np.concatenate([-x, np.zeros(k)])
    A_ub = np.hstack([np.eye(n), -vertices.T / lam])
    b_ub = np.zeros(n)
    A_eq = np.zeros((2, n + k))
    A_eq[0, :n] = 1.0
    A_eq[1, n:] = 1.0
    b_eq = np.array([1.0, 1.0])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(-res.fun)


def oce_grid(vertices: np.ndarray, x: np.ndarray, loss, rounds: int = 4,
             grid: int = 2001) -> float:
    """Grid-refined one-step optimized certainty equivalent.

    ``loss`` maps an array of shortfalls to loss values.  Four refinement
    rounds around the incumbent bring the error well below 1e-6 for
    desk-scale payoffs.
    """
    lo = float(np.min(x)) - 1.0
    hi = float(np.max(x)) + 1.0
    best_s = None
    for _ in range(rounds):
        ss = np.linspace(lo, hi, grid)
        vals = np.array([s + np.max(vertices @ loss(x - s)) for s in ss])
        i = int(np.argmin(vals))
        best_s = ss[i]
        step = ss[1] - ss[0]
        lo, hi = best_s - 2 * step, best_s + 2 * step
    ss = np.linspace(lo, hi, grid)
    vals = np.array([s + np.max(vertices @ loss(x - s)) for s in ss])
    return float(np.min(vals))


def avar_loss(lam: float):
    return lambda z: np.maximum(z, 0.0) / lam


def tree_risk_grid(ambiguity_vertices, x_terminal: np.ndarray, branching: int,
                   loss) -> float:
    """Nested grid OCE evaluation of a scenario tree, root value only.

    ``ambiguity_vertices[t][node]`` is the vertex matrix of the node's
    credal set on the step space.
    """
    values = np.asarray(x_terminal, dtype=float)
    horizon = len(ambiguity_vertices)
    for t in range(horizon - 1, -1, -1):
        n_nodes = branching**t
        new_values = np.empty(n_nodes)
        for node in range(n_nodes):
            child = values[node * branching : (node + 1) * branching]
            new_values[node] = oce_grid(ambiguity_vertices[t][node], child, loss)
        values = new_values
    return float(values[0])


# ------------------------------------------------ loop references, bitwise


def oce_scalar(V: np.ndarray, x: np.ndarray, L, tie_tol: float = 1e-12):
    """``(value, minimizer)`` of the one-step OCE by the per-candidate scan.

    Evaluates ``s + max_k E_k[loss(x - s)]`` at every distinct shifted
    breakpoint, brackets the discrete minimum, adds the pairwise vertex
    crossings inside the two brackets, and returns the smallest location
    within ``tie_tol`` of the minimum.
    """
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
        evaluated.extend((s, f(s)) for s in vertex_crossings_scalar(V, x, L, a, b))
    value = min(v for _, v in evaluated)
    minimizer = min(s for s, v in evaluated if v <= value + tie_tol)
    return value, minimizer


def vertex_crossings_scalar(V, x, L, a, b):
    """Pairwise intersections of the vertex objective lines inside ``(a, b)``."""
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


def searchsorted_loss(L, x):
    """``L(x)``, each point's segment found by ``searchsorted``."""
    x = np.asarray(x, dtype=float)
    seg = np.searchsorted(L.breakpoints, x, side="right")
    j = np.maximum(seg - 1, 0)
    anchors = L._pieces[0, 1:]  # the loss at each breakpoint
    return anchors[j] + L.slopes[seg] * (x - L.breakpoints[j])


def expect_rows(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``E[Y[r, c]]`` under every vertex of ``V[r]``, shape ``(r, c, k)``, one gemv each."""
    return np.matmul(V[:, None], Y[..., None])[..., 0]


def objective_rows(V: np.ndarray, x: np.ndarray, L, s: np.ndarray) -> np.ndarray:
    """``s + max over vertices of E[loss(x - s)]`` at every point ``s[r, c]``, rows first,
    in chunks of candidates of at most ``2**16`` cells per array."""
    out = np.empty(s.shape)
    step = max(1, (1 << 16) // (s.shape[0] * max(V.shape[1:])))
    for lo in range(0, s.shape[1], step):
        c = s[:, lo : lo + step]
        loss = searchsorted_loss(L, x[:, None, :] - c[..., None])
        out[:, lo : lo + step] = c + np.max(expect_rows(V, loss), axis=-1)
    return out


def vertex_crossings_rows(V, x, L, a, b):
    """Interior points of each bracket ``(a[r, c], b[r, c])`` where two vertex objectives
    meet, one column per bracket and vertex pair, NaN where the pair does not cross inside.
    Each vertex line is anchored by evaluating the loss at ``a`` afresh."""
    mid = 0.5 * (a + b)
    seg = np.searchsorted(L.breakpoints, x[:, None, :] - mid[..., None], side="right")
    alphas = 1.0 - expect_rows(V, L.slopes[seg])
    at_a = a[..., None] + expect_rows(V, searchsorted_loss(L, x[:, None, :] - a[..., None]))
    betas = at_a - alphas * a[..., None]
    i, j = np.triu_indices(V.shape[1], 1)
    da = alphas[..., i] - alphas[..., j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (betas[..., j] - betas[..., i]) / da
    inside = (np.abs(da) >= 1e-15) & (a[..., None] + 1e-15 < s) & (s < b[..., None] - 1e-15)
    return np.where(inside, s, np.nan).reshape(a.shape[0], a.shape[1] * i.size)


def oce_batch_full_scan(V: np.ndarray, x: np.ndarray, L):
    """``risk._oce_batch`` as a rows-first scan scoring every row's vertex crossings, NaN
    columns included.

    The package lays candidates along a leading axis, counts segments against up to eight
    breakpoints and skips the rows and pair-brackets whose crossings are all NaN; this is the
    full-width scan it must reproduce bit for bit.
    """
    from credalkit import risk

    k = (math.frexp(L.slopes[-1])[1]
         + math.frexp(max(x.max(), -x.min(), *abs(L.breakpoints)))[1] - 1019)
    if k > 0:
        Lk = risk.LossSpec(np.ldexp(L.breakpoints, -k), L.slopes, boundary=L.boundary)
        value, minimizer = oce_batch_full_scan(V, np.ldexp(x, -k), Lk)
        return np.ldexp(value, k), np.ldexp(minimizer, k)
    rows = np.arange(x.shape[0])
    cand = np.sort((x[:, :, None] - L.breakpoints).reshape(x.shape[0], -1), axis=1)
    f = objective_rows(V, x, L, cand)
    j = np.argmin(f, axis=1)
    at = cand[rows, j]
    nxt = np.argmax(cand > at[:, None], axis=1)
    a = np.stack([cand[rows, np.maximum(j - 1, 0)], at], axis=1)
    b = np.stack([at, cand[rows, nxt]], axis=1)
    cross = vertex_crossings_rows(V, x, L, a, b)
    points = np.concatenate([cand, cross], axis=1)
    vals = np.concatenate([f, objective_rows(V, x, L, cross)], axis=1)
    value = np.nanmin(vals, axis=1)
    tied = vals <= value[:, None] + 1e-12
    return value, np.min(np.where(tied, points, np.inf), axis=1)


def backward_full_scan(ambiguity_vertices, x_terminal: np.ndarray, branching: int, L=None):
    """Every level of backward induction by the full-width scan (``L``) or the worst-case
    expectation (``L=None``), one stacked call per level and vertex count."""
    levels = [np.asarray(x_terminal, dtype=float)]
    for level in reversed(ambiguity_vertices):
        children = levels[0].reshape(-1, branching)
        vals = np.empty(len(level))
        for k in {V.shape[0] for V in level}:
            nodes = [i for i, V in enumerate(level) if V.shape[0] == k]
            V = np.stack([level[i] for i in nodes])
            if L is None:
                vals[nodes] = expect_rows(V, children[nodes, None]).max(axis=(1, 2))
            else:
                vals[nodes] = oce_batch_full_scan(V, children[nodes], L)[0]
        levels.insert(0, vals)
    return levels


def loss_anchors(breakpoints: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """A loss's values at its breakpoints, by the direct sums (``l(0) = 0``)."""
    rel = np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(breakpoints))])
    seg0 = int(np.searchsorted(breakpoints, 0.0, side="right"))
    j0 = max(seg0 - 1, 0)
    return rel - (rel[j0] + slopes[seg0] * (0.0 - breakpoints[j0]))


def backward_scalar(ambiguity_vertices, x_terminal: np.ndarray, branching: int,
                    step_value) -> list:
    """Every level of node-by-node backward induction.

    ``step_value(vertices, child_values)`` returns one node's value; the
    result lists one array per level, terminal payoffs last.
    """
    levels = [np.asarray(x_terminal, dtype=float)]
    for t in range(len(ambiguity_vertices) - 1, -1, -1):
        children = levels[0].reshape(-1, branching)
        levels.insert(0, np.array([step_value(V, child) for V, child
                                   in zip(ambiguity_vertices[t], children)]))
    return levels


def prob_weights(size: int, weights) -> np.ndarray:
    """One probability row checked, clamped and renormalized on its own, as
    ``ProbVector`` did before rows were validated as stacks."""
    from credalkit.spaces import WEIGHT_CLAMP, WEIGHT_SUM_TOL

    w = np.asarray(weights, dtype=float).reshape(-1).copy()
    if w.shape[0] != size:
        raise ValidationError(f"expected {size} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("probability weights must be finite")
    if np.any(w < -WEIGHT_CLAMP):
        raise ValidationError(
            f"negative probability weight {float(w.min())!r} below tolerance"
        )
    w[w < 0.0] = 0.0
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum {total!r} exceeds tolerance around 1")
    w /= total
    return w


def build_tree_per_node(sc, path: str, body):
    """``cli._build_tree`` as it was before levels were stacked: every node read,
    validated one row at a time (``prob_weights``) and canonicalized in turn, once the
    tree's counts are checked."""
    from credalkit.cli import _int, _list, _map, _resolve_space, _rows, _wrap
    from credalkit.credal import CredalSet
    from credalkit.risk import ScenarioTree, _check_shape
    from credalkit.spaces import ProbVector

    def credal(where, rows):
        built = _wrap(where, lambda: CredalSet(step, [ProbVector.__new__(ProbVector)._freeze(
            space=step, weights=prob_weights(step.size, row)) for row in rows], sc.tol))
        if _wrap(where, lambda: built.n_vertices) < len(rows):  # a small set screens on read
            sc.canonicalization.append(
                f"{where}: {len(rows) - built.n_vertices} redundant generator(s) dropped")
        return built

    body = _map(path, body)
    step_ref = body.get("step_space")
    if not isinstance(step_ref, str):
        raise ValidationError(f"{path}.step_space: expected a space name")
    step = _resolve_space(sc, step_ref, f"{path}.step_space")
    horizon = _int(f"{path}.horizon", body.get("horizon"))
    levels = [_list(f"{path}.ambiguity[{t}]", level)
              for t, level in enumerate(_list(f"{path}.ambiguity", body.get("ambiguity")))]
    _wrap(path, lambda: _check_shape(step.size, horizon, levels))
    ambiguity = []
    for t, level in enumerate(levels):
        sets = []
        for j, rows in enumerate(level):
            where = f"{path}.ambiguity[{t}][{j}]"
            sets.append(credal(where, _rows(where, rows)))
        ambiguity.append(sets)
    return _wrap(path, lambda: ScenarioTree(step, horizon, ambiguity))


def build_kernel_per_entry(sc, path: str, body):
    """``cli._build_kernel`` as it was before kernel tables were stacked: every outcome's
    entry read and built in turn, one ``from_rows`` per credal set or penalty family."""
    from credalkit.cli import _atom_rows, _list, _map, _resolve_space, _rows, _wrap
    from credalkit.conditional import CredalKernel, PenaltyKernel
    from credalkit.credal import CredalSet
    from credalkit.penalty import PenaltyAtoms

    def credal(where, rows):
        built = _wrap(where, lambda: CredalSet.from_rows(v_space, rows, sc.tol))
        if _wrap(where, lambda: built.n_vertices) < len(rows):  # a small set screens on read
            sc.canonicalization.append(
                f"{where}: {len(rows) - built.n_vertices} redundant generator(s) dropped")
        return built

    def penalty(where, atoms):
        built = _wrap(where, lambda: PenaltyAtoms.from_rows(v_space, atoms))
        if built.normalization_shift > 0.0:
            sc.warnings.append(f"{where}: costs shifted down by {built.normalization_shift!r}")
        return built

    families = {"credal": (CredalKernel, _rows, credal),
                "penalty": (PenaltyKernel, _atom_rows, penalty)}
    body = _map(path, body)
    u_space = _resolve_space(sc, body.get("u_space"), f"{path}.u_space")
    v_space = _resolve_space(sc, body.get("v_space"), f"{path}.v_space")
    kind = next((k for k in families if k in body), None)
    if kind is None:
        raise ValidationError(f'{path}: needs "credal" or "penalty" tables')
    cls, read, build = families[kind]
    per_u = _list(f"{path}.{kind}", body[kind])
    if len(per_u) != u_space.size:
        raise ValidationError(f"{path}.{kind}: need one entry per outcome")
    table = []
    for i, entry in enumerate(per_u):
        where = f"{path}.{kind}[{i}]"
        table.append(build(where, read(where, entry)))
    return cls(u_space, table)


def distinct_scan(rows: np.ndarray, tol: float = 1e-12) -> list:
    """Rows farther than ``tol`` (sup norm) from every earlier kept row."""
    keep: list = []
    for i, row in enumerate(rows):
        if np.all(np.max(np.abs(rows[keep] - row), axis=1) > tol):
            keep.append(i)
    return keep


def match_scan(rows: np.ndarray, queries: np.ndarray, tol: float) -> np.ndarray:
    """For each query ``p``, the lowest-index row ``v`` with ``p >= s v`` over all rows, else -1;
    ``s`` is ``credal._vertex_matches``'s scale, ``1 - tol/2`` plus its rounding margin."""
    scaled = min(1.0, 1.0 - 0.5 * tol + 8 * rows.shape[1] * np.finfo(float).eps) * rows
    match = np.full(len(queries), -1)
    for i, p in enumerate(queries):
        ok = np.flatnonzero(np.all(p >= scaled, axis=1))
        if ok.size:
            match[i] = ok[0]
    return match


def decide_lp(rows: np.ndarray, p: np.ndarray, tol: float):
    """``credal._decide`` before its nearest-point decision: ``(member, j, res)`` for the point
    ``p``; a point matching row ``j`` is a member with no LP (``res`` None), any other is
    decided by its hull program ``res``."""
    from credalkit.credal import _vertex_matches
    from credalkit.lp import OPTIMAL

    [j] = _vertex_matches(rows, p[None], tol)
    res = None if j >= 0 else hull_program(rows, p, tol)
    return res is None or res.status == OPTIMAL, j, res


def hull_program(rows: np.ndarray, p: np.ndarray, tol: float, costs=None):
    """``credal._hull_lp``'s program for the one point ``p``, solved by the serial reference
    solver (``serial_solve_lp``), which ``TestSimplexLoop`` holds bit for bit to the library's
    lockstep stacks; a stall raises."""
    from credalkit.lp import SimplexStalledError

    k = len(rows)
    res, _ = serial_solve_lp(np.zeros(k) if costs is None else costs,
                             np.vstack([rows.T, np.ones((1, k))]), np.append(p, 1.0), tol)
    if isinstance(res, str):
        raise SimplexStalledError(res)
    return res


def envelope_atoms_lp(A, tol: float = 1e-9):
    """``penalty.envelope_atoms`` before the perspective lift: exact duplicates go first, then
    each atom, in listing order, drops when the current family without it reproduces its point
    at a cost more than ``tol`` cheaper (one costed hull program per atom).  The atoms kept
    keep their rows, bit for bit, as ``envelope_atoms`` keeps them."""
    from credalkit.credal import _distinct
    from credalkit.lp import OPTIMAL
    from credalkit.penalty import PenaltyAtoms

    keep = _distinct(np.column_stack([A.points, A.costs]))
    pos = 0
    while pos < len(keep) and len(keep) > 1:
        i = keep[pos]
        others = [j for j in keep if j != i]
        res = hull_program(A.points[others], A.points[i], 1e-9, A.costs[others])
        if res.status == OPTIMAL and A.costs[i] > res.value + tol:
            keep.pop(pos)
        else:
            pos += 1
    return PenaltyAtoms.__new__(PenaltyAtoms)._set(A.space, A.points[keep], A.costs[keep])


def prove_nothing(rows: np.ndarray, certified: np.ndarray, tol: float):
    """``credal._passes`` proving no generator near or outside: with it in place,
    canonicalization decides every uncertified generator, as its scan did before the
    nearest-point passes."""
    return np.zeros((2, len(rows)), dtype=bool)


def d1_hull_program():
    """``(rows, p)`` of the hull program that stalls (ROADMAP D1) when the six-outcome dual
    set of ``test_risk``'s D1 test is canonicalized by ``decide_lp``, every generator decided
    (no nearest-point pass settles one first)."""
    from credalkit import credal, lp
    from credalkit.risk import avar_dual_set
    from credalkit.spaces import OutcomeSpace

    S = credal.CredalSet.from_rows(OutcomeSpace([f"o{i}" for i in range(6)]), D1_SET)
    programs = []  # the stall raises out of the last decision's hull program
    saved = credal._decide, credal._passes
    credal._decide = lambda rows, p, tol: programs.append((rows, p)) or decide_lp(rows, p, tol)
    credal._passes = prove_nothing
    try:
        avar_dual_set(S, 1 / 3)
    except lp.SimplexStalledError:
        return programs[-1]
    finally:
        credal._decide, credal._passes = saved
    raise AssertionError("the D1 dual set canonicalized under decide_lp")


# the two vertices on six outcomes whose AVaR dual set at level 1/3 stalls the hull program
D1_SET = [
    [0.3846640671802725, 0.3731734998596908, 0.009381851183252481,
     0.017969202492134795, 0.2084771438451464, 0.006334235439502805],
    [0.005638933638565885, 0.0003369032194379831, 0.0011956724425198158,
     0.6147931417005311, 0.31275447619267244, 0.0652808728062728],
]


def exact_hull_deficiency(points: np.ndarray, p: np.ndarray) -> Fraction:
    """The least phase-one deficiency ``|p - lam @ points|_1 + |1 - sum lam|`` over
    ``lam >= 0`` of the rows' exact binary values, by a rational simplex
    with Bland's rule: columns ``lam``, ``u``, ``v``, starting from the basis of
    ``u`` (``v`` on a row with negative right-hand side)."""
    k, n = points.shape
    m = n + 1
    rows, basis = [], []
    for r in range(m):
        lam = [Fraction(x) for x in points[:, r]] if r < n else [Fraction(1)] * k
        unit = [Fraction(int(i == r)) for i in range(m)]
        rhs = Fraction(p[r]) if r < n else Fraction(1)
        sign = -1 if rhs < 0 else 1
        rows.append([sign * x for x in lam + unit + [-x for x in unit] + [rhs]])
        basis.append(k + r + (m if sign < 0 else 0))
    cost = [Fraction(0)] * k + [Fraction(1)] * (2 * m)
    while True:
        reduced = [cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, rows))
                   for j in range(k + 2 * m)]
        enter = next((j for j, rj in enumerate(reduced) if rj < 0), None)
        if enter is None:
            return sum(cost[b] * row[-1] for b, row in zip(basis, rows))
        ratios = [(row[-1] / row[enter], basis[r], r)
                  for r, row in enumerate(rows) if row[enter] > 0]
        _, _, leave = min(ratios)
        pivot = rows[leave][enter]
        rows[leave] = [x / pivot for x in rows[leave]]
        for r in range(m):
            if r != leave and rows[r][enter] != 0:
                f = rows[r][enter]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[leave])]
        basis[leave] = enter


def deficiency_exceeds(points: np.ndarray, p: np.ndarray, tol: float, *,
                       lam=None, direction=None) -> bool:
    """Whether ``exact_hull_deficiency(points, p) > tol``, in exact arithmetic.

    Convex weights ``lam`` bound the deficiency from above by their own
    ``|p - lam @ points|_1 + |1 - sum lam|``.  A ``direction`` ``d`` bounds it from below
    by weak duality: ``y = (d, -max_j d.p_j)``, scaled to ``|y|_inf <= 1``, is feasible
    for the dual, whose objective ``y.(p, 1)`` is then ``d.p - max_j d.p_j`` scaled.
    Given neither, HiGHS solves the deficiency program, and a value over ``1e-5`` is
    taken as it is; below, the direction is the one of largest float margin among its
    dual, ``p``'s row of ``pinv([points; p | 1])`` and 1,024 standard-normal draws.  The
    rational simplex runs only when the bound does not settle the comparison."""
    P = [[Fraction(x) for x in row] for row in points]
    q, bound = [Fraction(x) for x in p], Fraction(tol)
    if lam is not None:
        lam = [Fraction(x) for x in lam]
        mix = [sum(w * row[j] for w, row in zip(lam, P)) for j in range(len(q))]
        if sum(abs(a - b) for a, b in zip(q, mix)) + abs(1 - sum(lam)) <= bound:
            return False
    else:
        if direction is None:
            k, n = points.shape
            eye = np.eye(n + 1)
            res = linprog(np.concatenate([np.zeros(k), np.ones(2 * (n + 1))]),
                          A_eq=np.hstack([np.vstack([points.T, np.ones((1, k))]), eye, -eye]),
                          b_eq=np.concatenate([p, [1.0]]), bounds=(0, None), method="highs")
            assert res.status == 0
            if res.fun > 1e-5:  # far above HiGHS's feasibility tolerance: its value decides
                return res.fun > tol
            pinv = np.linalg.pinv(np.column_stack([np.vstack([points, p]), np.ones(k + 1)]))
            D = np.vstack([res.eqlin.marginals[:-1], pinv[:n, -1],
                           np.random.default_rng(0).standard_normal((1024, n))])
            D = D[np.max(np.abs(D), axis=1) > 0]
            margin = (D @ p - np.max(points @ D.T, axis=0)) / np.max(np.abs(D), axis=1)
            direction = D[np.argmax(margin)]
        d = [Fraction(x) for x in direction]
        top = max(sum(a * x for a, x in zip(d, row)) for row in P)
        scale = max(*map(abs, d), abs(top))
        if scale > 0 and (sum(a * x for a, x in zip(d, q)) - top) / scale > bound:
            return True
    return exact_hull_deficiency(points, p) > bound


def dedup_rows(pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """The rows in lexicographic order, each dropped when within ``tol`` (sup
    norm) of the last kept row."""
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = [0]
    for i in range(1, pts.shape[0]):
        if np.max(np.abs(pts[i] - pts[keep[-1]])) > tol:
            keep.append(i)
    return pts[keep]


def projected_lifted_vertices_loop(V: np.ndarray, level: float, tol: float) -> np.ndarray:
    """``risk._projected_lifted_vertices`` with one ``np.linalg.solve`` per active set,
    skipping the sets whose system it refuses."""
    k, n = V.shape
    d = n + k
    n_ineq = 2 * n + k
    # inequality rows G z <= 0 over z = (q, mix)
    G = np.zeros((n_ineq, d))
    G[:n, :n] = np.eye(n)
    G[:n, n:] = -V.T / level
    G[n : 2 * n, :n] = -np.eye(n)
    G[2 * n :, n:] = -np.eye(k)

    out = []
    system = np.zeros((d, d))
    system[0, :n] = 1.0
    system[1, n:] = 1.0
    rhs = np.zeros(d)
    rhs[:2] = 1.0
    for active in itertools.combinations(range(n_ineq), d - 2):
        system[2:] = G[list(active)]
        try:
            z = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(z)):
            continue
        if np.all(G @ z <= tol):
            out.append(z[:n])
    return np.vstack(out)


def serial_solve_lp(c, A, b, tol: float = 1e-9):
    """``lp.solve_lp`` as it solved one program at a time, before the lockstep stack:
    ``(result, pivots)``, the result an ``LPResult``, or the message of the
    ``SimplexStalledError`` it raised, and ``pivots`` its pivots, evictions included."""
    from credalkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, SimplexStalledError

    pivots = []

    def pivot(T, r, row, col):
        pivots.append(1)
        T[row] /= T[row, col]
        piv = T[row]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= factors[:, None] * piv
        r -= r[col] * piv[:-1]

    def run_simplex(T, basis, cost, n_enter):
        m = T.shape[0]
        r = cost.astype(float).copy()
        z = 0.0
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0.0:
                r -= cb * T[i, :-1]
                z += cb * T[i, -1]
        if n_enter == 0:
            return z, OPTIMAL
        budget = 1000 + 50 * T.shape[1]
        for _ in range(budget):
            eligible = r[:n_enter] < -tol
            j = int(eligible.argmax())
            if not eligible[j]:
                return z, OPTIMAL
            col = T[:, j]
            rows = (col > tol).nonzero()[0]
            if rows.size == 0:
                return z, UNBOUNDED
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + tol * max(1.0, abs(best))]
            leave = min(ties.tolist(), key=basis.__getitem__)
            z += r[j] * (T[leave, -1] / T[leave, j])
            pivot(T, r, leave, j)
            basis[leave] = j
        raise SimplexStalledError(f"simplex did not terminate within {budget} pivots")

    def evict_artificials(T, basis, n):
        drop = []
        dummy = np.zeros(T.shape[1] - 1)
        for i in range(len(basis)):
            if basis[i] < n:
                continue
            found = np.flatnonzero(np.abs(T[i, :n]) > tol)
            if found.size:
                j = int(found[0])
                pivot(T, dummy, i, j)
                basis[i] = j
            else:
                drop.append(i)
        if not drop:
            return T, basis
        keep = [i for i in range(len(basis)) if i not in drop]
        return T[keep].copy(), [basis[i] for i in keep]

    def solve():
        A_ = np.asarray(A, dtype=float)
        m, n = A_.shape
        b_ = np.asarray(b, dtype=float).reshape(-1)
        c_ = np.asarray(c, dtype=float).reshape(-1)
        sign = np.where(b_ < 0.0, -1.0, 1.0)
        T = np.zeros((m, n + m + 1))
        T[:, :n] = A_ * sign[:, None]
        T[:, n : n + m] = np.eye(m)
        T[:, -1] = b_ * sign
        basis = list(range(n, n + m))
        cost1 = np.concatenate([np.zeros(n), np.ones(m)])
        value1, status = run_simplex(T, basis, cost1, n + m)
        if status != OPTIMAL:
            raise SimplexStalledError("phase one of the simplex came back unbounded")
        if value1 > tol:
            y = cost1[np.asarray(basis, dtype=int)] @ T[:, n : n + m]
            return LPResult(INFEASIBLE, None, float(value1), y * sign)
        T, basis = evict_artificials(T, basis, n)
        cost2 = np.concatenate([c_, np.zeros(m)])
        _, status = run_simplex(T, basis, cost2, n)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, float("-inf"), np.zeros(m))
        x = np.zeros(n)
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = max(T[i, -1], 0.0)
        y = cost2[np.asarray(basis, dtype=int)] @ T[:, n : n + m]
        return LPResult(OPTIMAL, x, float(np.dot(c_, x)), y * sign)

    try:
        return solve(), len(pivots)
    except SimplexStalledError as exc:
        return str(exc), len(pivots)


def walk_expectations(step_values, laws, horizon: int, payoffs) -> np.ndarray:
    """``out[i, j]``: the expectation of ``payoffs[i]`` of the terminal sum of
    an i.i.d. walk whose steps follow ``laws[j]``, summed over step counts: the
    paths taking ``m[d]`` steps of ``step_values[d]`` share one terminal sum and
    weigh ``horizon! / prod m[d]!`` times ``prod laws[j][d] ** m[d]``."""
    out = [[0.0] * len(laws) for _ in payoffs]
    for counts in itertools.product(range(horizon + 1), repeat=len(step_values)):
        if sum(counts) != horizon:
            continue
        paths = math.factorial(horizon) // math.prod(map(math.factorial, counts))
        total = sum(v * m for v, m in zip(step_values, counts))
        probs = [paths * math.prod(w ** m for w, m in zip(law, counts)) for law in laws]
        for row, f in zip(out, payoffs):
            value = f(total)
            for j, p in enumerate(probs):
                row[j] += p * value
    return np.array(out)


def pasting_loop(SU, K) -> list:
    """The distinct products of ``SU``'s vertices with kernel vertex
    selections, one validated ``ProbVector`` per selection (outer vertex
    slowest, last outcome fastest), first listing kept."""
    from credalkit.spaces import ProbVector, ProductSpace

    space = ProductSpace(SU.space, K.v_space)
    generators = []
    for q in SU.matrix:
        for choice in itertools.product(*[range(S.n_vertices) for S in K.table]):
            rows = [q[iu] * K[iu].matrix[c] for iu, c in enumerate(choice)]
            generators.append(ProbVector(space, np.concatenate(rows)))
    keep = distinct_scan(np.stack([g.weights for g in generators]))
    return [generators[i] for i in keep]


def fubini_loop(SU, SV) -> tuple:
    """``(forward, backward)`` vertex matrices of ``check_fubini``: the two
    pastings, the backward one moved to U x V one vertex at a time."""
    from credalkit.conditional import CredalKernel
    from credalkit.spaces import swap_measure

    forward = pasting_loop(SU, CredalKernel.constant(SU.space, SV))
    reverse = pasting_loop(SV, CredalKernel.constant(SV.space, SU))
    return (np.stack([g.weights for g in forward]),
            np.stack([swap_measure(g).weights for g in reverse]))


def composed_atoms_loop(AU, K):
    """The composed penalty family built one selection at a time: the product
    row, and the outer cost plus the outer-weighted kernel costs summed in
    outcome order."""
    from credalkit.penalty import PenaltyAtoms
    from credalkit.spaces import ProbVector, ProductSpace

    space = ProductSpace(AU.space, K.v_space)
    atoms = []
    for qi, q in enumerate(AU.points):
        for choice in itertools.product(*[range(A.n_atoms) for A in K.table]):
            rows = [q[iu] * K[iu].points[c] for iu, c in enumerate(choice)]
            cost = float(AU.costs[qi]) + float(
                sum(q[iu] * K[iu].costs[c] for iu, c in enumerate(choice)))
            atoms.append((ProbVector(space, np.concatenate(rows)), cost))
    return PenaltyAtoms(space, atoms)


def credal_set_per_row(space, rows, tol: float = 1e-9):
    """``CredalSet.from_rows`` as one ``ProbVector`` per row, checked in turn."""
    from credalkit.credal import CredalSet
    from credalkit.spaces import ProbVector

    return CredalSet(space, [ProbVector(space, r) for r in rows], tol)


def penalty_atoms_per_row(space, rows):
    """``PenaltyAtoms.from_rows`` as one ``ProbVector`` per atom, checked in turn."""
    from credalkit.penalty import PenaltyAtoms
    from credalkit.spaces import ProbVector

    return PenaltyAtoms(space, [(ProbVector(space, w), c) for w, c in rows])


def format_number(x: float) -> str:
    """The report writer's float format as it was written branch by branch."""
    if isinstance(x, bool):  # pragma: no cover - callers dispatch on type first
        raise TypeError("booleans are not numbers here")
    if math.isnan(x):
        raise ValidationError("reports never contain NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".12g")
    if s == "-0":
        s = "0.0"
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def render(doc: Any) -> str:
    """The report writer with one branch per type and per container."""
    return _render(doc, 0) + "\n"


def _render(doc: Any, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(doc, np.bool_):
        doc = bool(doc)
    elif isinstance(doc, np.integer):
        doc = int(doc)
    elif isinstance(doc, np.floating):
        doc = float(doc)
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return format_number(doc)
    if isinstance(doc, str):
        return json.dumps(doc, ensure_ascii=True)
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        parts = [_render(item, depth + 1) for item in doc]
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        keys = sorted(doc.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValidationError("document keys must be strings")
        parts = [
            inner + json.dumps(k, ensure_ascii=True) + ": " + _render(doc[k], depth + 1)
            for k in keys
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize value of type {type(doc).__name__}")
