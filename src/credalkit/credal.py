"""Credal sets: probability polytopes in vertex form.

A credal set induces the sublinear upper expectation
``X -> max over vertices of E_P[X]``; hull membership and its dual
separation certificate realize the conjugate side, which takes only the
values zero (member) and infinity (separated).  A point matching a vertex
is a member, and a generator certified extreme is a vertex, with no LP.  Every
other question, whether a point lies in the hull of some rows, goes to one
nearest-point engine (``_wolfe``), which settles a stack of points in lockstep:
canonicalization's two passes, and each one-point decision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NotSeparableError, ValidationError
from .lp import DEFAULT_TOL, OPTIMAL, SimplexStalledError, _solve_stack
from .spaces import (
    Frozen,
    ProbVector,
    _prob_rows,
    _prob_stack,
    RandomVariable,
    Space,
    _check_same_space,
    _product_space,
)

# Points closer than this (sup-norm) are treated as duplicates: dropped from
# every set, canonical or not, before any canonicalization LP runs.
DEDUP_TOL = 1e-12
_CELL_BUDGET = 1 << 16  # cells per temporary of blocked array work, here and in risk


@dataclass(frozen=True)
class SeparationCertificate:
    """A direction along which a point beats every member of a credal set."""

    witness: RandomVariable
    margin: float


class CredalSet(Frozen):
    """A nonempty convex compact set of probabilities, stored as its vertex matrix.

    Construction drops every row within ``DEDUP_TOL`` (sup norm) of an earlier
    kept one, so the first listing survives, then, unless ``canonical``, every
    generator in the hull of the others: one certified extreme runs no LP, a
    lockstep nearest-point pass drops with no decision the ones it proves near the
    certified ones, a second keeps with no decision the ones it proves outside every
    other row's hull, and any other takes one membership decision, from the back so
    earlier generators survive ties.  Surviving vertices keep their order.  A set of at
    most ``n + 1`` rows pairwise apart and all certified skips the search, passes and scan.
    Such a small set, validated at construction, is screened on the first read of
    ``matrix``; a ``ScenarioTree`` screens all its node sets as one stack.
    """

    __slots__ = ("space", "_matrix", "_pending")  # _pending: (rows, tol) until screened

    def __init__(self, space: Space, vertices: Sequence[ProbVector],
                 tol: float = DEFAULT_TOL, *, canonical: bool = False):
        vertices = tuple(vertices)
        for v in vertices:
            _check_same_space(v.space, space, "credal set vertex")
        self._set(space, np.array([v.weights for v in vertices]), tol, canonical)

    def _set(self, space: Space, matrix: np.ndarray, tol=DEFAULT_TOL, canonical=None):
        """Every constructor ends here: freeze the validated rows that construction keeps (all
        for ``canonical=None``).  A set of at most ``n + 1`` rows keeps them and ``tol`` pending
        until ``matrix`` is read (``_settle``); a wider set's screen (pairs, bank) costs more
        than it saves: most repeat rows."""
        if not len(matrix):
            raise ValidationError("a credal set needs at least one vertex")
        if canonical is False and len(matrix) <= matrix.shape[1] + 1:
            return self._freeze(space=space, _pending=(matrix, tol))
        if canonical:
            matrix = matrix[_distinct(matrix)]
        elif canonical is not None:
            matrix = matrix[_canonicalize(matrix, tol)]
        return self._freeze(space=space, _matrix=matrix, _pending=None)

    @property
    def matrix(self) -> np.ndarray:
        if self._pending is not None:  # screened once; a race screens the same rows twice
            CredalSet._settle([self])
        return self._matrix

    @staticmethod
    def _settle(sets) -> None:
        """Screen every pending set of ``sets``: one ``_plain`` per (vertex count, outcome count,
        ``tol``) group over the stacked rows, then ``_canonicalize`` for each set it fails, in
        order; each set keeps the rows it keeps screened alone.  A refusal leaves the sets not
        yet settled pending."""
        groups: dict[tuple, list] = {}
        for S in dict.fromkeys(sets):
            pending = S._pending  # read once: a race may settle S meanwhile
            if pending is not None:
                rows, tol = pending
                groups.setdefault((*rows.shape, tol), []).append((S, rows))
        for (*_, tol), group in groups.items():
            sets, rows = zip(*group)
            plain, fixed = _screened(np.stack(rows) if len(rows) > 1 else rows[0][None], tol)
            for S, M, kept in zip(sets, rows, plain.tolist()):
                if kept:
                    S._freeze(_matrix=M, _pending=None)
            for s, V in fixed:
                sets[s]._freeze(_matrix=V, _pending=None)

    @classmethod
    def from_rows(cls, space: Space, rows: Sequence[Sequence[float]],
                  tol: float = DEFAULT_TOL, *, canonical: bool = False) -> "CredalSet":
        return cls.__new__(cls)._set(space, _prob_stack(space.size, rows), tol, canonical)

    @classmethod
    def _stack(cls, space: Space, sets, tol: float) -> list:
        """``from_rows`` of each row list, kept as level stacks: ``(nodes, matrices)`` per vertex
        count, the nodes a sorted index array and the matrices read-only.  The lists of each
        length are read and validated as one stack, and ``_screened``, the screen a small set
        takes on its first read too, finds the sets with a near-duplicate or uncertified row in
        blocks of 2**16 cells; only those are canonicalized, one by one.  A refusal need not be
        the first set's."""
        lens = np.fromiter(map(len, sets), int, len(sets))
        found: dict[int, list] = {}  # vertex count -> (nodes, matrices) parts
        for k in sorted(set(lens.tolist())):
            idx = np.flatnonzero(lens == k)
            P = _prob_rows(space.size, np.array(
                sets if len(idx) == len(sets) else [sets[s] for s in idx], dtype=float))
            plain, fixed = _screened(P, tol)
            if plain.any():
                found.setdefault(k, []).append((idx, P) if plain.all() else (idx[plain], P[plain]))
            for s, V in fixed:
                found.setdefault(len(V), []).append((idx[s : s + 1], V[None]))
        groups = []
        for parts in found.values():
            if len(parts) > 1:
                nodes, V = map(np.concatenate, zip(*parts))
                order = np.argsort(nodes, kind="stable")
                parts = [(nodes[order], V[order])]
            [(nodes, V)] = parts
            V.setflags(write=False)
            groups.append((nodes, V))
        return groups

    @classmethod
    def _unstack(cls, space: Space, groups, width: int) -> list:
        """The ``width`` sets of level stacks ``[(nodes, matrices), ...]``, in node order."""
        sets = [None] * width
        for nodes, V in groups:
            for node, M in zip(nodes.tolist(), V):
                sets[node] = cls.__new__(cls)._freeze(space=space, _matrix=M, _pending=None)
        return sets

    @classmethod
    def simplex(cls, space: Space) -> "CredalSet":
        """The set of all probabilities on the space (hull of the Diracs)."""
        return cls.__new__(cls)._set(space, np.eye(space.size))

    @classmethod
    def singleton(cls, P: ProbVector) -> "CredalSet":
        return cls.__new__(cls)._set(P.space, P.weights[None])

    @property
    def vertices(self) -> tuple:
        return tuple(map(self._vertex, self.matrix))

    def _vertex(self, w) -> ProbVector:  # validated once; validating again could change bits
        return ProbVector.__new__(ProbVector)._freeze(space=self.space, weights=w)

    @property
    def n_vertices(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"CredalSet({self.space!r}, {self.n_vertices} vertices)"


def _hull_lp(points: np.ndarray, P: np.ndarray, tol: float, costs=None) -> list:
    """For each row ``p`` of ``P``, minimize ``costs @ lam`` (zero by default) over
    ``points.T @ lam = p``, ``sum lam = 1``, ``lam >= 0``: optimal exactly when ``p`` is in the
    hull of the rows, else infeasible with a separating direction in its dual.  The programs
    are solved in lockstep stacks of at most ``_CELL_BUDGET`` tableau cells; a program that
    stalls gives its :class:`SimplexStalledError` in its place."""
    k = points.shape[0]
    A = np.vstack([points.T, np.ones((1, k))])
    c = np.zeros(k) if costs is None else costs
    b = np.hstack([P, np.ones((len(P), 1))])
    step = max(1, _CELL_BUDGET // (A.shape[0] * (A.shape[0] + k + 1)))
    return [res for lo in range(0, len(b), step)
            for res in _solve_stack(c, A, b[lo : lo + step], tol)[0]]


def _key_windows(rows: np.ndarray, queries: np.ndarray, radius: float):
    """``order[lo[i]:hi[i]]`` holds every row within ``radius`` (sup norm) of ``queries[i]``:
    their keys ``x @ w`` differ by at most ``radius * sum(w)``, plus a rounding margin sized
    by the rows, which such a query exceeds by at most ``radius`` (wider only adds work)."""
    n = rows.shape[1]
    w = 1.0 + np.arange(n) / n
    scale = 1.0 + radius + np.max(np.abs(rows), initial=0.0)
    with np.errstate(over="ignore"):  # a reach past the float range is inf: every row is near
        reach = w.sum() * (radius + 8 * n * np.finfo(float).eps * scale)
    keys = rows @ w
    order = np.argsort(keys)
    qkeys = keys if queries is rows else queries @ w
    lo = np.searchsorted(keys[order], qkeys - reach, side="left")
    hi = np.searchsorted(keys[order], qkeys + reach, side="right")
    return order, lo, hi


def _distinct(rows: np.ndarray) -> list[int]:
    """Indices of the rows farther than ``DEDUP_TOL`` (sup norm) from every
    earlier kept row; the first listing of each duplicate group survives.

    A row alone in its key window has no duplicate and is kept outright.  The
    others fall, in key order, into runs whose windows chain, so that no window
    crosses a run's ends and any two rows within ``DEDUP_TOL`` share a run.  A
    run at most ``DEDUP_TOL`` wide in every coordinate has every pair within the
    tolerance and keeps its lowest index at once; only the rows of a wider run
    are compared one by one with the kept rows in their windows.
    """
    if len(rows) == 1:
        return [0]
    order, lo, hi = _key_windows(rows, rows, DEDUP_TOL)
    kept = hi - lo == 1
    if kept.all():
        return list(range(len(rows)))
    t = np.arange(1, len(rows))
    starts = np.flatnonzero(np.r_[True, (hi[order[:-1]] <= t) & (lo[order[1:]] >= t)])
    R = rows[order]
    tight = (np.maximum.reduceat(R, starts) - np.minimum.reduceat(R, starts) <= DEDUP_TOL).all(1)
    kept[np.minimum.reduceat(order, starts)[tight]] = True
    wide = order[np.repeat(~tight, np.diff(np.r_[starts, len(rows)]))]
    for i in np.sort(wide[~kept[wide]]):
        near = order[lo[i] : hi[i]]
        near = near[kept[near]]
        kept[i] = np.all(np.max(np.abs(rows[near] - rows[i]), axis=1) > DEDUP_TOL)
    return np.flatnonzero(kept).tolist()


def _vertex_matches(rows: np.ndarray, queries: np.ndarray, tol: float) -> np.ndarray:
    """For each query ``p``, the lowest-index row ``v`` with ``p >= s v``, else -1.

    The membership program's phase-one objective at ``lam = s e_v`` is ``2 (1 - s)``;
    ``s`` is ``1 - tol/2`` plus a rounding margin, so a match passes even the rounded
    LP's test and lies within L1 ``tol`` of ``v``.  ``s <= 1``: a point dominating a
    vertex is that vertex up to rounding.  The key windows are walked by offset: at
    each one, every query whose window reaches that far tests one row, in chunks of at
    most ``_CELL_BUDGET`` cells."""
    order, lo, hi = _key_windows(rows, queries, tol)
    scaled = min(1.0, 1.0 - 0.5 * tol + 8 * rows.shape[1] * np.finfo(float).eps) * rows
    match = np.full(len(queries), len(rows))
    step = max(1, _CELL_BUDGET // rows.shape[1])
    for off in range(np.max(hi - lo, initial=0)):
        reach = np.flatnonzero(hi - lo > off)
        for q in np.split(reach, np.arange(step, len(reach), step)):
            r = order[lo[q] + off]
            ok = np.all(queries[q] >= scaled[r], axis=1)
            match[q[ok]] = np.minimum(match[q[ok]], r[ok])
    return np.where(match < len(rows), match, -1)


def _screened(P: np.ndarray, tol: float):
    """``(plain, fixed)`` for a stack ``P`` of sets of one shape: ``_plain(P, tol)``, and
    ``(s, kept rows)`` for each set ``s`` it fails, canonicalized one by one as iterated."""
    plain = _plain(P, tol)
    return plain, ((s, P[s][_canonicalize(P[s], tol)])
                   for s, kept in enumerate(plain.tolist()) if not kept)


def _plain(P: np.ndarray, tol: float) -> np.ndarray:
    """For each set of the stack ``P`` (sets, rows, outcomes), whether its rows are pairwise
    over ``DEDUP_TOL`` apart (sup norm) and all certified extreme, so that canonicalization
    keeps every row: ``_distinct`` drops none and the scan decides none.  Blocks of at most
    ``_CELL_BUDGET`` cells; every set is False when one set's pairs exceed it.  A certified
    ``p_i`` beats every other ``q`` by over ``tol max|d|`` along its ``d`` once the margin's
    rounding allowance is spent, and ``d.(p_i - q) <= max|d| n |p_i - q|_inf``: so the pairs
    are tested only when ``tol < 2 n DEDUP_TOL``; above, certified rows are apart."""
    m, k, n = P.shape
    step = _CELL_BUDGET // (k * k * (n + 1))  # sets per block; 0: one set's pairs exceed it
    plain = np.zeros(m, dtype=bool)
    for lo in range(0, m if step else 0, max(step, 1)):
        B, at = P[lo : lo + step], slice(lo, lo + step)
        if tol < 2 * n * DEDUP_TOL:  # certify only the sets with no near-duplicate
            [(i, j)] = _pair_blocks(k, k * k)
            at = lo + np.flatnonzero((np.abs(B[:, i] - B[:, j]).max(axis=-1) > DEDUP_TOL).all(1))
            B = P[at]
        if len(B):
            plain[at] = _certified_extreme(B, tol).all(axis=1)
    return plain


def _pair_blocks(k: int, step: int):
    """The vertex pairs ``i < j`` of ``k`` vertices, row by row, in blocks of ``step`` pairs (one
    empty block when ``k < 2``), each built from the triangle's row ranges: none is cached."""
    total = k * (k - 1) // 2
    start = np.arange(k) * (2 * k - 1 - np.arange(k)) // 2  # row a's first pair (a, a + 1)
    for lo in range(0, max(total, 1), step):
        e = np.arange(lo, min(lo + step, total))
        row = np.searchsorted(start, e, side="right") - 1
        yield row, e - start[row] + row + 1


@functools.lru_cache(maxsize=None)
def _bank(n: int) -> np.ndarray:
    """The fixed exposing directions on ``n`` outcomes: 1,024 standard-normal draws."""
    return np.random.default_rng(0).standard_normal((1024, n))


def _certified_extreme(points: np.ndarray, tol: float) -> np.ndarray:
    """Rows of a set (or of each set of a stack) a hull program keeps against any subset of the
    others: along some ``d``, every other row scores over ``(tol + 64 n eps) max|d|`` below
    ``p_i``.  As ``|d.q| <= max|d|`` for probabilities ``q``, that margin bounds the deficiency
    for any ``d``.  Each row tries ``d_i``, row ``i`` of ``pinv([P | 1])`` (``d_i.p_j + c_i`` is
    the projector entry ``Pi_ij``), which certifies every affinely independent row; a set of
    more than ``n + 1`` rows left uncertified then tries ``_bank(n)``, where a direction
    certifies its argmax row."""
    *m, k, n = points.shape
    A = np.ones((*m, k, n + 1))
    A[..., :n] = points
    D = _directions(A)[..., :n]
    slack = tol + 64 * n * np.finfo(float).eps
    with np.errstate(over="ignore"):  # past the float range: inf, which certifies only a lone row
        limit = slack * np.abs(D).max(axis=-1)
    step = max(1, _CELL_BUDGET // points[..., 0].size)
    certified = np.empty(points.shape[:-1], dtype=bool)
    for lo in range(0, k, step):
        G = D[..., lo : lo + step, :] @ points.swapaxes(-1, -2)
        near = G >= (G[..., lo:].diagonal(0, -2, -1) - limit[..., lo : lo + step])[..., None]
        certified[..., lo : lo + step] = near.sum(axis=-1) == 1
    flat = certified.reshape(-1, k)
    sets = np.flatnonzero(~flat.all(axis=1)) if k > n + 1 else []
    if len(sets):
        P, bank = points.reshape(-1, k, n)[sets], _bank(n)
        with np.errstate(over="ignore"):
            limit = slack * np.max(np.abs(bank), axis=1)
        step = max(1, _CELL_BUDGET // (len(sets) * k))
        for lo in range(0, len(bank), step):
            G = P @ bank[lo : lo + step].T
            top = np.argmax(G, axis=1)
            two = np.partition(G, k - 2, axis=1)[:, k - 2 :]
            s, d = np.nonzero(two[:, 1] - two[:, 0] > limit[lo : lo + step])
            flat[sets[s], top[s, d]] = True
    return certified


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A^-1 B`` for a stack of systems ``A`` and a matrix or stack ``B``: numpy's LU gufunc,
    the call its public ``solve`` makes, so bit for bit the same, minus the wrapper that refuses
    the whole stack for one singular system.  A singular system (an exact zero pivot) solves
    to NaN."""
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(A, B, signature="dd->d")


def _directions(A: np.ndarray) -> np.ndarray:
    """``pinv(A)`` transposed, for ``A`` a set's (or a stack's) ``[P | 1]``, or ``(A A^T)^-1 A``,
    the pseudo-inverse of a full-row-rank ``A``, solved in one batch when ``A`` has fewer rows
    than columns (``k <= n``: ``n + 1`` rows that sum to one are affinely dependent).  A set whose
    Gram solution is not finite (a singular Gram matrix solves to NaN) takes ``pinv``, as a wider
    set does.  Either way, any direction is sound for ``_certified_extreme``, and a set's never
    depend on its stack."""
    k, c = A.shape[-2:]
    if k >= c:
        return np.linalg.pinv(A).swapaxes(-1, -2)
    D = _solve(A @ A.swapaxes(-1, -2), A)
    if not np.isfinite(D).all():
        bad = ~np.isfinite(D).all(axis=(-1, -2))
        D[bad] = np.linalg.pinv(A[bad]).swapaxes(-1, -2)
    return D


def _canonicalize(points: np.ndarray, tol: float) -> list[int]:
    keep = _distinct(points)
    certified = _certified_extreme(points[keep], tol)
    near, outside = _passes(points[keep], certified, tol)
    # scan from the back so that earlier generators survive ties; certified ones are kept
    for pos in np.flatnonzero(~(certified | outside))[::-1]:
        if len(keep) == 1:
            break
        if near[pos] or _decide(np.delete(points[keep], pos, 0), points[keep[pos]], tol)[0]:
            del keep[pos]
    return keep


def _passes(rows: np.ndarray, certified: np.ndarray, tol: float):
    """Masks ``(near, outside)`` of the uncertified distinct ``rows`` that the scan drops and
    keeps with no decision.  Pass 1 proves a generator within ``(tol - 64 n eps) / (2 sqrt n)``
    (L1) of the certified rows, which the scan never drops: the nearest point of the others' hull
    is then within ``(tol - 64 n eps) / 2`` (L1), a member.  Pass 2 proves one that pass 1 leaves
    more than ``tol`` beyond the hull of every other row, so beyond every hull inside it, which
    is all the scan decides against."""
    n = rows.shape[1]
    near, outside = np.zeros((2, len(rows)), dtype=bool)
    todo = np.flatnonzero(~certified)
    slack = 64 * n * np.finfo(float).eps
    if todo.size and certified.any() and tol > slack:
        bound = (tol - slack) / (2 * np.sqrt(n))
        near[todo] = _wolfe(rows[certified], rows[todo], bound + slack)[0] > 0
        todo = todo[~near[todo]]
    if todo.size:
        outside[todo] = _wolfe(rows, rows[todo], tol, todo)[0] < 0
    return near, outside


@np.errstate(over="ignore")  # a limit near the float range times a residual's spread is inf
def _wolfe(rows: np.ndarray, points: np.ndarray, limit: float, exclude=None):
    """Wolfe's minimum-norm point of the hull of ``rows - p`` for each ``p`` of ``points``, until
    its iterate ``x = lam @ (rows - p)`` proves a verdict, with ``64 n eps`` for rounding.
    Returns ``(verdict, lam, x)``: per point 1 with its convex weights ``lam`` when
    ``|x|_1 <= limit``; -1 with its ``x`` when ``p`` beats every row by over ``limit`` along
    ``-x``, centered and sup-normalized (``_witness``'s margin, read off the step's scores),
    which bounds the L1 distance and the hull program's phase one from below; 0 when Wolfe's
    rule (convergence, a repeated row, a full corral of ``n + 1``), an affinely dependent corral
    or 500 steps stop it first.  Point ``i`` never uses row ``exclude[i]``.  The points step in
    lockstep, each with its own corral and arithmetic, in stacks of at most ``_CELL_BUDGET``
    cells, so a point's result does not depend on its stack."""
    (k, n), m = rows.shape, len(points)
    step = max(1, _CELL_BUDGET // (k * n))
    if m > step:
        return tuple(map(np.concatenate, zip(*(
            _wolfe(rows, points[lo : lo + step], limit,
                   None if exclude is None else exclude[lo : lo + step])
            for lo in range(0, m, step)))))
    slack, w = 64 * n * np.finfo(float).eps, n + 1
    verdict, weights, residual = np.zeros(m, dtype=int), np.zeros((m, k)), np.zeros((m, n))
    Q = rows - points[:, None]
    norms, sums = np.einsum("mkn,mkn->mk", Q, Q), Q.sum(axis=2)
    stop = 1e-14 * norms.max(axis=1)
    if exclude is not None:
        norms[np.arange(m), exclude] = np.inf
    corral = np.zeros((m, w), dtype=int)
    corral[:, 0] = norms.argmin(axis=1)
    used = np.zeros((m, w), dtype=bool)
    used[:, 0] = True
    lam = used.astype(float)
    added = np.zeros(m, dtype=int)  # the slot of the row the last major step added
    live, major = np.ones((2, m), dtype=bool)
    diag, e = np.arange(w), np.eye(w + 1)[-1][None, :, None]
    for _ in range(500):
        # major steps: prove a verdict, else add the row scoring lowest along the residual
        g = np.flatnonzero(major & live)
        x = np.einsum("gs,gsn->gn", lam[g], Q[g[:, None], corral[g]])
        score = np.einsum("gkn,gn->gk", Q[g], x)
        if exclude is not None:
            score[np.arange(g.size), exclude[g]] = np.inf
        hi, lo = x.max(axis=1), x.min(axis=1)
        margin = (score - 0.5 * (hi + lo)[:, None] * sums[g]).min(axis=1)  # times ptp / 2
        won = np.abs(x).sum(axis=1) + slack <= limit
        lost = ~won & (hi > lo) & (2 * margin > (limit + slack) * (hi - lo))
        if won.any():
            at, s = np.nonzero(used[g[won]])
            weights[g[won][at], corral[g[won]][at, s]] = lam[g[won]][at, s]
        verdict[g], residual[g[lost]] = won.astype(int) - lost, x[lost]
        on = ~(won | lost)
        live[g[~on]] = False
        if on.any():
            g, x, score = g[on], x[on], score[on]
            j = score.argmin(axis=1)
            u = used[g]
            grow = ((np.einsum("gn,gn->g", x, x) - score[np.arange(g.size), j] > stop[g])
                    & ~u.all(axis=1) & ~(u & (corral[g] == j[:, None])).any(axis=1))
            live[g[~grow]] = False
            g, slot = g[grow], (~u[grow]).argmax(axis=1)
            corral[g, slot], used[g, slot], lam[g, slot] = j[grow], True, 0.0
            added[g], major[g] = slot, False
        # minor steps: towards the affine minimizer of each corral
        g = np.flatnonzero(live)
        if not g.size:
            break
        u = used[g]
        Qs = np.where(u[..., None], Q[g[:, None], corral[g]], 0.0)
        B = np.zeros((g.size, w + 1, w + 1))
        B[:, :w, :w] = Qs @ Qs.swapaxes(1, 2)
        B[:, :w, w] = B[:, w, :w] = u
        B[:, diag, diag] += ~u
        mu = _solve(B, e)[..., 0]
        ok = np.isfinite(mu).all(axis=1)  # else an affinely dependent corral: rounding
        if not ok.all():
            live[g[~ok]] = False
            g, u, mu = g[ok], u[ok], mu[ok]
        mu = np.where(u, mu[:, :w], 0.0)
        inner = ((mu > 0) | ~u).all(axis=1)
        a = g[inner]  # inside its corral's hull: the next iterate
        lam[a], major[a] = mu[inner] / mu[inner].sum(axis=1, keepdims=True), True
        live[a[~used[a, added[a]]]] = False  # the new row left at once: rounding, not progress
        if not inner.all():  # else step until a weight reaches zero
            b, mu, u = g[~inner], mu[~inner], u[~inner]
            ratio = np.where(u & (mu <= 0),
                             lam[b] / np.maximum(lam[b] - mu, np.finfo(float).tiny), np.inf)
            mu = lam[b] + ratio.min(axis=1)[:, None] * (mu - lam[b])
            mu[np.arange(b.size), ratio.argmin(axis=1)] = 0.0
            used[b] = u & (mu > 0)
            lam[b] = np.where(used[b], mu, 0.0)
    return verdict, weights, residual


def sublinear_expectation(S: CredalSet, X: RandomVariable) -> float:
    """Upper expectation ``max over vertices of E_P[X]``.

    A linear objective over a polytope peaks at a vertex, so the vertex
    maximum equals the supremum over the whole set.
    """
    _check_same_space(S.space, X.space, "sublinear expectation")
    return float(np.max(S.matrix @ X.values))


def _decide(rows: np.ndarray, p: np.ndarray, tol: float):
    """``(member, cert)`` for the point ``p`` against the hull of ``rows``: ``cert`` is a
    member's convex weights over ``rows``, or a direction along which a nonmember beats every
    row.  A point matching row ``j`` gets ``e_j``; any other is ``_unmatched``'s."""
    [j] = _vertex_matches(rows, p[None], tol)
    return (True, np.eye(1, len(rows), j)[0]) if j >= 0 else _unmatched(rows, p, tol)


def _unmatched(rows: np.ndarray, p: np.ndarray, tol: float):
    """``_decide``'s verdict on a point that matches no row: proven by ``_wolfe`` on a stack of
    one, or, when that proves neither (the band), decided by its ``_hull_lp`` program, whose
    member weights must reach ``p``."""
    [verdict], [lam], [x] = _wolfe(rows, p[None], tol)
    if verdict:
        return (True, lam) if verdict > 0 else (False, -x)
    [res] = _hull_lp(rows, p[None], tol)
    if isinstance(res, SimplexStalledError):
        raise res
    found = (True, res.x / res.x.sum()) if res.status == OPTIMAL else (False, res.dual[:-1])
    if found[0] and np.abs(found[1] @ rows - p).sum() > tol:
        raise SimplexStalledError("the hull program's member weights miss the point")
    return found


def membership(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL):
    """Hull membership with a barycentric certificate.

    Returns ``(True, lam)`` with ``lam`` the convex coefficients over the
    vertices when ``P`` belongs to the set, else ``(False, None)``.  A
    point matching vertex ``j`` gets ``lam = e_j`` with no LP.
    """
    _check_same_space(S.space, P.space, "membership")
    member, lam = _decide(S.matrix, P.weights, tol)
    return (True, lam) if member else (False, None)


def separate(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL) -> SeparationCertificate:
    """A witness payoff with ``E_P[X] > sublinear_expectation(S, X)``.

    The witness is the direction that proved the point outside, a nearest-point
    residual or a dual certificate.  Margins are invariant under adding constants to
    the direction, so the witness is centered (max +1, min -1) before the
    sup-norm normalization; that makes the reported direction canonical.
    Raises :class:`NotSeparableError` when ``P`` is a member (the conjugate
    value is zero there, so no separating direction exists); a point
    matching a vertex is one, with no LP.
    """
    _check_same_space(S.space, P.space, "separate")
    member, cert = _decide(S.matrix, P.weights, tol)
    return _certificate(S, P, None if member else cert, tol)


def _certificate(S: CredalSet, P: ProbVector, direction, tol: float) -> SeparationCertificate:
    """The separation certificate along a nonmember's direction; None is a member."""
    if direction is None:
        raise NotSeparableError("point is a member of the set")
    if np.ptp(direction) <= 0.0:  # pragma: no cover - a constant direction cannot separate
        raise NotSeparableError("degenerate separation direction")
    witness, margin = _witness(S.matrix, P.weights, direction)
    if margin <= tol:
        raise NotSeparableError("point is within tolerance of the set")
    return SeparationCertificate(RandomVariable(S.space, witness), margin)


def _witness(rows: np.ndarray, p: np.ndarray, direction: np.ndarray):
    """A nonconstant ``direction`` centered to max +1, min -1, and ``p``'s margin along it."""
    w = direction - 0.5 * (direction.max() + direction.min())
    w = w / np.max(np.abs(w))
    return w, float(np.dot(p, w)) - float(np.max(rows @ w))


def _first_nonmember(A: CredalSet, B: CredalSet, tol: float):
    """The first vertex of ``A`` that is not a member of ``B``, with its separating direction.
    Vertices matching one of ``B`` are members, settled in one step; only the others, in
    order, take a decision."""
    _check_same_space(A.space, B.space, "set inclusion")
    for i in np.flatnonzero(_vertex_matches(B.matrix, A.matrix, tol) < 0):
        member, cert = _unmatched(B.matrix, A.matrix[i], tol)
        if not member:
            return A._vertex(A.matrix[i]), cert
    return None


def first_outside(A: CredalSet, B: CredalSet, tol: float = DEFAULT_TOL):
    """The first vertex of ``A`` outside ``B`` with its separation certificate.

    Returns ``(vertex, certificate)``, or ``None`` when ``A`` is contained
    in ``B``; the certificate is read from the decision that found it.
    """
    found = _first_nonmember(A, B, tol)
    return None if found is None else (found[0], _certificate(B, *found, tol))


def conjugate_indicator(S: CredalSet, P: ProbVector, tol: float = DEFAULT_TOL) -> float:
    """The conjugate of the sublinear expectation: 0 on members, +inf outside."""
    member, _ = membership(S, P, tol)
    return 0.0 if member else float("inf")


def equal_sets(S1: CredalSet, S2: CredalSet, tol: float = DEFAULT_TOL) -> bool:
    """Set equality via cross membership of the canonical vertices."""
    return _first_nonmember(S1, S2, tol) is None and _first_nonmember(S2, S1, tol) is None


def marginal_set(S: CredalSet, tol: float = DEFAULT_TOL) -> CredalSet:
    """The first-coordinate restriction of a credal set on a product space.

    The marginal map is linear, so the hull of the vertex marginals equals
    the set of marginals of all members.
    """
    space = _product_space(S.space, "marginal_set needs a credal set on a product space")
    rows = S.matrix.reshape(S.n_vertices, space.u_space.size, -1).sum(axis=2)
    return CredalSet.from_rows(space.u_space, rows, tol)
