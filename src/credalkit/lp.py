"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0`` with Bland's anti-cycling rule.
Sized for desk-scale problems (tens of rows, a few hundred columns): the
hull programs that ``credal._hull_lp`` builds, costed for a minimal penalty,
uncosted for a membership decision in the tolerance band, the only way
pruning reaches this solver.
Programs of one shape are solved as a stack in lockstep: each step pivots
every program still running once, on its own entering column and leaving
row, with the elementwise arithmetic it would do alone, so every result is
bit for bit the one of a run by itself.  Every program pivots in this one
loop to its end, the last of its stack too (``solve_lp`` is the stack of one).
When the program is infeasible the returned dual vector is a certificate:
``y . A <= tol`` columnwise while ``y . b >= deficiency > 0``, which is
exactly the separating functional the credal module turns into a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CredalkitError

DEFAULT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexStalledError(CredalkitError, RuntimeError):
    """Pivots ran out, or rounding gave a program a status it cannot have; an operation failure."""


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    value: float
    dual: np.ndarray


def solve_lp(c, A, b, tol: float = DEFAULT_TOL) -> LPResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0``.

    Returns an :class:`LPResult`; ``value`` holds the optimum, or the
    phase-one deficiency when the program is infeasible.  ``dual`` holds the
    optimal dual vector, or an infeasibility certificate.  This is the stack
    of one of :func:`_solve_stack`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("incompatible LP dimensions")
    [res], _ = _solve_stack(c, A, b[None], tol)
    if isinstance(res, SimplexStalledError):
        raise res
    return res


def _solve_stack(c, A, b, tol):
    """``solve_lp`` of each program ``(c, A, b[i])`` of a stack, in lockstep.

    ``b`` is ``(programs, m)``; ``c`` and ``A`` are one program's, or stacks of them.  Every
    program does exactly the arithmetic it would do alone, with Bland's rule of its own, so
    its result is the same to the bit.  Returns ``(results, pivots)``: per program its
    :class:`LPResult`, or the :class:`SimplexStalledError` it would raise, and its pivot count.
    """
    B, m = b.shape
    n = A.shape[-1]
    sign = np.where(b < 0.0, -1.0, 1.0)

    # Working tableaux: columns [x (n) | artificial (m) | rhs].  The artificial
    # block starts as the identity, so at any later pivot state it holds the
    # inverse basis, which is what the dual extraction below relies on.
    T = np.empty((B, m, n + m + 1))
    T[:, :, :n] = A * sign[:, :, None]
    T[:, :, n : n + m] = np.eye(m)
    T[:, :, -1] = b * sign
    basis = np.arange(n, n + m)[None].repeat(B, axis=0)
    live = np.ones((B, m), dtype=bool)  # rows kept; a redundant row is dead, not deleted
    pivots = np.zeros(B, dtype=int)

    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0
    value1, status = _run_simplex(T, basis, live, cost1, n + m, tol, pivots)
    feasible = (status == OPTIMAL) & ~(value1 > tol)
    go = feasible.nonzero()[0]
    cost2 = np.zeros((B, n + m))
    cost2[:, :n] = c
    if go.size:  # phase two runs on the feasible programs' own stack
        T2, basis2, live2 = T[go], basis[go], live[go]
        _evict_artificials(T2, basis2, live2, n, tol, pivots, go)
        _, status[go] = _run_simplex(T2, basis2, live2, cost2[go], n, tol, pivots, go)
        T[go], basis[go], live[go] = T2, basis2, live2

    results = []
    for i, (st, ok, whole) in enumerate(zip(status.tolist(), feasible.tolist(),
                                            live.all(axis=1).tolist())):
        Ti, at = (T[i], basis[i]) if whole else (T[i][live[i]], basis[i][live[i]])
        if st == _STALLED:
            res = SimplexStalledError(f"simplex did not terminate within {_budget(T)} pivots")
        elif not ok:
            if st != OPTIMAL:  # phase one is bounded in exact arithmetic
                res = SimplexStalledError("phase one of the simplex came back unbounded")
            else:
                y = cost1[at] @ Ti[:, n : n + m]
                res = LPResult(INFEASIBLE, None, float(value1[i]), y * sign[i])
        elif st == UNBOUNDED:
            res = LPResult(UNBOUNDED, None, float("-inf"), np.zeros(m))
        else:
            x = np.zeros(n)
            for row, j in enumerate(at.tolist()):
                if j < n:
                    x[j] = max(Ti[row, -1], 0.0)
            y = cost2[i, at] @ Ti[:, n : n + m]
            res = LPResult(OPTIMAL, x, float(np.dot(cost2[i, :n], x)), y * sign[i])
        results.append(res)
    return results, pivots


_STALLED = "stalled"


def _budget(T) -> int:
    return 1000 + 50 * T.shape[-1]


def _run_simplex(T, basis, live, cost, n_enter, tol, pivots, ids=None):
    """Pivot each tableau of the stack ``T`` in place until no reduced cost below ``-tol``
    remains, all of them in lockstep, one pivot per program and step.

    Bland's rule throughout: the entering column is the smallest eligible
    index (the first ``argmax`` of the eligibility mask), the leaving row, among the
    ``live`` ones, breaks ratio ties by smallest basic index.  A program leaves the step
    when its own loop would end and the rest are compacted, down to the last one, and a stack
    of one pivots the same way.  ``pivots[ids]`` counts each one's pivots.
    Returns ``(objective values, statuses)``, ``_STALLED`` for a program whose budget ran out.
    """
    B, m = basis.shape
    ids = np.arange(B) if ids is None else ids
    cost = np.broadcast_to(cost, (B, cost.shape[-1]))
    cb = np.take_along_axis(cost, basis, axis=1)
    terms = cb[:, :, None] * T
    on = cb != 0.0
    rz = np.zeros((B, cost.shape[1] + 1))  # [reduced costs | -objective]
    rz[:, :-1] = cost
    for i, (every, some) in enumerate(zip(on.all(axis=0).tolist(), on.any(axis=0).tolist())):
        # row by row, skipping zero costs, as one program alone adds them up
        if every:
            rz -= terms[:, i]
        elif some:
            rz[on[:, i]] -= terms[on[:, i], i]
    r, z = rz[:, :-1], -rz[:, -1]

    status = np.full(B, OPTIMAL, dtype=object)
    if n_enter == 0:  # no column can enter
        return z, status
    budget, spent = _budget(T), 0
    at, k = np.arange(B), np.arange(B)  # the programs still pivoting, and their rows in Ta
    Ta, ra, za, ba, la = T, r, z, basis, live
    while len(at) and spent < budget:
        eligible = ra[:, :n_enter] < -tol
        j = eligible.argmax(axis=1)
        col = Ta[k, :, j]
        up = (col > tol) & la
        enter = eligible[k, j]
        done = ~(enter & up.any(axis=1))
        if done.any():
            status[at[done]] = np.where(enter[done], UNBOUNDED, OPTIMAL)
            T[at[done]], z[at[done]], basis[at[done]] = Ta[done], za[done], ba[done]
            pivots[ids[at[done]]] += spent
            keep = ~done
            at, Ta, ra, za, ba, la = at[keep], Ta[keep], ra[keep], za[keep], ba[keep], la[keep]
            j, col, up, k = j[keep], col[keep], up[keep], k[: len(at)]
            if not len(at):
                break
        ratios = np.where(up, Ta[:, :, -1] / np.where(up, col, 1.0), np.inf)
        best = ratios.min(axis=1)
        mag = np.abs(best)
        ties = up & (ratios <= (best + tol * np.where(mag > 1.0, mag, 1.0))[:, None])
        leave = np.where(ties, ba, np.iinfo(ba.dtype).max).argmin(axis=1)
        za = za + ra[k, j] * (Ta[k, leave, -1] / Ta[k, leave, j])
        _pivot(Ta, ra, leave, j)
        ba[k, leave] = j
        spent += 1
    if len(at):  # past the budget every one left stalls (D1, ROADMAP)
        status[at], z[at] = _STALLED, za
        if Ta is not T:  # compacted: write the rest back
            T[at], basis[at] = Ta, ba
        pivots[ids[at]] += spent
    return z, status


def _pivot(T, r, rows, cols):
    """One pivot in each tableau of the stack ``T``: on ``(rows[i], cols[i])`` of ``T[i]``,
    with its reduced costs ``r[i]``."""
    k = np.arange(len(T))
    T[k, rows] /= T[k, rows, cols][:, None]
    piv = T[k, rows]
    factors = T[k, :, cols]
    factors[k, rows] = 0.0
    T -= factors[:, :, None] * piv[:, None, :]
    r -= r[k, cols][:, None] * T[k, rows, :-1]  # the row as the subtraction left it


def _evict_artificials(T, basis, live, n, tol, pivots, ids):
    """Pivot basic artificials onto real columns; mark redundant rows dead.

    A redundant row has no usable pivot among the real columns, so dropping
    it changes nothing about the feasible set.  The artificial block keeps
    one column per *original* row, so dual vectors read off it stay valid
    for the original system.  Rows are taken in order, each one for every
    tableau of the stack at once.
    """
    for i in np.flatnonzero((basis >= n).any(axis=0)).tolist():  # a pivot moves its row only
        art = np.flatnonzero(basis[:, i] >= n)
        usable = np.abs(T[art, i, :n]) > tol
        found = usable.any(axis=1)
        live[art[~found], i] = False
        go = art[found]
        if go.size:
            j, S = usable[found].argmax(axis=1), T[go]
            _pivot(S, np.zeros((go.size, S.shape[2] - 1)), np.full(go.size, i), j)
            T[go], basis[go, i] = S, j
            pivots[ids[go]] += 1
