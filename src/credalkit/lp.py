"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0`` with Bland's anti-cycling rule.
Sized for desk-scale problems (tens of rows, a few hundred columns): the
minimal-penalty program, and the hull program of a membership decision in
the tolerance band, the only way pruning reaches this solver.
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
    optimal dual vector, or an infeasibility certificate.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("incompatible LP dimensions")

    sign = np.where(b < 0.0, -1.0, 1.0)

    # Working tableau: columns [x (n) | artificial (m) | rhs].  The artificial
    # block starts as the identity, so at any later pivot state it holds the
    # inverse basis, which is what the dual extraction below relies on.
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A * sign[:, None]
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b * sign
    basis = list(range(n, n + m))

    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    value1, status = _run_simplex(T, basis, cost1, n_enter=n + m, tol=tol)
    if status != OPTIMAL:  # phase one is bounded in exact arithmetic
        raise SimplexStalledError("phase one of the simplex came back unbounded")
    if value1 > tol:
        y = cost1[np.asarray(basis, dtype=int)] @ T[:, n : n + m]
        return LPResult(INFEASIBLE, None, float(value1), y * sign)

    T, basis = _evict_artificials(T, basis, n, tol)

    cost2 = np.concatenate([c, np.zeros(m)])
    _, status = _run_simplex(T, basis, cost2, n_enter=n, tol=tol)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, float("-inf"), np.zeros(m))

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = max(T[i, -1], 0.0)
    y = cost2[np.asarray(basis, dtype=int)] @ T[:, n : n + m]
    return LPResult(OPTIMAL, x, float(np.dot(c, x)), y * sign)


def _run_simplex(T, basis, cost, n_enter, tol):
    """Pivot ``T`` in place until no reduced cost below ``-tol`` remains.

    Bland's rule throughout: the entering column is the smallest eligible
    index (the first ``argmax`` of the eligibility mask), the leaving row breaks
    ratio ties by smallest basic index.
    Returns ``(objective value, status)``.
    """
    m = T.shape[0]
    r = cost.astype(float).copy()
    z = 0.0
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0.0:
            r -= cb * T[i, :-1]
            z += cb * T[i, -1]

    if n_enter == 0:  # no column can enter
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
        _pivot(T, r, leave, j)
        basis[leave] = j
    raise SimplexStalledError(
        f"simplex did not terminate within {budget} pivots"
    )  # D1 (ROADMAP): degenerate programs stalled here; no pruning path runs one now


def _pivot(T, r, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * piv
    r -= r[col] * piv[:-1]


def _evict_artificials(T, basis, n, tol):
    """Pivot basic artificials onto real columns; drop redundant rows.

    A redundant row has no usable pivot among the real columns, so deleting
    it changes nothing about the feasible set.  The artificial block keeps
    one column per *original* row, so dual vectors read off it stay valid
    for the original system.
    """
    drop = []
    dummy = np.zeros(T.shape[1] - 1)
    for i in range(len(basis)):
        if basis[i] < n:
            continue
        pivots = np.flatnonzero(np.abs(T[i, :n]) > tol)
        if pivots.size:
            j = int(pivots[0])
            _pivot(T, dummy, i, j)
            basis[i] = j
        else:
            drop.append(i)
    if not drop:
        return T, basis
    keep = [i for i in range(len(basis)) if i not in drop]
    return T[keep].copy(), [basis[i] for i in keep]
