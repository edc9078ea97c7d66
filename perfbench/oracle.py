"""Independent numpy recomputation of the answers the benchmark checks.

Nothing here calls credalkit.  Suprema over a polytope are taken as maxima
over the generators the document lists (the hull adds no larger value), and
certainty equivalents are minimized by golden-section search on the convex
objective, which shares no code with the kink scan under test.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 90  # shrinks the bracket by 1e-19


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


# ---------------------------------------------------------------- credal

def upper(points, x) -> float:
    return float(np.max(np.asarray(points) @ np.asarray(x)))


def convex(atoms: list[dict], x) -> float:
    P = np.array([a["weights"] for a in atoms])
    c = np.array([a.get("cost", 0.0) for a in atoms])
    return float(np.max(P @ np.asarray(x) - (c - c.min())))


def composed(outer: np.ndarray, kernel: list[np.ndarray], X: np.ndarray) -> float:
    """``max_Q sum_u Q(u) max_R E_R[X(u, .)]`` over generator lists."""
    inner = np.array([np.max(kernel[u] @ X[u]) for u in range(X.shape[0])])
    return float(np.max(outer @ inner))


def tower_sides(joint: np.ndarray, kernel: list[np.ndarray], payoff) -> tuple[float, float]:
    """(joint value, composed value) of a payoff on U x V."""
    nu = len(kernel)
    X = np.asarray(payoff, dtype=float).reshape(nu, -1)
    marginals = joint.reshape(joint.shape[0], nu, -1).sum(axis=2)
    return upper(joint, X.reshape(-1)), composed(marginals, kernel, X)


def fubini_sides(SU: np.ndarray, SV: np.ndarray, payoff) -> tuple[float, float]:
    """(U-then-V value, V-then-U value) of a payoff on U x V."""
    X = np.asarray(payoff, dtype=float).reshape(SU.shape[1], SV.shape[1])
    lhs = composed(SU, [SV] * SU.shape[1], X)
    rhs = composed(SV, [SU] * SV.shape[1], X.T)
    return lhs, rhs


# ---------------------------------------------------------------- risk

def loss_pieces(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the affine pieces of a convex loss with l(0) = 0.

    A convex piecewise-linear function is the maximum of its pieces.
    """
    if spec["kind"] == "avar":
        return np.array([0.0, 1.0 / spec["level"]]), np.zeros(2)
    bps = np.asarray(spec["breakpoints"], dtype=float)
    slopes = np.asarray(spec["slopes"], dtype=float)
    at_bp = np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(bps))])
    anchors = np.concatenate([[bps[0]], bps])
    values = np.concatenate([[at_bp[0]], at_bp])
    intercepts = values - slopes * anchors
    return slopes, intercepts - np.max(intercepts)


def oce_values(V: np.ndarray, x: np.ndarray, spec: dict) -> np.ndarray:
    """``min_s s + max_k E_{V_k}[l(x - s)]`` per row.

    ``V`` is ``(nodes, k, n)`` or ``(k, n)`` shared; ``x`` is ``(nodes, n)``.
    The objective is convex in ``s`` and has a minimizer between
    ``min x - max breakpoint`` and ``max x - min breakpoint``, where the
    outer slopes make it decrease on the left and not decrease on the right.
    """
    slopes, icpt = loss_pieces(spec)
    kinks = [0.0] if spec["kind"] == "avar" else spec["breakpoints"]
    lo = x.min(axis=1) - max(kinks) - 1.0
    hi = x.max(axis=1) - min(kinks) + 1.0
    shared = V.ndim == 2

    def f(s):
        y = x - s[:, None]
        L = slopes[0] * y + icpt[0]
        for a, c in zip(slopes[1:], icpt[1:]):
            L = np.maximum(L, a * y + c)
        E = L @ V.T if shared else np.einsum("nkj,nj->nk", V, L)
        return s + E.max(axis=1)

    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc <= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = b - _GOLDEN * (b - a)
        d_new = a + _GOLDEN * (b - a)
        c, d = c_new, d_new
        fc, fd = f(c), f(d)
    return np.minimum(fc, fd)


def tree_check(levels: list, rows: list, spec: dict) -> str:
    """Recompute every internal node from its children; '' when all agree.

    ``rows[t]`` is one vertex list shared by the level or one per node.
    """
    b = 3
    for t in range(len(levels) - 2, -1, -1):
        child = np.asarray(levels[t + 1], dtype=float).reshape(-1, b)
        V = np.asarray(rows[t], dtype=float)
        if spec["kind"] == "sublinear":
            if V.ndim == 2:
                got = np.max(child @ V.T, axis=1)
            else:
                got = np.max(np.einsum("nkj,nj->nk", V, child), axis=1)
        else:
            got = oce_values(V, child, spec)
        want = np.asarray(levels[t], dtype=float)
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if err.max() > TOL:
            return f"level {t}: node value off by {err.max():.3g}"
    return ""
