"""Executable desk-scale demonstrations with self-checking reports.

Each demo builds a small instance, runs the relevant checkers, and
compares the computed numbers against declared targets.  Targets carry a
provenance tag: ``analytic`` values are forced by hand arithmetic,
``enumeration`` values come from an exhaustive in-demo evaluation (a
brute-force count, or a singleton-set tree evaluation that weighs every
path), and ``definition`` values are direct formula evaluations.
Reports are deterministic: all randomness is seeded.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .conditional import MAX_GENERATORS, CredalKernel, check_tower, compose
from .credal import CredalSet, sublinear_expectation
from .errors import SizeGuardError, ValidationError
from .fubini import check_fubini, interchange_gap
from .risk import ScenarioTree, compose_sublinear
from .spaces import OutcomeSpace, ProbVector, ProductSpace, RandomVariable

DEMO_TOL = 1e-9


@dataclass(frozen=True)
class DemoReport:
    name: str
    inputs: dict
    computed: dict
    targets: dict  # key -> {"value": ..., "provenance": ...}
    tolerance: float
    passed: bool

    def to_doc(self) -> dict:
        return asdict(self)


def _target(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def nonrectangular_demo() -> DemoReport:
    """A two-vertex joint set that fails the tower identity with a gap.

    Both vertices spread half the mass on each first coordinate, so the
    marginal is uniform; against the full-simplex kernel the pasting also
    contains the diagonal mixture, which the set itself excludes.  On the
    equal-coordinates indicator the joint evaluation gives one half while
    the composed evaluation reaches one.
    """
    u = OutcomeSpace(["0", "1"])
    v = OutcomeSpace(["0", "1"])
    uv = ProductSpace(u, v)
    S = CredalSet.from_rows(uv, [[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
    K = CredalKernel.constant(u, CredalSet.simplex(v))
    report = check_tower(S, K)
    match = RandomVariable(uv, [1.0, 0.0, 0.0, 1.0])
    lhs = sublinear_expectation(S, match)
    rhs = compose(report.marginal, K, match)
    computed = {
        "rectangular": report.rectangular,
        "lhs_on_match_payoff": lhs,
        "rhs_on_match_payoff": rhs,
        "gap_on_match_payoff": rhs - lhs,
        "checker_gap": report.witness.gap if report.witness else 0.0,
    }
    targets = {
        "rectangular": _target(False, "enumeration"),
        "lhs_on_match_payoff": _target(0.5, "analytic"),
        "rhs_on_match_payoff": _target(1.0, "analytic"),
        "gap_on_match_payoff": _target(0.5, "analytic"),
    }
    passed = (
        report.rectangular is False
        and _close(lhs, 0.5, DEMO_TOL)
        and _close(rhs, 1.0, DEMO_TOL)
        and report.witness is not None
        and abs(report.witness.gap) > DEMO_TOL
    )
    inputs = {
        "set_vertices": S.matrix.tolist(),
        "kernel": "full simplex at every conditioning outcome",
        "payoff": match.values.tolist(),
    }
    return DemoReport("nonrectangular", inputs, computed, targets, DEMO_TOL, passed)


def diagonal_demo(n_payoffs: int = 100, seed: int = 0) -> DemoReport:
    """The diagonal ambiguity set pasted from the diagonal kernel.

    The hull of the two diagonal Dirac measures has the full simplex as
    marginal, and pasting that marginal with the kernel sending each
    outcome to its own Dirac reproduces the set exactly, so the checker
    reports the tower identity as holding; sampled payoffs confirm a zero
    gap.  The ``4 * n_payoffs`` payoff cells count against ``MAX_GENERATORS``.
    """
    if 4 * n_payoffs > MAX_GENERATORS:
        raise SizeGuardError(f"diagonal demo payoff cells exceed {MAX_GENERATORS}")
    u = OutcomeSpace(["0", "1"])
    v = OutcomeSpace(["0", "1"])
    uv = ProductSpace(u, v)
    S = CredalSet.from_rows(uv, [[1.0, 0, 0, 0], [0, 0, 0, 1.0]])
    K = CredalKernel(
        u,
        [
            CredalSet.singleton(ProbVector.dirac(v, "0")),
            CredalSet.singleton(ProbVector.dirac(v, "1")),
        ],
    )
    report = check_tower(S, K)
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    for _ in range(n_payoffs):
        x = RandomVariable(uv, rng.uniform(-3.0, 3.0, 4))
        gap = abs(sublinear_expectation(S, x) - compose(report.marginal, K, x))
        max_gap = max(max_gap, gap)
    indicator_00 = RandomVariable(uv, [1.0, 0, 0, 0])
    indicator_01 = RandomVariable(uv, [0, 1.0, 0, 0])
    computed = {
        "rectangular": report.rectangular,
        "max_gap_on_sampled_payoffs": max_gap,
        "value_on_corner_indicator": sublinear_expectation(S, indicator_00),
        "value_on_off_diagonal_indicator": sublinear_expectation(S, indicator_01),
    }
    targets = {
        "rectangular": _target(True, "enumeration"),
        "max_gap_on_sampled_payoffs": _target(0.0, "enumeration"),
        "value_on_corner_indicator": _target(1.0, "analytic"),
        "value_on_off_diagonal_indicator": _target(0.0, "analytic"),
    }
    passed = (
        report.rectangular
        and max_gap <= DEMO_TOL
        and computed["value_on_corner_indicator"] == 1.0
        and computed["value_on_off_diagonal_indicator"] == 0.0
    )
    inputs = {
        "set_vertices": S.matrix.tolist(),
        "kernel": "Dirac at the conditioning outcome",
        "n_payoffs": n_payoffs,
        "seed": seed,
    }
    return DemoReport("diagonal", inputs, computed, targets, DEMO_TOL, passed)


def fubini_counterexample() -> DemoReport:
    """Iterated worst-case integrals that do not commute.

    With the uniform singleton on the first coordinate and full ambiguity
    on the second, the equal-coordinates indicator integrates to one in
    the U-then-V order but only one half the other way around.
    """
    u = OutcomeSpace(["0", "1"])
    v = OutcomeSpace(["0", "1"])
    uv = ProductSpace(u, v)
    SU = CredalSet.from_rows(u, [[0.5, 0.5]])
    SV = CredalSet.simplex(v)
    match = RandomVariable(uv, [1.0, 0, 0, 1.0])
    lhs, rhs = interchange_gap(SU, SV, match)
    swapped = interchange_gap(CredalSet.simplex(u), CredalSet.from_rows(v, [[0.5, 0.5]]), match)
    report = check_fubini(SU, SV)
    computed = {
        "lhs": lhs,
        "rhs": rhs,
        "interchangeable": report.interchangeable,
        "swapped_roles": list(swapped),
    }
    targets = {
        "lhs": _target(1.0, "analytic"),
        "rhs": _target(0.5, "analytic"),
        "interchangeable": _target(False, "enumeration"),
        "swapped_roles": _target([0.5, 1.0], "analytic"),
    }
    passed = (
        lhs == 1.0
        and rhs == 0.5
        and not report.interchangeable
        and swapped == (0.5, 1.0)
        and report.witness is not None
    )
    inputs = {
        "outer_set": "uniform singleton on two points",
        "inner_set": "all probabilities on two points",
        "payoff": match.values.tolist(),
    }
    return DemoReport("fubini-counterexample", inputs, computed, targets, DEMO_TOL, passed)


def continuity_failure_witness(n: int = 8) -> DemoReport:
    """Composed evaluation pinned at one while the payoffs vanish pointwise.

    The payoff family is zero below ``n - 1``, ramps to one at ``n``, and
    the kernel sends the grid point ``i/n`` to the Dirac at the nearest
    integer to ``n/i`` (ties rounded up, zero maps to zero).  The outer
    supremum over grid Diracs always finds the point ``1/n`` whose image
    is ``n``, so the composed value stays at one for every ``n`` even
    though each fixed cell's payoff eventually drops to zero as the grid
    refines.  The ``(n + 1)^2`` grid cells count against ``MAX_GENERATORS``.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("need n >= 2")
    if (n + 1) ** 2 > MAX_GENERATORS:
        raise SizeGuardError(f"continuity grid exceeds {MAX_GENERATORS} cells")
    u_space = OutcomeSpace([f"{i}/{n}" for i in range(n + 1)])
    v_space = OutcomeSpace([str(k) for k in range(n + 1)])
    uv = ProductSpace(u_space, v_space)

    def payoff_formula(v: float, level: int) -> float:
        if level - 1 <= v <= level:
            return float(v - level + 1)
        return 1.0 if v > level else 0.0

    x = RandomVariable(
        uv,
        [payoff_formula(float(k), n) for _ in range(n + 1) for k in range(n + 1)],
    )
    table = []
    for i in range(n + 1):
        if i == 0:
            target_v = 0
        else:
            target_v = min(int(math.floor(n / i + 0.5)), n)
        table.append(CredalSet.singleton(ProbVector.dirac(v_space, str(target_v))))
    K = CredalKernel(u_space, table)
    outer = CredalSet.simplex(u_space)
    composed_value = compose(outer, K, x)
    pointwise = payoff_formula(2.0, n)
    computed = {
        "composed_value": composed_value,
        "payoff_at_fixed_cell": pointwise,
        "attaining_grid_point": f"1/{n}",
    }
    targets = {
        "composed_value": _target(1.0, "definition"),
        "payoff_at_fixed_cell": _target(1.0 if n == 2 else 0.0, "definition"),
    }
    passed = (
        composed_value == 1.0
        and pointwise == targets["payoff_at_fixed_cell"]["value"]
    )
    inputs = {"n": n, "grid": f"{{0, 1/{n}, ..., 1}} x {{0, 1, ..., {n}}}"}
    return DemoReport("continuity-failure", inputs, computed, targets, DEMO_TOL, passed)


PAYOFFS: dict[str, tuple[Callable[[float], float], str]] = {
    "square": (lambda x: x * x, "convex"),
    "abs": (abs, "convex"),
    "neg-square": (lambda x: -x * x, "concave"),
    "neg-abs": (lambda x: -abs(x), "concave"),
    "identity": (lambda x: x, "linear"),
}


def gwalk(
    horizon: int = 2,
    sig_lo: float = 0.0,
    sig_hi: float = 1.0,
    dt: float = 1.0,
    payoff: str = "square",
    strike: Optional[float] = None,
) -> DemoReport:
    """A mean-zero three-point walk with per-step variance uncertainty.

    Each step moves by ``-h, 0, +h`` with ``h = sig_hi * sqrt(dt)`` under
    a symmetric law whose variance ranges over ``[sig_lo^2 dt,
    sig_hi^2 dt]`` (a two-vertex credal segment).  Convex terminal payoffs
    price at the maximum-variance product measure, concave payoffs at the
    minimum, and linear payoffs at zero.  All three numbers come from
    ``compose_sublinear``: the worst-case value on the tree with the
    segment at every node, and each single-measure value on the same tree
    with that vertex as a singleton set, which weighs every path.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValidationError("horizon must be at least one")
    if sig_lo < 0 or sig_hi <= sig_lo:
        raise ValidationError("need 0 <= sig_lo < sig_hi")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if 2.0 * sig_hi * sig_hi == 0.0:
        raise ValidationError(f"sig_hi {sig_hi!r} is too small: 2 sig_hi^2 underflows to zero")
    if payoff == "call":
        if strike is None:
            raise ValidationError("call payoff needs a strike")
        fn, kind = (lambda x: max(x - strike, 0.0)), "convex"
    elif payoff == "put":
        if strike is None:
            raise ValidationError("put payoff needs a strike")
        fn, kind = (lambda x: max(strike - x, 0.0)), "convex"
    elif payoff in PAYOFFS:
        fn, kind = PAYOFFS[payoff]
    else:
        raise ValidationError(f"unknown payoff {payoff!r}")

    h = sig_hi * math.sqrt(dt)
    p_hi = 0.5
    p_lo = (sig_lo * sig_lo) / (2.0 * sig_hi * sig_hi)
    step = OutcomeSpace(["down", "flat", "up"])
    step_values = np.array([-h, 0.0, h])
    S = CredalSet.from_rows(
        step, [[p_lo, 1.0 - 2.0 * p_lo, p_lo], [p_hi, 0.0, p_hi]]
    )
    trees = [ScenarioTree.uniform(step, horizon, T)
             for T in (S, *map(CredalSet.singleton, S.vertices))]

    # summed from the last step back: the order fixes each sum's rounding
    with np.errstate(over="ignore", invalid="ignore"):
        sums = sum(np.ix_(*[step_values] * horizon)[::-1]).ravel()
        payoffs = [fn(s) for s in sums]
    if not np.all(np.isfinite(payoffs)):
        raise ValidationError(f"step size {h!r} over horizon {horizon} overflows the payoff")
    terminal_space = OutcomeSpace([f"path{i}" for i in range(sums.size)])
    x = RandomVariable(terminal_space, payoffs)
    value, min_var, max_var = (float(compose_sublinear(t, x)[0][0]) for t in trees)
    if kind == "convex":
        envelope = _target(max_var, "enumeration")
    elif kind == "concave":
        envelope = _target(min_var, "enumeration")
    else:
        envelope = _target(0.0, "analytic")
    computed = {
        "root_value": value,
        "max_variance_value": max_var,
        "min_variance_value": min_var,
        "payoff_kind": kind,
    }
    targets = {"root_value": envelope}
    passed = _close(value, envelope["value"], DEMO_TOL)
    inputs = {
        "horizon": horizon,
        "sig_lo": sig_lo,
        "sig_hi": sig_hi,
        "dt": dt,
        "payoff": payoff if strike is None else f"{payoff}({strike})",
        "step_size": h,
        "step_weights": S.matrix.tolist(),
    }
    return DemoReport("gwalk", inputs, computed, targets, DEMO_TOL, passed)


DEMOS: dict[str, Callable[..., DemoReport]] = {
    "nonrectangular": nonrectangular_demo,
    "diagonal": diagonal_demo,
    "fubini-counterexample": fubini_counterexample,
    "continuity-failure": continuity_failure_witness,
    "gwalk": gwalk,
}

DEMO_SUMMARIES = {
    "nonrectangular": "two-vertex joint set failing the tower identity with gap 0.5",
    "diagonal": "diagonal hull pasted from the diagonal kernel (tower holds)",
    "fubini-counterexample": "iterated worst-case integrals that do not commute",
    "continuity-failure": "composed value pinned at 1 while payoffs vanish pointwise",
    "gwalk": "volatility-uncertainty walk pricing convex/concave payoffs",
}
