import math

import pytest

from _oracles import walk_expectations
from credalkit import demos
from credalkit.demos import (
    DEMO_TOL,
    DEMOS,
    PAYOFFS,
    continuity_failure_witness,
    diagonal_demo,
    fubini_counterexample,
    gwalk,
    nonrectangular_demo,
)
from credalkit.errors import SizeGuardError, ValidationError


class TestNonrectangular:
    def test_targets_met(self):
        report = nonrectangular_demo()
        assert report.passed
        assert report.computed["rectangular"] is False
        assert report.computed["lhs_on_match_payoff"] == 0.5
        assert report.computed["rhs_on_match_payoff"] == 1.0
        assert report.computed["gap_on_match_payoff"] == 0.5

    def test_deterministic(self):
        assert nonrectangular_demo() == nonrectangular_demo()


class TestDiagonal:
    def test_rectangular_with_zero_gap(self):
        report = diagonal_demo()
        assert report.passed
        assert report.computed["rectangular"] is True
        assert report.computed["max_gap_on_sampled_payoffs"] <= 1e-9

    def test_indicator_values(self):
        report = diagonal_demo()
        assert report.computed["value_on_corner_indicator"] == 1.0
        assert report.computed["value_on_off_diagonal_indicator"] == 0.0

    def test_deterministic(self):
        assert diagonal_demo() == diagonal_demo()

    def test_payoff_guard(self):
        # 4 cells per payoff: past 250,000 payoffs the run is refused before any work
        for n_payoffs in (250_001, 100_000_000):
            with pytest.raises(SizeGuardError):
                diagonal_demo(n_payoffs)


class TestFubiniDemo:
    def test_targets(self):
        report = fubini_counterexample()
        assert report.passed
        assert report.computed["lhs"] == 1.0
        assert report.computed["rhs"] == 0.5
        assert report.computed["swapped_roles"] == [0.5, 1.0]
        assert report.computed["interchangeable"] is False


class TestContinuityFailure:
    def test_value_pinned_at_one(self):
        for n in range(2, 33):
            report = continuity_failure_witness(n)
            assert report.passed
            assert report.computed["composed_value"] == 1.0

    def test_pointwise_decay(self):
        assert continuity_failure_witness(2).computed["payoff_at_fixed_cell"] == 1.0
        assert continuity_failure_witness(4).computed["payoff_at_fixed_cell"] == 0.0
        assert continuity_failure_witness(16).computed["payoff_at_fixed_cell"] == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            continuity_failure_witness(1)

    def test_grid_guard(self):
        # (n + 1)^2 grid cells: n = 999 fills the 10^6 budget exactly
        assert continuity_failure_witness(999).passed
        with pytest.raises(SizeGuardError):
            continuity_failure_witness(1000)


class TestGwalk:
    def test_square_prices_total_variance(self):
        report = gwalk(horizon=2, sig_lo=0.0, sig_hi=1.0, dt=1.0, payoff="square")
        assert report.passed
        assert report.computed["root_value"] == pytest.approx(2.0, abs=1e-9)

    def test_neg_square_prices_min_variance(self):
        report = gwalk(horizon=2, sig_lo=0.0, sig_hi=1.0, dt=1.0, payoff="neg-square")
        assert report.passed
        assert report.computed["root_value"] == pytest.approx(0.0, abs=1e-9)

    def test_linear_prices_zero(self):
        report = gwalk(horizon=3, sig_lo=0.5, sig_hi=1.5, dt=0.25, payoff="identity")
        assert report.passed
        assert report.computed["root_value"] == pytest.approx(0.0, abs=1e-9)

    def test_envelope_grid(self):
        for payoff in ("square", "abs", "neg-square", "neg-abs"):
            for horizon in (1, 2, 3):
                for sig_lo, sig_hi in ((0.0, 1.0), (0.5, 1.5), (0.3, 0.9)):
                    report = gwalk(horizon, sig_lo, sig_hi, 1.0, payoff)
                    assert report.passed, (payoff, horizon, sig_lo, sig_hi)

    def test_underflowing_sig_hi_refused(self):
        # 2 sig_hi^2 is zero below about 1e-162; the weights divide by it
        with pytest.raises(ValidationError, match="sig_hi"):
            gwalk(sig_hi=1e-170)
        with pytest.raises(ValidationError, match="sig_hi"):
            gwalk(sig_lo=1e-171, sig_hi=1e-170)
        assert gwalk(sig_hi=1e-160).passed

    @pytest.mark.filterwarnings("error")
    def test_overflowing_payoff_refused_by_name(self):
        # the path sums overflow at 1.7e308, the squares at 1e200; no numpy warning either way
        for kw in ({"sig_hi": 1.7e308}, {"sig_hi": 1e200}, {"sig_hi": 1e200, "payoff": "neg-square"},
                   {"sig_hi": 1e308, "horizon": 3, "payoff": "identity"},
                   {"sig_hi": 1e10, "dt": 1e308}):
            with pytest.raises(ValidationError, match=r"step size \S+ over horizon \d"):
                gwalk(**kw)
        assert gwalk(sig_hi=1e200, payoff="identity").passed

    def test_call_needs_strike(self):
        with pytest.raises(ValidationError):
            gwalk(payoff="call")
        with pytest.raises(ValidationError, match="put payoff needs a strike"):
            gwalk(payoff="put")
        report = gwalk(horizon=2, payoff="call", strike=0.5)
        assert report.passed

    def test_strike_refused_where_the_payoff_takes_none(self):
        for name in PAYOFFS:
            with pytest.raises(ValidationError, match=f"^{name} payoff takes no strike$"):
                gwalk(payoff=name, strike=1.0)
        with pytest.raises(ValidationError, match="^unknown payoff 'nope'$"):
            gwalk(payoff="nope", strike=1.0)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6, 7, 8, 10])
    def test_single_measure_values_match_path_enumeration(self, horizon):
        payoffs = {name: fn for name, (fn, _) in PAYOFFS.items()}
        payoffs["call"] = lambda x: max(x - 0.5, 0.0)
        payoffs["put"] = lambda x: max(0.5 - x, 0.0)
        for sig_lo, sig_hi in ((0.0, 1.0), (0.5, 1.5), (0.3, 0.9)):
            p_lo = sig_lo * sig_lo / (2.0 * sig_hi * sig_hi)
            laws = ([p_lo, 1.0 - 2.0 * p_lo, p_lo], [0.5, 0.0, 0.5])
            for dt in (1.0, 0.25):
                h = sig_hi * math.sqrt(dt)
                expected = walk_expectations([-h, 0.0, h], laws, horizon,
                                             list(payoffs.values()))
                for name, (min_var, max_var) in zip(payoffs, expected):
                    strike = 0.5 if name in ("call", "put") else None
                    computed = gwalk(horizon, sig_lo, sig_hi, dt, name, strike).computed
                    case = (name, sig_lo, sig_hi, dt)
                    assert abs(computed["min_variance_value"] - min_var) <= 1e-12, case
                    assert abs(computed["max_variance_value"] - max_var) <= 1e-12, case

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gwalk(sig_lo=1.0, sig_hi=0.5)
        with pytest.raises(ValidationError):
            gwalk(dt=0.0)
        with pytest.raises(ValidationError, match="horizon must be at least one"):
            gwalk(horizon=0)


class TestRegistry:
    def test_all_demos_pass_with_defaults(self):
        for name, fn in DEMOS.items():
            report = fn()
            assert report.passed, name
            assert report.name == name

    def test_reports_are_deterministic(self):
        for fn in DEMOS.values():
            assert fn().to_doc() == fn().to_doc()


def pass_rule(report) -> bool:
    """``passed`` recomputed from the report alone: a flag or label equals its target, a
    number lies within the report's tolerance of it, a list meets it entry by entry; and
    ``nonrectangular``'s checker witness has a nonzero gap."""

    def met(value, target):
        if isinstance(target, list):
            return type(value) is list and len(value) == len(target) and all(map(met, value, target))
        if type(target) in (bool, str):
            return value == target
        return abs(value - target) <= report.tolerance

    ok = all(met(report.computed[key], t["value"]) for key, t in report.targets.items())
    return ok and (report.name != "nonrectangular" or abs(report.computed["checker_gap"]) > DEMO_TOL)


def suite_reports():
    """The demo calls of this suite: every demo at its defaults and the parameter grids above."""
    yield from (fn() for fn in DEMOS.values())
    yield from (diagonal_demo(n_payoffs, seed) for n_payoffs in (1, 100) for seed in (0, 1, 2))
    yield from map(continuity_failure_witness, range(2, 33))
    for payoff in ("square", "abs", "neg-square", "neg-abs", "identity"):
        for horizon in (1, 2, 3):
            for sig_lo, sig_hi in ((0.0, 1.0), (0.5, 1.5), (0.3, 0.9)):
                for dt in (1.0, 0.25):
                    yield gwalk(horizon, sig_lo, sig_hi, dt, payoff)
    for payoff in ("call", "put"):
        yield gwalk(horizon=2, payoff=payoff, strike=0.5)
    yield from (gwalk(sig_hi=1e-160), gwalk(sig_hi=1e200, payoff="identity"))


class TestPassRule:
    """Every report passes exactly when its declared targets are met and its extra checks hold."""

    def test_passed_is_the_rule_on_every_suite_report(self):
        for report in suite_reports():
            assert type(report.passed) is bool
            assert report.passed is pass_rule(report), (report.name, report.inputs)
            assert report.passed, (report.name, report.inputs)

    TARGETS = {"n": demos._target(0.5, "analytic"), "flag": demos._target(False, "enumeration"),
               "pair": demos._target([0.5, 1.0], "analytic")}
    COMPUTED = {"n": 0.5, "flag": False, "pair": [0.5, 1.0], "untargeted": "x"}

    @pytest.mark.parametrize("edit,checks,want", [
        ({}, (), True),
        ({}, (True, True), True),
        ({"n": 0.5 + DEMO_TOL / 2}, (), True),
        ({"n": 0.5 - 2 * DEMO_TOL}, (), False),
        ({"n": 0.5 + 2 * DEMO_TOL}, (), False),
        ({"n": math.nan}, (), False),
        ({"flag": True}, (), False),
        ({"pair": [0.5]}, (), False),
        ({"pair": [0.5, 1.0, 1.0]}, (), False),
        ({"pair": [0.5, 1.0 + 2 * DEMO_TOL]}, (), False),
        ({}, (True, False), False),
    ])
    def test_report_checks_every_target(self, edit, checks, want):
        computed = {**self.COMPUTED, **edit}
        report = demos._report("probe", {}, computed, self.TARGETS, *checks)
        assert report.passed is want
        assert report.tolerance == DEMO_TOL and report.computed == computed
