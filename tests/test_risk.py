import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import (
    D1_SET,
    avar_loss,
    backward_full_scan,
    backward_scalar,
    dedup_rows,
    greedy_tail,
    loss_anchors,
    oce_batch_full_scan,
    oce_grid,
    oce_scalar,
    projected_lifted_vertices_loop,
    robust_tail_lp,
    searchsorted_loss,
    tree_risk_grid,
)
from credalkit import credal, risk, spaces
from credalkit.conditional import CredalKernel, pasting
from credalkit.credal import DEDUP_TOL, CredalSet, equal_sets, sublinear_expectation
from credalkit.errors import CredalkitError, SizeGuardError, ValidationError
from credalkit.lp import SimplexStalledError
from credalkit.risk import (
    LossSpec,
    ScenarioTree,
    avar_dual_evaluate,
    avar_dual_set,
    compose_risk,
    compose_sublinear,
    oce,
)
from credalkit.spaces import OutcomeSpace, ProbVector, RandomVariable

AB = OutcomeSpace(["a", "b"])
STEP = OutcomeSpace(["u", "d"])


def rv(space, values):
    return RandomVariable(space, values)


def random_set(rng, n=None, k=None):
    n = n or int(rng.integers(2, 7))
    k = k or int(rng.integers(1, 5))
    space = OutcomeSpace([f"o{i}" for i in range(n)])
    return CredalSet.from_rows(space, rng.dirichlet(np.ones(n), size=k))


class TestLossSpec:
    def test_avar_shape(self):
        L = LossSpec.avar(0.5)
        assert np.allclose(L([-2, 0, 1, 3]), [0, 0, 2, 6])

    def test_level_range(self):
        with pytest.raises(ValidationError):
            LossSpec.avar(0.0)
        with pytest.raises(ValidationError):
            LossSpec.avar(1.5)

    def test_boundary_level_flagged(self):
        assert LossSpec.avar(1.0).boundary
        assert not LossSpec.avar(0.5).boundary

    def test_piecewise_validation(self):
        with pytest.raises(ValidationError):
            LossSpec.piecewise([0.0], [1.0, 0.5])  # decreasing slopes
        with pytest.raises(ValidationError):
            LossSpec.piecewise([0.0], [0.0, 0.8])  # max slope not above one
        with pytest.raises(ValidationError):
            LossSpec.piecewise([0.0], [1.5, 2.0])  # first slope above one
        with pytest.raises(ValidationError):
            LossSpec.piecewise([1.0, 1.0], [0.0, 0.5, 2.0])  # repeated breakpoint
        with pytest.raises(ValidationError, match="finite"):
            LossSpec.piecewise([np.inf], [0.0, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            LossSpec.piecewise([0.0], [0.0, np.nan])
        with pytest.raises(ValidationError, match="nondecreasing"):
            LossSpec.piecewise([0.0], [-0.5, 2.0])  # negative first slope

    def test_piecewise_anchored_at_zero(self):
        L = LossSpec.piecewise([-1.0, 2.0], [0.0, 0.5, 3.0])
        assert float(L(0.0)) == pytest.approx(0.0, abs=1e-15)
        # slope structure: flat below -1, slope 0.5 between, slope 3 above 2
        assert float(L(-5.0)) == float(L(-1.0))
        assert float(L(2.0) - L(-1.0)) == pytest.approx(0.5 * 3.0)
        assert float(L(4.0) - L(2.0)) == pytest.approx(6.0)
        assert float(L(-1.0)) == pytest.approx(-0.5)  # integrates back from l(0)=0

    def test_zero_at_zero(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            bps = np.sort(rng.uniform(-2, 2, int(rng.integers(1, 4))))
            bps = np.unique(bps)
            k = bps.size + 1
            slopes = np.sort(rng.uniform(0, 0.99, k))
            slopes[-1] = rng.uniform(1.1, 3.0)
            slopes = np.sort(slopes)
            L = LossSpec.piecewise(bps, slopes)
            assert abs(float(L(0.0))) <= 1e-12

    def test_breakpoint_values_match_segment_loop(self):
        # reference: accumulate slope * width one segment at a time, then
        # subtract the value at zero read off the segment holding zero
        rng = np.random.default_rng(61)
        for _ in range(20):
            bps = np.unique(rng.uniform(-2, 2, int(rng.integers(1, 6))))
            slopes = np.sort(rng.uniform(0, 3, bps.size + 1))
            slopes[0], slopes[-1] = min(slopes[0], 1.0), max(slopes[-1], 1.5)
            rel = [0.0]
            for j in range(1, bps.size):
                rel.append(rel[-1] + slopes[j] * (bps[j] - bps[j - 1]))
            seg0 = int(np.searchsorted(bps, 0.0, side="right"))
            if seg0 == 0:
                at_zero = rel[0] + slopes[0] * (0.0 - bps[0])
            else:
                at_zero = rel[seg0 - 1] + slopes[seg0] * (0.0 - bps[seg0 - 1])
            L = LossSpec.piecewise(bps, slopes)
            assert np.array_equal(L(bps), np.array(rel) - at_zero)

    def test_anchors_past_the_float_range(self):
        # the direct sums overflow (1.7e308 + 1.7e308); on the halved breakpoints they do not
        bp, sl = np.array([-1.7e308, 1.7e308]), np.array([0.5, 0.9, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = LossSpec.piecewise(bp, sl)
            top, bottom = float(L(1.7e308)), float(L(-1.7e308))
        anchors = L._pieces[0, 1:]  # the loss at each breakpoint
        assert np.array_equal(anchors, np.ldexp(loss_anchors(bp / 2, sl), 1))
        assert anchors.tolist() == [bottom, top]
        assert top == pytest.approx(1.53e308, rel=1e-15) and bottom == -top

    def test_segments_are_counted_as_searchsorted_finds_them(self):
        rng = np.random.default_rng(91)
        # up to eight breakpoints are counted, nine and more bisected
        wide = [LossSpec.piecewise(np.sort(rng.uniform(-1, 1, m)), np.linspace(0.0, 2.0, m + 1))
                for m in (8, 9, 300)]
        for L in [*LOSSES, *wide]:
            bp = L.breakpoints
            x = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                                rng.uniform(-2, 2, 200), [-1e300, 1e300, -0.0]])
            assert np.array_equal(L._segment(x), np.searchsorted(bp, x, side="right"))
            np.testing.assert_array_equal(L(x), searchsorted_loss(L, x))
            assert all(L(v) == searchsorted_loss(L, v) for v in (bp[0], 0.25, -3.0))

    def test_anchors_in_range_are_the_direct_sums(self):
        for L in LOSSES:
            assert np.array_equal(L._pieces[0, 1:], loss_anchors(L.breakpoints, L.slopes))


class TestOce:
    def test_constant_payoff(self):
        S = CredalSet.simplex(AB)
        res = oce(S, rv(AB, [4.0, 4.0]), LossSpec.avar(0.3))
        assert res.value == pytest.approx(4.0, abs=1e-12)
        assert res.minimizer == pytest.approx(4.0, abs=1e-12)

    def test_flat_objective_reports_smallest(self):
        S = CredalSet.from_rows(AB, [[0.5, 0.5]])
        res = oce(S, rv(AB, [0.0, 10.0]), LossSpec.avar(0.5))
        assert res.value == pytest.approx(10.0, abs=1e-12)
        assert res.minimizer == pytest.approx(0.0, abs=1e-12)

    def test_boundary_level_collapses_to_sublinear(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            S = random_set(rng)
            x = rv(S.space, rng.uniform(-4, 4, S.space.size))
            res = oce(S, x, LossSpec.avar(1.0))
            assert res.value == pytest.approx(sublinear_expectation(S, x), abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            S = random_set(rng, n=int(rng.integers(2, 5)), k=int(rng.integers(1, 4)))
            x = rng.uniform(-3, 3, S.space.size)
            lam = float(rng.choice([0.2, 0.5, 0.8]))
            got = oce(S, rv(S.space, x), LossSpec.avar(lam)).value
            ref = oce_grid(S.matrix, x, avar_loss(lam))
            assert got == pytest.approx(ref, abs=1e-6)

    def test_multi_vertex_crossing_minimum(self):
        # the active vertex switches strictly between payoff entries; the
        # shifted-breakpoint grid alone would report 7.2
        space = OutcomeSpace(["a", "b", "c"])
        S = CredalSet.from_rows(space, [[0.4, 0.4, 0.2], [0.6, 0.1, 0.3]])
        res = oce(S, rv(space, [0.0, 4.0, 10.0]), LossSpec.avar(0.5))
        assert res.value == pytest.approx(7.0, abs=1e-12)
        assert res.minimizer == pytest.approx(1.0, abs=1e-12)

    def test_cash_additivity(self):
        rng = np.random.default_rng(63)
        for _ in range(40):
            S = random_set(rng)
            x = rng.uniform(-4, 4, S.space.size)
            c = float(rng.uniform(-5, 5))
            lam = float(rng.choice([0.1, 0.4, 0.9]))
            L = LossSpec.avar(lam)
            base = oce(S, rv(S.space, x), L)
            shifted = oce(S, rv(S.space, x + c), L)
            assert shifted.value == pytest.approx(base.value + c, abs=1e-9)

    def test_bounds_and_monotone_in_level(self):
        rng = np.random.default_rng(64)
        for _ in range(40):
            S = random_set(rng)
            x = rv(S.space, rng.uniform(-4, 4, S.space.size))
            lo, hi = sorted(rng.uniform(0.05, 0.95, 2))
            v_lo = oce(S, x, LossSpec.avar(float(lo))).value
            v_hi = oce(S, x, LossSpec.avar(float(hi))).value
            assert v_hi <= v_lo + 1e-9
            assert sublinear_expectation(S, x) <= v_hi + 1e-9
            assert v_lo <= float(np.max(x.values)) + 1e-9

    def test_general_piecewise_loss_against_grid(self):
        rng = np.random.default_rng(65)
        L = LossSpec.piecewise([-0.5, 0.0, 1.0], [0.0, 0.25, 0.75, 2.5])
        for _ in range(10):
            S = random_set(rng, n=3, k=3)
            x = rng.uniform(-3, 3, 3)
            got = oce(S, rv(S.space, x), L).value
            ref = oce_grid(S.matrix, x, lambda z: np.asarray(L(z)))
            assert got == pytest.approx(ref, abs=1e-6)

    def test_one_step_is_conditional_sublinear(self):
        # monotone, positively homogeneous, constant preserving
        rng = np.random.default_rng(66)
        L = LossSpec.avar(0.5)
        for _ in range(25):
            S = random_set(rng)
            x = rng.uniform(-3, 3, S.space.size)
            y = x + rng.uniform(0, 2, S.space.size)
            lam = float(rng.uniform(0, 2))
            vx = oce(S, rv(S.space, x), L).value
            assert vx <= oce(S, rv(S.space, y), L).value + 1e-9
            assert oce(S, rv(S.space, lam * x), L).value == pytest.approx(
                lam * vx, abs=1e-9
            )


class TestOceNearFloatRange:
    """Where ``x - s`` or a loss would overflow, the scan runs on ``x / 2^k``: exactly the
    scaled scan, so the value is finite and the dual one, never ``inf`` or a dropped NaN."""

    SEG = CredalSet.from_rows(AB, [[0.5, 0.5], [0.1, 0.9]])

    @pytest.mark.parametrize("x", [9e307, 1.7e308])
    def test_opposite_extremes_match_the_dual(self, x):
        X, L = rv(AB, [x, -x]), LossSpec.avar(0.5)
        assert oce(self.SEG, X, L).value == x == avar_dual_evaluate(self.SEG, 0.5, X)
        tree = ScenarioTree(AB, 1, [[self.SEG]])
        assert compose_risk(tree, X, L)[0][0] == x

    def test_scan_near_the_float_range_does_not_warn(self):
        # payoffs and levels whose losses overflow unscaled: the scan runs on X / 2^k, so no
        # numpy warning is raised, and the value lies between the payoff's extremes
        rng = np.random.default_rng(162)
        cases = [(self.SEG, 0.5, rv(AB, [x, -x])) for x in (9e307, 1.7e308)]
        for _ in range(100):
            S = random_set(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(1, 4)))
            big = rng.choice([1e300, 1e306, 8.9e307, 1.7e308]) * rng.uniform(-1.0, 1.0, S.space.size)
            cases.append((S, float(rng.choice([0.05, 0.25, 0.5, 0.9, 1.0])), rv(S.space, big)))
        for S, level, X in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = oce(S, X, LossSpec.avar(level)).value
            assert X.values.min() <= value <= X.values.max()

    def test_infinite_objective_off_the_minimum(self):
        # at s = 0 the loss 1e300 / 1e-9 overflows; the minimum at s = 1e300 stands
        for S in (self.SEG, CredalSet.from_rows(AB, [[0.0, 1.0], [0.5, 0.5]])):
            assert oce(S, rv(AB, [1e300, 0.0]), LossSpec.avar(1e-9)).value == 1e300
        # unless the overflowing candidate is really the smaller one: the singleton's tail
        # holds 1e-10 / 1e-9 of the mass on 1e300
        p = np.array([1e-10, 1.0 - 1e-10])
        X = rv(AB, [1e300, 0.0])
        assert oce(CredalSet.from_rows(AB, [p]), X, LossSpec.avar(1e-9)).value == pytest.approx(
            greedy_tail(p, 1e-9, X.values), rel=1e-12)

    def test_scaled_scan_is_exact(self):
        rng = np.random.default_rng(161)
        losses = [LossSpec.avar(0.05), LossSpec.avar(0.5), LossSpec.avar(1.0),
                  LossSpec.piecewise([0.0], [0.0, 2.0]), LossSpec.piecewise([0.0], [0.5, 1e9])]
        for _ in range(200):
            S = random_set(rng, n=int(rng.integers(2, 5)), k=int(rng.integers(1, 4)))
            L = losses[rng.integers(len(losses))]
            big = rng.choice([1e300, 1e306, 8.9e307, 1.7e308]) * rng.uniform(-1.0, 1.0, S.space.size)
            got = oce(S, rv(S.space, big), L)
            # breakpoints at zero: the loss of x / 2^600 is the loss of x over 2^600
            small = oce(S, rv(S.space, np.ldexp(big, -600)), L)
            assert got.value == np.ldexp(small.value, 600)
            assert got.minimizer == np.ldexp(small.minimizer, 600)
            assert np.isfinite(got.value) and big.min() <= got.value <= big.max()

    def test_overflowing_crossings_do_not_warn(self):
        # a crossing past the float range lies outside every finite bracket: it is dropped
        # with no RuntimeWarning, and the value is the scan's with warnings ignored
        rng = np.random.default_rng(7)
        for _ in range(60):
            S = random_set(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(2, 4)))
            big = rng.choice([1e305, 9.9e305, 8.9e307]) * rng.uniform(-1.0, 1.0, S.space.size)
            for level in (0.25, 1.0):
                X, L = rv(S.space, big), LossSpec.avar(level)
                with np.errstate(all="ignore"):
                    quiet = oce(S, X, L)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    loud = oce(S, X, L)
                assert (loud.value, loud.minimizer) == (quiet.value, quiet.minimizer)


class TestDual:
    def test_primal_dual_equality(self):
        # the scan's value against the capped-density program, solved by HiGHS
        rng = np.random.default_rng(67)
        for _ in range(200):
            S = random_set(rng)
            x = rng.uniform(-4, 4, S.space.size)
            lam = float(rng.choice(np.arange(1, 10) / 10.0))
            primal = oce(S, rv(S.space, x), LossSpec.avar(lam)).value
            assert primal == pytest.approx(robust_tail_lp(S.matrix, lam, x), abs=1e-9)

    def test_dual_against_scipy(self):
        rng = np.random.default_rng(68)
        for _ in range(100):
            S = random_set(rng)
            x = rng.uniform(-4, 4, S.space.size)
            lam = float(rng.choice([0.15, 0.5, 0.85]))
            got = avar_dual_evaluate(S, lam, rv(S.space, x))
            ref = robust_tail_lp(S.matrix, lam, x)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_level_one_is_sublinear(self):
        rng = np.random.default_rng(69)
        for _ in range(30):
            S = random_set(rng)
            x = rv(S.space, rng.uniform(-4, 4, S.space.size))
            assert avar_dual_evaluate(S, 1.0, x) == pytest.approx(
                sublinear_expectation(S, x), abs=1e-9
            )

    def test_small_level_saturates_best_supported_outcome(self):
        # once every cap reaches one, all mass rides the best supported payoff
        rng = np.random.default_rng(76)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            rows = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 4)))
            S = CredalSet.from_rows(space, rows)
            x = rng.uniform(-4, 4, n)
            lam = 0.9 * float(np.min(S.matrix[S.matrix > 0]))
            support = np.any(S.matrix > 0, axis=0)
            want = float(np.max(x[support]))
            assert avar_dual_evaluate(S, lam, rv(space, x)) == pytest.approx(
                want, abs=1e-9
            )

    def test_singleton_matches_greedy(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            p = rng.dirichlet(np.ones(n))
            S = CredalSet.singleton(ProbVector(space, p))
            x = rng.uniform(-4, 4, n)
            lam = float(rng.choice([0.2, 0.5, 0.9]))
            assert avar_dual_evaluate(S, lam, rv(space, x)) == pytest.approx(
                greedy_tail(p, lam, x), abs=1e-9
            )

    @pytest.mark.parametrize("level", [3e-8, 1e-8, 1e-9, 1e-10])
    def test_small_levels_agree_with_oce(self, level):
        # every cap exceeds one, so all mass rides the payoff 1 (ROADMAP D6)
        S = CredalSet.from_rows(AB, [[0.5, 0.5], [0.1, 0.9]])
        x = rv(AB, [1.0, 0.0])
        primal = oce(S, x, LossSpec.avar(level)).value
        assert primal == 1.0
        assert abs(avar_dual_evaluate(S, level, x) - primal) <= 1e-9 * abs(primal)


class TestDualSet:
    def test_singleton_half_level_full_simplex(self):
        S = CredalSet.from_rows(AB, [[0.5, 0.5]])
        D = avar_dual_set(S, 0.5)
        assert equal_sets(D, CredalSet.simplex(AB))

    def test_dirac_stays_dirac(self):
        S = CredalSet.singleton(ProbVector.dirac(AB, "a"))
        D = avar_dual_set(S, 0.5)
        assert D.n_vertices == 1
        assert np.allclose(D.matrix[0], [1, 0])

    def test_level_one_identity(self):
        rng = np.random.default_rng(71)
        S = random_set(rng, n=3, k=3)
        D = avar_dual_set(S, 1.0)
        assert D is S and equal_sets(D, S)

    def test_support_matches_dual_evaluate(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            S = random_set(rng, n=int(rng.integers(2, 5)), k=int(rng.integers(1, 4)))
            lam = float(rng.choice([0.2, 0.5, 0.8]))
            D = avar_dual_set(S, lam)
            for _ in range(10):
                x = rv(S.space, rng.uniform(-3, 3, S.space.size))
                assert sublinear_expectation(D, x) == pytest.approx(
                    avar_dual_evaluate(S, lam, x), abs=1e-9
                )

    def test_covers_mixture_beyond_vertex_fibers(self):
        # the dual optimum here needs the interior cap mixture; vertex-fiber
        # hulls top out at 6.8
        space = OutcomeSpace(["a", "b", "c"])
        S = CredalSet.from_rows(space, [[0.4, 0.4, 0.2], [0.6, 0.1, 0.3]])
        D = avar_dual_set(S, 0.5)
        x = rv(space, [0.0, 4.0, 10.0])
        assert sublinear_expectation(D, x) == pytest.approx(7.0, abs=1e-9)

    def test_sorted_rows_match_neighbour_dedup(self):
        # construction's first-listing scan on the sorted rows keeps what the
        # sorted-neighbour scan keeps, in the same order
        def neighbour_pipeline(S, level):
            if S.n_vertices == 1:
                pts = risk._capped_box_vertices(S.matrix[0] / level, 1e-9)
            else:
                pts = risk._projected_lifted_vertices(S.matrix, level, 1e-9)
            return CredalSet.from_rows(S.space, dedup_rows(pts)).matrix

        def outcome(compute):
            try:
                return compute()
            except SimplexStalledError:
                return "stalled"

        rng = np.random.default_rng(73)
        for _ in range(100):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            rows = rng.dirichlet(np.ones(n), size=k)
            if rng.random() < 0.3:
                rows[int(rng.integers(k))] = np.eye(n)[int(rng.integers(n))]
            S = CredalSet.from_rows(OutcomeSpace([f"o{i}" for i in range(n)]), rows)
            level = float(rng.choice([0.1, 0.25, 1 / 3, 0.5, 0.9]))
            new = outcome(lambda: avar_dual_set(S, level).matrix)
            old = outcome(lambda: neighbour_pipeline(S, level))
            assert np.array_equal(new, old)  # "stalled" equals only itself

    def test_six_outcome_dual_set_canonicalizes(self):
        # D1: its hull program stalls (test_lp); the nearest-point decision settles every point
        space = OutcomeSpace([f"o{i}" for i in range(6)])
        S = CredalSet.from_rows(space, D1_SET)
        D = avar_dual_set(S, 1 / 3)
        x = rv(space, np.arange(6.0))
        assert sublinear_expectation(D, x) == pytest.approx(
            avar_dual_evaluate(S, 1 / 3, x), abs=1e-9)

    def test_guard_edge_dual_set_answers(self):
        # 3 vertices on 8 outcomes: 92,378 active sets, the most the guard admits; its hull
        # programs stalled (exit 3) before the nearest-point decision
        space = OutcomeSpace([f"o{i}" for i in range(8)])
        S = CredalSet.from_rows(space, np.random.default_rng(0).dirichlet(np.ones(8), size=3))
        D = avar_dual_set(S, 0.25)
        rng = np.random.default_rng(201)
        for _ in range(20):
            x = rv(space, rng.normal(size=8))
            assert sublinear_expectation(D, x) == pytest.approx(
                avar_dual_evaluate(S, 0.25, x), abs=1e-9)

    def test_six_outcome_dual_sets_run_no_hull_program(self, monkeypatch):
        # every canonicalization decision is proven by a nearest-point certificate
        def refuse(*args, **kwargs):
            raise AssertionError("a dual-set decision fell back to the hull program")

        monkeypatch.setattr(credal, "_solve_stack", refuse)
        rng = np.random.default_rng(202)
        space = OutcomeSpace([f"o{i}" for i in range(6)])
        sets = [D1_SET] + [rng.dirichlet(np.ones(6), size=int(rng.integers(2, 4))) for _ in range(30)]
        for rows in sets:
            S = CredalSet.from_rows(space, rows)
            level = float(rng.choice([0.1, 0.25, 1 / 3, 0.5]))
            D = avar_dual_set(S, level)
            x = rv(space, rng.normal(size=6))
            assert sublinear_expectation(D, x) == pytest.approx(
                avar_dual_evaluate(S, level, x), abs=1e-9)

    def test_levels_whose_caps_overflow(self):
        # every cap exceeds 1, so the dual set is the whole simplex; past 1e-308 the caps
        # overflow, and the set is still answered exactly, with no warning
        space = OutcomeSpace(["a", "b", "c"])
        S = CredalSet.from_rows(space, [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        for level in (1e-308, 1e-310, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                D = avar_dual_set(S, level)
            assert np.array_equal(D.matrix, np.eye(3)[::-1])
        # only the second vertex charges "c", with 1e-320: its cap stays below 1 at 1e-300
        # and 1e-310, where the enumeration overflows, and exceeds 1 at 5e-324
        S = CredalSet.from_rows(space, [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-320]])
        for level in (1e-300, 1e-310):
            with pytest.raises(CredalkitError, match=f"at level {level!r}$") as refusal:
                avar_dual_set(S, level)
            assert not isinstance(refusal.value, RuntimeError)
        assert np.array_equal(avar_dual_set(S, 5e-324).matrix, np.eye(3)[::-1])

    def test_outcome_guard(self):
        space = OutcomeSpace([f"o{i}" for i in range(11)])
        S = CredalSet.singleton(ProbVector.uniform(space))
        with pytest.raises(SizeGuardError):
            avar_dual_set(S, 0.5)
        for level in (0.0, 1.5):
            with pytest.raises(ValidationError, match="level"):
                avar_dual_set(S, level)
        # ten outcomes pass the outcome guard; two vertices need comb(22, 10) active sets
        ten = OutcomeSpace([f"o{i}" for i in range(10)])
        S = CredalSet.from_rows(ten, [[0.1] * 10, [0.5] + [0.5 / 9] * 9])
        with pytest.raises(SizeGuardError, match="646646 active-set combinations"):
            avar_dual_set(S, 0.5)


class TestBlockEnumeration:
    """``_projected_lifted_vertices`` solves its active sets in stacked blocks, one ``_solve``
    per block; its candidates are the per-system loop's, bit for bit and in order."""

    @staticmethod
    def check(V, level, tol=1e-9):
        want = projected_lifted_vertices_loop(V, level, tol)
        got = risk._projected_lifted_vertices(V, level, tol)
        assert np.array_equal(got, want)

    def test_random_sets(self):
        rng = np.random.default_rng(191)
        for _ in range(12):
            n, k = int(rng.integers(3, 7)), int(rng.integers(2, 4))
            V = rng.dirichlet(np.ones(n), size=k)
            for level in (0.1, 0.25, 0.5, 0.999):
                self.check(V, level)

    def test_singular_and_near_singular_systems(self):
        rng = np.random.default_rng(192)
        for _ in range(12):
            n = int(rng.integers(3, 7))
            V = rng.dirichlet(np.ones(n), size=3)
            V[0] = np.eye(n)[int(rng.integers(n))]  # zero caps: exactly singular systems
            V[2] = V[1] + 1e-13 * rng.normal(size=n)  # a vertex 1e-13 from another
            V[2] /= V[2].sum()
            for level in (0.25, 0.5):
                self.check(V, level)
        V = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        self.check(V, 0.5)  # a repeated vertex

    def test_random_sets_with_dirac_and_tiny_rows(self):
        # 2-10 outcomes and 1-3 vertices: the stacked feasibility check keeps the per-candidate
        # check's candidates, bit for bit.  A fifth of the combination guard bounds the loop's time
        rng = np.random.default_rng(197)
        checked = 0
        while checked < 24:
            n, k = int(rng.integers(2, 11)), int(rng.integers(1, 4))
            if math.comb(2 * n + k, n + k - 2) > risk.DUAL_SET_MAX_COMBINATIONS // 5:
                continue
            V = rng.dirichlet(np.ones(n), size=k)
            kind = checked % 3
            if kind == 1:  # a Dirac row
                V[int(rng.integers(k))] = np.eye(n)[int(rng.integers(n))]
            elif kind == 2:  # 30% of the coordinates scaled by 1e-9, as in ROADMAP D7
                V[rng.random(V.shape) < 0.3] *= 1e-9
                V /= V.sum(axis=1, keepdims=True)
            self.check(V, float(rng.choice([0.05, 0.1, 0.25, 1 / 3, 0.5, 0.9])))
            checked += 1

    def test_partial_last_block(self):
        V = np.random.default_rng(193).dirichlet(np.ones(6), size=2)
        block = risk._CELL_BUDGET // 8**2
        assert math.comb(14, 6) > block and math.comb(14, 6) % block != 0
        self.check(V, 0.25)

    def test_singular_block_falls_back_to_one_solve_per_system(self, monkeypatch):
        # a block with singular systems takes one stacked solve, which the public
        # ``np.linalg.solve`` refuses whole; each singular system solves to NaN and drops out
        V = np.array([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        want = projected_lifted_vertices_loop(V, 0.5, 1e-9)
        solve, calls = risk._solve, []

        def counting_solve(a, b):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, b)
            x = solve(a, b)
            calls.append((np.ndim(a), int(np.isnan(x).all(axis=(1, 2)).sum())))
            return x

        monkeypatch.setattr(risk, "_solve", counting_solve)
        assert np.array_equal(risk._projected_lifted_vertices(V, 0.5, 1e-9), want)
        [(ndim, singular)] = calls
        assert ndim == 3 and singular > 0

    def test_numpy_1_reads_the_stacked_solve_alike(self, monkeypatch):
        # numpy < 2 reads ``b`` as a stack of vectors only when ``b.ndim == a.ndim - 1``
        # and otherwise as a stack of matrices, which needs ``b.ndim >= 2``
        solve = np.linalg.solve

        def solve_numpy_1(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if b.ndim == a.ndim - 1:
                return solve(a, b[..., None])[..., 0]
            if b.ndim < 2:
                raise ValueError("Input operand 1 does not have enough dimensions")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_numpy_1)
        rng = np.random.default_rng(196)
        for n, k in ((3, 2), (5, 3), (6, 2)):
            V = rng.dirichlet(np.ones(n), size=k)
            self.check(V, 0.25)


class TestTrees:
    def test_horizon_one_is_single_oce(self):
        S = CredalSet.from_rows(STEP, [[0.4, 0.6], [0.7, 0.3]])
        tree = ScenarioTree.uniform(STEP, 1, S)
        x = rv(OutcomeSpace(["p0", "p1"]), [1.0, -2.0])
        L = LossSpec.avar(0.4)
        levels = compose_risk(tree, x, L)
        assert levels[0][0] == pytest.approx(
            oce(S, rv(STEP, [1.0, -2.0]), L).value, abs=1e-12
        )

    def test_boundary_level_singleton_is_linear_expectation(self):
        rng = np.random.default_rng(73)
        p = rng.dirichlet(np.ones(2))
        S = CredalSet.singleton(ProbVector(STEP, p))
        tree = ScenarioTree.uniform(STEP, 3, S)
        x = rng.uniform(-3, 3, 8)
        space = OutcomeSpace([f"p{i}" for i in range(8)])
        levels = compose_risk(tree, rv(space, x), LossSpec.avar(1.0))
        path_probs = np.array(
            [p[(i >> 2) & 1] * p[(i >> 1) & 1] * p[i & 1] for i in range(8)]
        )
        assert levels[0][0] == pytest.approx(float(path_probs @ x), abs=1e-9)

    def test_two_level_tail_doubling(self):
        # binary tree, uniform base, level 0.5: each step doubles the top
        # outcome's weight until the cap binds
        S = CredalSet.from_rows(STEP, [[0.5, 0.5]])
        tree = ScenarioTree.uniform(STEP, 2, S)
        space = OutcomeSpace(["uu", "ud", "du", "dd"])
        levels = compose_risk(tree, rv(space, [1.0, 0, 0, 0]), LossSpec.avar(0.5))
        assert levels[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_nested_grid_oracle(self):
        rng = np.random.default_rng(74)
        for _ in range(12):
            horizon = int(rng.integers(1, 4))
            levels_amb = []
            verts = []
            for t in range(horizon):
                row = []
                vrow = []
                for _ in range(2**t):
                    k = int(rng.integers(1, 4))
                    M = rng.dirichlet(np.ones(2), size=k)
                    row.append(CredalSet.from_rows(STEP, M))
                    vrow.append(row[-1].matrix)
                levels_amb.append(row)
                verts.append(vrow)
            tree = ScenarioTree(STEP, horizon, levels_amb)
            x = rng.uniform(-3, 3, 2**horizon)
            lam = float(rng.choice([0.3, 0.6, 0.9]))
            space = OutcomeSpace([f"p{i}" for i in range(2**horizon)])
            got = compose_risk(tree, rv(space, x), LossSpec.avar(lam))[0][0]
            ref = tree_risk_grid(verts, x, 2, avar_loss(lam))
            assert got == pytest.approx(ref, abs=1e-6)

    def test_sublinear_matches_iterated_pasting(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            horizon = int(rng.integers(2, 4))
            levels_amb = []
            for t in range(horizon):
                levels_amb.append(
                    [
                        CredalSet.from_rows(
                            STEP, rng.dirichlet(np.ones(2), size=int(rng.integers(1, 4)))
                        )
                        for _ in range(2**t)
                    ]
                )
            tree = ScenarioTree(STEP, horizon, levels_amb)
            x = rng.uniform(-3, 3, 2**horizon)

            # iterated pasting oracle over flattened path spaces
            joint = levels_amb[0][0]
            flat = STEP
            for t in range(1, horizon):
                flat_next = OutcomeSpace(
                    [f"{a}.{b}" for a in flat.labels for b in STEP.labels]
                )
                K = CredalKernel(flat, levels_amb[t])
                pasted = pasting(joint, K)
                joint = CredalSet(
                    flat_next,
                    [ProbVector(flat_next, v.weights) for v in pasted.vertices],
                    canonical=True,
                )
                flat = flat_next
            want = sublinear_expectation(joint, rv(flat, x))

            space = OutcomeSpace([f"p{i}" for i in range(2**horizon)])
            got = compose_sublinear(tree, rv(space, x))[0][0]
            assert got == pytest.approx(want, abs=1e-9)

    def test_terminal_length_validated(self):
        S = CredalSet.from_rows(STEP, [[0.5, 0.5]])
        tree = ScenarioTree.uniform(STEP, 2, S)
        with pytest.raises(ValidationError):
            compose_sublinear(tree, rv(OutcomeSpace(["x", "y"]), [1.0, 2.0]))
        with pytest.raises(ValidationError, match="horizon must be at least one"):
            ScenarioTree(STEP, 0, [])


def mixed_tree(rng, step, horizon, counts=(1, 2, 3)):
    """A tree whose node sets have vertex counts drawn from ``counts``."""
    b = step.size
    return ScenarioTree(step, horizon, [
        [CredalSet.from_rows(step, rng.dirichlet(np.ones(b), size=int(rng.choice(counts))))
         for _ in range(b**t)]
        for t in range(horizon)
    ])


LOSSES = [LossSpec.avar(0.3), LossSpec.avar(0.5), LossSpec.avar(1.0),
          LossSpec.piecewise([-0.5, 0.0, 1.0], [0.0, 0.25, 0.75, 2.5])]


class TestBatchedScan:
    """The batched scan reproduces the per-node loop forms bit for bit."""

    def test_oce_matches_scalar_scan(self):
        rng = np.random.default_rng(80)
        for trial in range(400):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            rows = rng.dirichlet(np.ones(n), size=k)
            if trial % 3 == 0:
                rows[0] = np.eye(n)[rng.integers(n)]  # a Dirac vertex
            S = CredalSet.from_rows(OutcomeSpace([f"o{i}" for i in range(n)]), rows)
            x = rng.uniform(-3, 3, n)
            if trial % 2 == 0:
                x = np.round(x, 1)  # repeated payoffs and shared candidates
            L = LOSSES[trial % len(LOSSES)]
            got = oce(S, rv(S.space, x), L)
            value, minimizer = oce_scalar(S.matrix, x, L)
            assert np.array_equal(got.value, value)
            assert np.array_equal(got.minimizer, minimizer)

    def test_wide_sets_match_scalar_scan(self):
        # up to 64 vertices on up to 8 outcomes, kept as listed (no canonicalization)
        rng = np.random.default_rng(85)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            rows = rng.dirichlet(np.ones(n), size=int(rng.integers(8, 65)))
            rows[: trial % 4] = np.eye(n)[rng.integers(n, size=trial % 4)]  # Dirac vertices
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            S = CredalSet.from_rows(space, rows, canonical=True)
            x = rng.uniform(-3, 3, n)
            if trial % 2 == 0:
                x = np.round(x, 1)  # repeated payoffs and shared candidates
            L = LOSSES[trial % len(LOSSES)]
            got = oce(S, rv(space, x), L)
            value, minimizer = oce_scalar(S.matrix, x, L)
            assert np.array_equal(got.value, value)
            assert np.array_equal(got.minimizer, minimizer)

    def test_many_outcomes_need_no_quadratic_memory(self):
        # candidates times outcomes would be 9e6 cells; the scan works in chunks
        rng = np.random.default_rng(83)
        n = 3000
        space = OutcomeSpace([f"o{i}" for i in range(n)])
        S = CredalSet(space, [ProbVector(space, p) for p in rng.dirichlet(np.ones(n), size=3)],
                      canonical=True)
        x = rng.uniform(-3, 3, n)
        tracemalloc.start()
        try:
            got = oce(S, rv(S.space, x), LossSpec.avar(0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        value, minimizer = oce_scalar(S.matrix, x, LossSpec.avar(0.3))
        assert np.array_equal(got.value, value)
        assert np.array_equal(got.minimizer, minimizer)

    @pytest.mark.parametrize("k,n,limit", [(40, 2000, 3.5e6), (400, 400, 7e6)])
    def test_wide_sets_keep_no_expectations_per_candidate(self, k, n, limit):
        # per-vertex expectations at every candidate would be 1.9 and 3.8 MB here; what the
        # 400-vertex scan does hold is its crossing block, one cell per vertex pair and bracket
        rng = np.random.default_rng(86)
        V, x = rng.dirichlet(np.ones(n), size=(1, k)), rng.uniform(-3, 3, (1, n))
        tracemalloc.start()
        try:
            risk._oce_batch(V, x, LossSpec.piecewise([-0.4, 0.1, 0.5], [0.3, 0.6, 1.4, 2.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_many_breakpoints_need_no_comparison_per_breakpoint(self):
        # counting 4,000 breakpoints at each of 16,000 loss cells would take 64 MB
        rng = np.random.default_rng(87)
        V, x = rng.dirichlet(np.ones(2), size=(1, 2)), rng.uniform(-3, 3, (1, 2))
        L = LossSpec.piecewise(np.linspace(-1.0, 1.0, 4000), np.linspace(0.0, 2.0, 4001))
        tracemalloc.start()
        try:
            got = risk._oce_batch(V, x, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        want = oce_batch_full_scan(V, x, L)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("b,horizon", [(2, 10), (3, 4)])
    def test_trees_match_node_by_node(self, b, horizon):
        # mixed 1-, 2- and 3-vertex sets; the 512-node level is one batch per vertex count
        rng = np.random.default_rng(81 + b)
        step = OutcomeSpace([f"s{i}" for i in range(b)])
        paths = OutcomeSpace([f"p{i}" for i in range(b**horizon)])
        shared = CredalSet.from_rows(step, rng.dirichlet(np.ones(b), size=3))
        for tree in (mixed_tree(rng, step, horizon), ScenarioTree.uniform(step, horizon, shared)):
            verts = [[S.matrix for S in level] for level in tree.ambiguity]
            x = np.round(rng.uniform(-3, 3, b**horizon), 2)
            want = backward_scalar(verts, x, b, lambda V, c: float(np.max(V @ c)))
            got = compose_sublinear(tree, rv(paths, x))
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
            for L in LOSSES:
                want = backward_scalar(verts, x, b, lambda V, c: oce_scalar(V, c, L)[0])
                got = compose_risk(tree, rv(paths, x), L)
                assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_no_per_node_work(self, monkeypatch):
        rng = np.random.default_rng(82)
        tree = mixed_tree(rng, STEP, 4)
        x = rv(OutcomeSpace([f"p{i}" for i in range(16)]), rng.uniform(-3, 3, 16))
        calls = {"oce": 0, "RandomVariable": 0}
        scalar_oce = risk.oce
        rv_init = spaces.RandomVariable.__init__

        def counting_oce(*args, **kwargs):
            calls["oce"] += 1
            return scalar_oce(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["RandomVariable"] += 1
            rv_init(self, *args, **kwargs)

        monkeypatch.setattr(risk, "oce", counting_oce)
        monkeypatch.setattr(spaces.RandomVariable, "__init__", counting_init)
        compose_risk(tree, x, LossSpec.avar(0.4))
        compose_sublinear(tree, x)
        assert calls == {"oce": 0, "RandomVariable": 0}
        rv(STEP, [1.0, 2.0])  # the counters do see constructions
        assert calls["RandomVariable"] == 1

    def test_shared_level_stores_its_matrix_once(self):
        S = CredalSet.from_rows(STEP, [[0.25, 0.75], [0.5, 0.5]])
        tree = ScenarioTree.uniform(STEP, 6, S)
        for groups in tree._groups:
            [(nodes, V)] = groups
            assert nodes == slice(None) and V.shape == (1, 2, 2)
            assert np.shares_memory(V, S.matrix)

    def test_levels_are_grouped_once_on_construction(self, monkeypatch):
        rng = np.random.default_rng(84)
        shared = CredalSet.from_rows(STEP, rng.dirichlet(np.ones(2), size=2))
        x = np.round(rng.uniform(-3, 3, 16), 2)
        X, L = rv(OutcomeSpace([f"p{i}" for i in range(16)]), x), LossSpec.avar(0.4)
        trees = [mixed_tree(rng, STEP, 4), ScenarioTree.uniform(STEP, 4, shared)]

        def regroup(sets):
            raise AssertionError("levels are grouped once, when the tree is built")

        monkeypatch.setattr(risk, "_level_groups", regroup)
        for tree in trees:
            verts = [[S.matrix for S in level] for level in tree.ambiguity]
            for got, step in ((compose_risk(tree, X, L), lambda V, c: oce_scalar(V, c, L)[0]),
                              (compose_sublinear(tree, X), lambda V, c: float(np.max(V @ c)))):
                want = backward_scalar(verts, x, 2, step)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


BENCH_LOSSES = [LossSpec.avar(0.1), LossSpec.avar(0.3),
                LossSpec.piecewise([-0.4, 0.1, 0.5], [0.3, 0.6, 1.4, 2.5])]


class TestBenchShapedTrees:
    """Trees shaped as the benchmark's: horizon 8 over three outcomes, 3-vertex sets, shared
    by every node or drawn per node."""

    @pytest.fixture(scope="class")
    def trees(self):
        rng = np.random.default_rng(89)
        step = OutcomeSpace(["down", "flat", "up"])
        shared = CredalSet.from_rows(step, rng.dirichlet(np.ones(3), size=3))
        distinct = [[CredalSet.from_rows(step, rng.dirichlet(np.ones(3), size=3))
                     for _ in range(3**t)] for t in range(8)]
        X = rv(OutcomeSpace([f"p{i}" for i in range(3**8)]), rng.uniform(-1, 1, 3**8))
        return {"shared": ScenarioTree.uniform(step, 8, shared),
                "distinct": ScenarioTree(step, 8, distinct)}, X

    @pytest.mark.parametrize("name", ["shared", "distinct"])
    def test_levels_match_frozen_scan(self, trees, name):
        tree, X = trees[0][name], trees[1]
        verts = [[S.matrix for S in level] for level in tree.ambiguity]
        for L in [None, *BENCH_LOSSES]:
            got = compose_sublinear(tree, X) if L is None else compose_risk(tree, X, L)
            want = backward_full_scan(verts, X.values, 3, L)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("name", ["shared", "distinct"])
    @pytest.mark.parametrize("L,limit", [(BENCH_LOSSES[0], 2e6), (BENCH_LOSSES[2], 5e6)])
    def test_traced_peak(self, trees, name, L, limit):
        tree, X = trees[0][name], trees[1]
        tracemalloc.start()
        try:
            compose_risk(tree, X, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


class TestCrossingRows:
    """Vertex crossings are scored only on the rows that have one, and the batch is bit for
    bit the full-width scan that scores every row."""

    @staticmethod
    def crossings(monkeypatch, V, x, L):
        """The vertex-crossing columns of ``_oce_batch(V, x, L)``, NaN where none, one row per
        row of ``x`` (the scan lays them out pairs first)."""
        seen = []
        crossings = risk._vertex_crossings

        def record(*args):
            seen.append(crossings(*args))
            return seen[-1]

        with monkeypatch.context() as m:
            m.setattr(risk, "_vertex_crossings", record)
            risk._oce_batch(V, x, L)
        return seen[-1].T

    def crossing_rows(self, monkeypatch, V, x, L):
        """Whether each row of ``_oce_batch(V, x, L)`` has a vertex crossing."""
        return ~np.isnan(self.crossings(monkeypatch, V, x, L)).all(axis=1)

    @staticmethod
    def assert_full_scan(V, x, L):
        got = risk._oce_batch(V, x, L)
        want = oce_batch_full_scan(V, x, L)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    @staticmethod
    def batch(rng, rows, k, b, shared=False):
        V = rng.dirichlet(np.ones(b), size=(1 if shared else rows, k))
        x = rng.uniform(-3, 3, (rows, b))
        x[::2] = np.round(x[::2], 1)  # repeated payoffs and shared candidates
        return V, x

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("k,b", [(2, 2), (3, 3), (4, 5)])
    def test_batch_matches_full_scan(self, monkeypatch, shared, k, b):
        rng = np.random.default_rng(180 + 10 * k + b)
        V, x = self.batch(rng, 400, k, b, shared)
        hits = [self.crossing_rows(monkeypatch, V, x, L) for L in LOSSES]
        assert any(h.any() for h in hits) and not any(h.all() for h in hits)
        for L in LOSSES:
            self.assert_full_scan(V, x, L)

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_vertex_groups_have_no_crossing_columns(self, monkeypatch, shared):
        V, x = self.batch(np.random.default_rng(185), 50, 1, 3, shared)
        for L in LOSSES:
            assert self.crossings(monkeypatch, V, x, L).shape == (50, 0)
            self.assert_full_scan(V, x, L)

    @pytest.mark.parametrize("shared", [False, True])
    def test_no_row_and_every_row_crossing(self, monkeypatch, shared):
        rng = np.random.default_rng(186)
        V, x = self.batch(rng, 600, 3, 3, shared)
        for L in LOSSES:
            hit = self.crossing_rows(monkeypatch, V, x, L)
            for rows, want in ((~hit, False), (hit, True)):
                Vr = V if shared else V[rows]
                assert rows.sum() >= 2
                assert np.all(self.crossing_rows(monkeypatch, Vr, x[rows], L) == want)
                self.assert_full_scan(Vr, x[rows], L)

    @pytest.mark.parametrize("shared", [False, True])
    def test_scaled_scan_matches_full_scan(self, monkeypatch, shared):
        rng = np.random.default_rng(187)
        V, x = self.batch(rng, 300, 3, 3, shared)
        calls = []
        oce_batch = risk._oce_batch

        def counting(*args):
            calls.append(1)
            return oce_batch(*args)

        xs = x * 1e307
        for L in (LossSpec.avar(0.1), LOSSES[-1]):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(risk, "_oce_batch", counting)
                risk._oce_batch(V, xs, L)
            assert len(calls) == 2  # the scan ran once more, on x / 2^k
            assert self.crossing_rows(monkeypatch, V, xs, L).any()
            self.assert_full_scan(V, xs, L)

    def test_no_row_without_a_crossing_is_scored(self, monkeypatch):
        objective = risk._objective
        crossing_calls = []

        def strict(V, x, L, s):  # points s[c, r]: the candidates, then crossing entries s[0, e]
            assert not np.isnan(s).any(), "a point with no crossing was scored"
            crossing_calls.append(len(s) == 1)  # the candidates of three outcomes take 3 rows
            return objective(V, x, L, s)

        rng = np.random.default_rng(188)
        step = OutcomeSpace(["down", "flat", "up"])
        paths = OutcomeSpace([f"p{i}" for i in range(3**5)])
        X = rv(paths, rng.uniform(-3, 3, 3**5))
        shared = CredalSet.from_rows(step, rng.dirichlet(np.ones(3), size=3))
        trees = [mixed_tree(rng, step, 5), ScenarioTree.uniform(step, 5, shared)]
        want = [[compose_risk(tree, X, L) for L in LOSSES] for tree in trees]
        monkeypatch.setattr(risk, "_objective", strict)
        for tree, levels in zip(trees, want, strict=True):
            for L, expected in zip(LOSSES, levels, strict=True):
                got = compose_risk(tree, X, L)
                assert all(np.array_equal(g, w) for g, w in zip(got, expected, strict=True))
        assert any(crossing_calls)

    @pytest.mark.parametrize("L,limit", [(LossSpec.avar(0.1), 10e6), (BENCH_LOSSES[2], 10e6)])
    def test_distinct_wide_sets_score_crossings_within_the_budget(self, monkeypatch, L, limit):
        # 200 rows of 40 vertices on 50 outcomes: 780 vertex pairs and two brackets per row, so
        # 312,000 crossing entries, of which 50,049 (AVaR) and 1,148 (four segments) are live.
        # Scoring whole pair-brackets of the hit rows, with every row's vertex matrix gathered at
        # once, peaked at 16.2 and 11.5 MB; the entries and their gathers are chunked
        rng = np.random.default_rng(190)
        V, x = rng.dirichlet(np.ones(50), size=(200, 40)), rng.uniform(-3, 3, (200, 50))
        assert self.crossing_rows(monkeypatch, V, x, L).any()
        tracemalloc.start()
        try:
            got = risk._oce_batch(V, x, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit
        want = oce_batch_full_scan(V, x, L)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


class TestRunningMinimum:
    """The candidate scan keeps each row's first minimum across chunks, with the per-vertex
    expectations at it and at the candidate before it, so nothing is evaluated twice."""

    @staticmethod
    def scan(monkeypatch, V, x, L, per_chunk):
        """``_oce_batch(V, x, L)`` in chunks of ``per_chunk`` candidates, with its candidates and
        what the candidate scan returned: objectives, minima and bracket-end expectations."""
        seen = []
        objective = risk._objective

        def record(V, x, L, s):
            seen.append((s, objective(V, x, L, s)))
            return seen[-1][1]

        with monkeypatch.context() as m:
            m.setattr(risk, "_CELL_BUDGET", per_chunk * x.shape[0] * max(V.shape[1:]))
            m.setattr(risk, "_objective", record)
            got = risk._oce_batch(V, x, L)
        cand, (f, j, ends) = seen[0]
        return got, cand, f, j, ends

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_minimum_across_chunks(self, monkeypatch, per_chunk, shared):
        rng = np.random.default_rng(200 + 2 * per_chunk + shared)
        rows = np.arange(300)
        V = rng.dirichlet(np.ones(3), size=(1 if shared else 300, 3))
        x = rng.integers(-4, 5, (300, 3)) / 2  # repeated payoffs: equal candidates
        x[::3] = rng.uniform(-2, 2, (100, 3))
        cases = dict.fromkeys(["first in its chunk", "first candidate", "tie across a chunk end"], 0)
        for L in LOSSES:
            got, cand, f, j, ends = self.scan(monkeypatch, V, x, L, per_chunk)
            assert np.array_equal(j, np.argmin(f, axis=0))
            before = np.maximum(j - 1, 0)
            assert ends.tobytes() == risk._expect(V, L(x - cand[[before, j], rows][..., None])).tobytes()
            want = oce_batch_full_scan(V, x, L)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
            for r in rows[::7]:
                assert (got[0][r], got[1][r]) == oce_scalar(V[0 if shared else r], x[r], L)
            after = np.minimum(j + 1, len(cand) - 1)
            cases["first in its chunk"] += np.sum((j % per_chunk == 0) & (j > 0))
            cases["first candidate"] += np.sum(j == 0)
            cases["tie across a chunk end"] += np.sum((after % per_chunk == 0) & (after > j)
                                                      & (cand[after, rows] == cand[j, rows]))
        assert all(cases.values()), cases

    def test_nan_objective_comes_first_as_in_argmin(self):
        # argmin takes the first NaN; a NaN later in the scan than a number replaces it
        f = np.array([[1.0, np.nan, 2.0], [np.nan, 3.0, 2.0], [0.5, np.nan, np.nan]])
        s = np.arange(9.0).reshape(3, 3)  # the point s[c, r] is 3 c + r, so y = x - s names it
        V, x = np.ones((1, 1, 1)), np.zeros((3, 1))

        class Stub:  # a loss that makes the objective f
            def __call__(self, y):
                return f.reshape(-1)[(-y).astype(int)] + y

        budget = risk._CELL_BUDGET
        try:
            risk._CELL_BUDGET = 3  # one candidate per chunk
            _, j, _ = risk._objective(V, x, Stub(), s)
        finally:
            risk._CELL_BUDGET = budget
        assert np.array_equal(j, np.argmin(f, axis=0))


class TestNothingEvaluatedTwice:
    """Each candidate and each live crossing is scored once: one loss and one expectation per
    chunk, one more expectation for the segment slopes, and no loss at the bracket ends."""

    @pytest.mark.parametrize("budget", [None, 400])
    @pytest.mark.parametrize("shared", [False, True])
    def test_one_loss_per_chunk(self, monkeypatch, budget, shared):
        rng = np.random.default_rng(210 + shared)
        V = rng.dirichlet(np.ones(3), size=(1 if shared else 500, 3))
        x = rng.uniform(-3, 3, (500, 3))
        if budget:
            monkeypatch.setattr(risk, "_CELL_BUDGET", budget)
        counts = {"loss": 0, "points": 0, "expect": 0, "live": 0}
        loss_call, expect, crossings = LossSpec.__call__, risk._expect, risk._vertex_crossings

        def counting_loss(self, y):
            counts["loss"] += 1
            counts["points"] += y.size // 3
            return loss_call(self, y)

        def counting_expect(V, Y):
            counts["expect"] += 1
            return expect(V, Y)

        def counting_crossings(*args):
            out = crossings(*args)
            counts["live"] += np.count_nonzero(~np.isnan(out))
            return out

        monkeypatch.setattr(LossSpec, "__call__", counting_loss)
        monkeypatch.setattr(risk, "_expect", counting_expect)
        monkeypatch.setattr(risk, "_vertex_crossings", counting_crossings)
        for L in LOSSES:
            for key in counts:
                counts[key] = 0
            risk._oce_batch(V, x, L)
            assert counts["live"] > 0
            assert counts["points"] == 500 * 3 * L.breakpoints.size + counts["live"]
            assert counts["expect"] == counts["loss"] + 1
            if budget is None:  # one candidate chunk and one crossing chunk
                assert counts["loss"] == 2

    def test_vertex_pairs_come_from_one_builder(self, monkeypatch):
        triu = np.triu_indices

        def refuse(*args, **kwargs):
            raise AssertionError("a whole vertex-pair index is built")

        rng = np.random.default_rng(212)
        space = OutcomeSpace([f"o{i}" for i in range(4)])
        with monkeypatch.context() as m:
            m.setattr(np, "triu_indices", refuse)
            for _ in range(2):
                V, x = rng.dirichlet(np.ones(4), size=(30, 5)), rng.uniform(-3, 3, (30, 4))
                risk._oce_batch(V, x, LossSpec.avar(0.3))
            # a tolerance below 2 n DEDUP_TOL, at which the screen tests the row pairs
            CredalSet._stack(space, [np.eye(4).tolist() + [[0.25] * 4]] * 3, 1e-15)
        # the screen's one block of pairs flags the sets a whole triu_indices index flags, over
        # seeded sets with and without a near-duplicate pair
        for k in range(1, 7):
            P = rng.dirichlet(np.ones(4), size=(40, k))
            if k > 1:
                P[::2, -1] = P[::2, 0]
                P[::2, -1, 0] += 0.5 * DEDUP_TOL
            got = credal._plain(P, 1e-15)
            with monkeypatch.context() as m:
                m.setattr(credal, "_pair_blocks", lambda k, step: iter([triu(k, 1)]))
                assert np.array_equal(got, credal._plain(P, 1e-15))
            assert got[1::2].any() and not (k > 1 and got[::2].any())


class TestCrossingBlocks:
    """The vertex crossings are built and scored a block of vertex pairs at a time, at most
    ``_CELL_BUDGET`` cells, in the flat (pair, bracket, row) order: values and minimizers keep
    their bits whatever the block, and a wide set's scan holds one block, not every pair."""

    @staticmethod
    def cases(rng):
        return [(rng.dirichlet(np.ones(6), size=(1, 40)), rng.uniform(-3, 3, (1, 6))),
                (rng.dirichlet(np.ones(3), size=(60, 4)), np.round(rng.uniform(-3, 3, (60, 3)), 1)),
                (rng.dirichlet(np.ones(3), size=(1, 3)), rng.uniform(-3, 3, (50, 3)))]

    @pytest.mark.parametrize("budget", [1, 2**40])
    def test_any_block_keeps_the_bits(self, monkeypatch, budget):
        blocks = []
        crossings = risk._vertex_crossings

        def counting(*args):
            out = crossings(*args)
            blocks.append(np.count_nonzero(~np.isnan(out)))
            return out

        monkeypatch.setattr(risk, "_vertex_crossings", counting)
        for V, x in self.cases(np.random.default_rng(230)):
            for L in LOSSES:
                want = risk._oce_batch(V, x, L)
                blocks.clear()
                with monkeypatch.context() as m:
                    m.setattr(risk, "_CELL_BUDGET", budget)
                    got = risk._oce_batch(V, x, L)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))
                pairs = V.shape[1] * (V.shape[1] - 1) // 2
                assert len(blocks) == (pairs if budget == 1 else 1)
                assert sum(blocks) > 0
                assert np.array_equal(got, oce_batch_full_scan(V, x, L))

    def test_a_level_that_fits_runs_one_block(self, monkeypatch):
        # the largest seed-1 tree_eval level: 2,187 nodes of 3 vertices, 13,122 crossing cells
        calls = []
        crossings = risk._vertex_crossings
        monkeypatch.setattr(risk, "_vertex_crossings", lambda *a: calls.append(a) or crossings(*a))
        rng = np.random.default_rng(231)
        V, x = rng.dirichlet(np.ones(3), size=(2187, 3)), rng.uniform(-3, 3, (2187, 3))
        for L in LOSSES:
            calls.clear()
            risk._oce_batch(V, x, L)
            assert len(calls) == 1 and calls[0][-1].size == 3

    def test_thousand_vertex_scan_holds_one_block(self):
        # every pair-bracket at once took 25 MB here, and the whole vertex-pair index 8 MB more
        rng = np.random.default_rng(232)
        V, x = rng.dirichlet(np.ones(10), size=(1, 1000)), rng.uniform(-3, 3, (1, 10))
        tracemalloc.start()
        try:
            risk._oce_batch(V, x, LossSpec.avar(0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestPairBlocks:
    """``credal._pair_blocks`` cuts ``np.triu_indices(k, 1)`` into blocks of ``step`` pairs,
    each built from the triangle's row ranges: no whole index is held or cached."""

    @staticmethod
    def triu_blocks(k, step):
        i, j = np.triu_indices(k, 1)
        return [(i[lo : lo + step], j[lo : lo + step]) for lo in range(0, max(i.size, 1), step)]

    def test_blocks_are_the_triangle_cut_in_order(self):
        for k in [*range(0, 40), *range(40, 601, 17), 600]:
            for step in (1, 5, 977, 2**15):
                if step * 1000 < k * k:  # at most about a thousand blocks per count
                    continue
                got = list(credal._pair_blocks(k, step))
                want = self.triu_blocks(k, step)
                assert [len(i) for i, _ in got] == [len(i) for i, _ in want], (k, step)
                for g, w in zip(map(np.concatenate, zip(*got)), map(np.concatenate, zip(*want))):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (k, step)

    def test_cold_wide_scan_caches_no_pairs(self, monkeypatch):
        # the whole 1,000-vertex index through np.triu_indices' k^2 mask peaked at 11.3 MB
        # and left 8 MB cached
        rng = np.random.default_rng(233)
        V, x = rng.dirichlet(np.ones(6), size=(1, 1000)), rng.uniform(-3, 3, (1, 6))
        tracemalloc.start()
        try:
            got = risk._oce_batch(V, x, LossSpec.avar(0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        monkeypatch.setattr(risk, "_pair_blocks", self.triu_blocks)
        want = risk._oce_batch(V, x, LossSpec.avar(0.1))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


class TestTreeSizeGuard:
    def test_uniform_refuses_before_building_levels(self):
        S = CredalSet.from_rows(STEP, [[0.5, 0.5]])
        with pytest.raises(SizeGuardError, match="tree exceeds"):
            ScenarioTree.uniform(OutcomeSpace(["a", "b", "c"]), 40, S)

    def test_huge_horizon_refused_at_once(self):
        S = CredalSet.from_rows(STEP, [[0.5, 0.5]])
        with pytest.raises(SizeGuardError, match="tree exceeds"):
            ScenarioTree(STEP, 10**9, [[S]])
        with pytest.raises(SizeGuardError, match="tree exceeds"):
            ScenarioTree(OutcomeSpace(["one"]), 10**9, [[CredalSet.simplex(OutcomeSpace(["one"]))]])

    def test_budget_is_inclusive(self):
        # a single-outcome step space has horizon + 1 nodes
        one = OutcomeSpace(["one"])
        S = CredalSet.simplex(one)
        ScenarioTree.uniform(one, risk.MAX_TREE_NODES - 1, S)
        with pytest.raises(SizeGuardError):
            ScenarioTree.uniform(one, risk.MAX_TREE_NODES, S)
