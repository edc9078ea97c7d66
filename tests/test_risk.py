import numpy as np
import pytest

from _oracles import avar_loss, greedy_tail, oce_grid, robust_tail_lp, tree_risk_grid
from credalkit.conditional import CredalKernel, pasting
from credalkit.credal import CredalSet, equal_sets, sublinear_expectation
from credalkit.errors import SizeGuardError, ValidationError
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


class TestDual:
    def test_primal_dual_equality(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            S = random_set(rng)
            x = rv(S.space, rng.uniform(-4, 4, S.space.size))
            lam = float(rng.choice(np.arange(1, 10) / 10.0))
            primal = oce(S, x, LossSpec.avar(lam)).value
            dual = avar_dual_evaluate(S, lam, x)
            assert primal == pytest.approx(dual, abs=1e-9)

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
        assert equal_sets(D, S)

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

    def test_outcome_guard(self):
        space = OutcomeSpace([f"o{i}" for i in range(11)])
        S = CredalSet.singleton(ProbVector.uniform(space))
        with pytest.raises(SizeGuardError):
            avar_dual_set(S, 0.5)


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
