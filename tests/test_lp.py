import numpy as np
import pytest
from scipy.optimize import linprog

from _oracles import d1_hull_program, run_simplex_loop
from credalkit import lp
from credalkit.credal import _hull_lp
from credalkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def scipy_reference(c, A, b):
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status == 0:
        return OPTIMAL, res.fun
    if res.status == 2:
        return INFEASIBLE, None
    if res.status == 3:
        return UNBOUNDED, None
    raise AssertionError(f"unexpected scipy status {res.status}")


class TestAgainstScipy:
    def test_random_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, m + 10))
            A = rng.normal(size=(m, n))
            x_feas = np.abs(rng.normal(size=n))
            b = A @ x_feas
            c = rng.normal(size=n)
            # bound the feasible region so the test stays in the optimal regime
            A = np.vstack([A, np.ones(n)])
            b = np.concatenate([b, [float(np.sum(x_feas) + rng.uniform(0.5, 2.0))]])
            ours = solve_lp(c, A, b)
            status, value = scipy_reference(c, A, b)
            assert ours.status == status
            if status == OPTIMAL:
                assert ours.value == pytest.approx(value, abs=1e-7)
                assert np.allclose(A @ ours.x, b, atol=1e-7)
                assert np.all(ours.x >= -1e-9)

    def test_random_membership_shape(self):
        # the exact LP family used by hull membership: columns are barycentric
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            V = rng.dirichlet(np.ones(n), size=k)
            if rng.random() < 0.5:
                lam = rng.dirichlet(np.ones(k))
                p = lam @ V
            else:
                p = rng.dirichlet(np.ones(n))
            A = np.vstack([V.T, np.ones((1, k))])
            b = np.concatenate([p, [1.0]])
            ours = solve_lp(np.zeros(k), A, b)
            status, _ = scipy_reference(np.zeros(k), A, b)
            assert ours.status == status

    def test_infeasible_certificate(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            V = rng.dirichlet(np.ones(n), size=k)
            p = rng.dirichlet(np.ones(n))
            A = np.vstack([V.T, np.ones((1, k))])
            b = np.concatenate([p, [1.0]])
            ours = solve_lp(np.zeros(k), A, b)
            if ours.status != INFEASIBLE:
                continue
            checked += 1
            y = ours.dual
            assert np.all(y @ A <= 1e-7)
            assert y @ b > 1e-9
        assert checked > 20

    def test_duals_match_scipy_on_optimal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 6))
            V = rng.dirichlet(np.ones(n), size=k)
            costs = rng.uniform(0, 2, size=k)
            lam = rng.dirichlet(np.ones(k))
            p = lam @ V
            A = np.vstack([V.T, np.ones((1, k))])
            b = np.concatenate([p, [1.0]])
            ours = solve_lp(costs, A, b)
            assert ours.status == OPTIMAL
            # strong duality: y.b equals the optimum
            assert ours.dual @ b == pytest.approx(ours.value, abs=1e-7)
            # dual feasibility on every column
            assert np.all(ours.dual @ A <= costs + 1e-7)


class TestEdgeCases:
    def test_unbounded(self):
        res = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        assert res.status == UNBOUNDED

    def test_redundant_rows(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 1.0, 2.0])
        res = solve_lp([1.0, 2.0], A, b)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_vertex(self):
        # multiple basic feasible solutions describe the same point
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        b = np.array([0.0, 1.0, 1.0])
        res = solve_lp([0.0, 1.0, 2.0], A, b)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_negative_rhs_rows(self):
        A = np.array([[-1.0, 0.0], [1.0, 1.0]])
        b = np.array([-0.25, 1.0])
        res = solve_lp([1.0, 0.0], A, b)
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(0.25, abs=1e-9)

    def test_single_point(self):
        res = solve_lp([5.0], [[1.0]], [1.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(5.0)


class TestSimplexLoop:
    """``lp._run_simplex`` against the ``flatnonzero`` loop it replaced
    (``_oracles.run_simplex_loop``): the same status, value, ``x``, ``dual`` and pivot
    count, bit for bit."""

    @staticmethod
    def both(monkeypatch, solve):
        """``[(result, pivots)]`` of ``solve()`` under the package's loop, then the oracle's;
        a stall's result is its message."""
        out = []
        pivot = lp._pivot
        for loop in (lp._run_simplex, run_simplex_loop):
            pivots = []
            with monkeypatch.context() as m:
                m.setattr(lp, "_run_simplex", loop)
                m.setattr(lp, "_pivot", lambda *args: pivots.append(pivot(*args)))
                try:
                    result = solve()
                except lp.SimplexStalledError as exc:
                    result = str(exc)
            out.append((result, len(pivots)))
        return out

    def check(self, monkeypatch, c, A, b):
        (new, n_new), (old, n_old) = self.both(monkeypatch, lambda: solve_lp(c, A, b))
        assert n_new == n_old
        assert (new.status, new.value) == (old.status, old.value)
        assert (new.x is None and old.x is None) or np.array_equal(new.x, old.x)
        assert np.array_equal(new.dual, old.dual)
        return new.status

    def test_random_programs(self, monkeypatch):
        rng = np.random.default_rng(194)
        statuses = []
        for _ in range(60):
            # costed and bounded, as in TestAgainstScipy
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            A = rng.normal(size=(m, n))
            x = np.abs(rng.normal(size=n))
            A = np.vstack([A, np.ones(n)])
            b = np.concatenate([A[:-1] @ x, [x.sum() + 1.0]])
            statuses.append(self.check(monkeypatch, rng.normal(size=n), A, b))
            # hull programs, uncosted (membership, often infeasible) and costed (penalty)
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            V = rng.dirichlet(np.ones(n), size=k)
            A = np.vstack([V.T, np.ones((1, k))])
            p = rng.dirichlet(np.ones(n)) if rng.random() < 0.5 else rng.dirichlet(np.ones(k)) @ V
            b = np.concatenate([p, [1.0]])
            statuses.append(self.check(monkeypatch, np.zeros(k), A, b))
            statuses.append(self.check(monkeypatch, rng.uniform(0, 2, k), A, b))
            # unbounded: a free ray along a column of zeros with negative cost
            A = np.hstack([rng.normal(size=(m, n)), np.zeros((m, 1))])
            b = A[:, :-1] @ np.abs(rng.normal(size=n))
            statuses.append(self.check(monkeypatch, -np.abs(rng.normal(size=n + 1)), A, b))
        assert set(statuses) == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_degenerate_programs_with_ratio_ties(self, monkeypatch):
        # small integer data and sparse 0/1 solutions: zero right-hand sides and equal ratios
        rng = np.random.default_rng(195)
        for _ in range(80):
            m, n = int(rng.integers(2, 6)), int(rng.integers(3, 10))
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            A = np.hstack([A, A[:, : int(rng.integers(0, n))]])  # repeated columns
            x = (rng.random(A.shape[1]) < 0.3).astype(float)
            c = rng.integers(-1, 2, size=A.shape[1]).astype(float)
            self.check(monkeypatch, c, np.vstack([A, np.ones(A.shape[1])]),
                       np.concatenate([A @ x, [x.sum() + 1.0]]))
            # hull programs over Dirac and repeated points
            k = int(rng.integers(2, 6))
            V = np.eye(m)[rng.integers(0, m, size=k)]
            V[-1] = V[0]
            A = np.vstack([V.T, np.ones((1, k))])
            self.check(monkeypatch, np.zeros(k), A, np.concatenate([V[0], [1.0]]))

    def test_programs_without_columns(self, monkeypatch):
        # phase two has no column to enter: the mask is empty, not all False
        assert self.check(monkeypatch, [], np.zeros((1, 0)), [0.0]) == OPTIMAL
        assert self.check(monkeypatch, [], np.zeros((2, 0)), [0.0, 0.0]) == OPTIMAL
        assert self.check(monkeypatch, [], np.zeros((1, 0)), [1.0]) == INFEASIBLE

    def test_stall_after_the_same_pivots(self, monkeypatch):
        # the D1 program that stalled dual-set canonicalization before its nearest-point decision
        rows, p = d1_hull_program()
        (new, n_new), (old, n_old) = self.both(monkeypatch, lambda: _hull_lp(rows, p, 1e-9))
        assert new == old and "did not terminate" in new
        assert n_new == n_old
