import numpy as np
import pytest
from scipy.optimize import linprog

from _oracles import d1_hull_program, serial_solve_lp
from credalkit import credal, lp
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
    """``lp._solve_stack`` against the one-program-at-a-time solver it replaced
    (``_oracles.serial_solve_lp``): per program the same status, value, ``x``, ``dual`` and
    pivot count, bit for bit, alone (``solve_lp``) and in lockstep stacks of one shape."""

    @staticmethod
    def same(new, old):
        """``new`` (a result, or the stall it gave) is ``old`` (a result, or its stall message)."""
        if isinstance(old, str):
            assert isinstance(new, lp.SimplexStalledError) and str(new) == old
            return
        assert (new.status, new.value) == (old.status, old.value)
        assert (new.x is None and old.x is None) or np.array_equal(new.x, old.x)
        assert np.array_equal(new.dual, old.dual)

    def check(self, monkeypatch, programs):
        """Solve each ``(c, A, b)`` alone, then every program in one stack per shape, against
        the serial solver; returns each one's status, or its stall message."""
        olds = [serial_solve_lp(c, A, b) for c, A, b in programs]
        pivot = lp._pivot
        for (c, A, b), (old, n_old) in zip(programs, olds):
            pivots = []
            with monkeypatch.context() as m:
                m.setattr(lp, "_pivot", lambda *args: pivots.append(pivot(*args)))
                try:
                    new = solve_lp(c, A, b)
                except lp.SimplexStalledError as exc:
                    new = exc
            self.same(new, old)
            assert len(pivots) == n_old  # a stack of one pivots once per step
        shapes: dict = {}
        for i, (_, A, _) in enumerate(programs):
            shapes.setdefault(np.shape(A), []).append(i)
        for idx in shapes.values():
            c, A, b = (np.array([programs[i][t] for i in idx], dtype=float) for t in range(3))
            results, pivots = lp._solve_stack(c, A, b, 1e-9)
            for i, new, n_new in zip(idx, results, pivots):
                self.same(new, olds[i][0])
                assert n_new == olds[i][1]
        return [old if isinstance(old, str) else old.status for old, _ in olds]

    def test_random_programs(self, monkeypatch):
        rng = np.random.default_rng(194)
        programs = []
        for _ in range(60):
            # costed and bounded, as in TestAgainstScipy
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            A = rng.normal(size=(m, n))
            x = np.abs(rng.normal(size=n))
            A = np.vstack([A, np.ones(n)])
            b = np.concatenate([A[:-1] @ x, [x.sum() + 1.0]])
            programs.append((rng.normal(size=n), A, b))
            # hull programs, uncosted (membership, often infeasible) and costed (penalty)
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            V = rng.dirichlet(np.ones(n), size=k)
            A = np.vstack([V.T, np.ones((1, k))])
            p = rng.dirichlet(np.ones(n)) if rng.random() < 0.5 else rng.dirichlet(np.ones(k)) @ V
            b = np.concatenate([p, [1.0]])
            programs += [(np.zeros(k), A, b), (rng.uniform(0, 2, k), A, b)]
            # unbounded: a free ray along a column of zeros with negative cost
            A = np.hstack([rng.normal(size=(m, n)), np.zeros((m, 1))])
            b = A[:, :-1] @ np.abs(rng.normal(size=n))
            programs.append((-np.abs(rng.normal(size=n + 1)), A, b))
        assert set(self.check(monkeypatch, programs)) == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_degenerate_programs_with_ratio_ties(self, monkeypatch):
        # small integer data and sparse 0/1 solutions: zero right-hand sides and equal ratios
        rng = np.random.default_rng(195)
        programs = []
        for _ in range(80):
            m, n = int(rng.integers(2, 6)), int(rng.integers(3, 10))
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            A = np.hstack([A, A[:, : int(rng.integers(0, n))]])  # repeated columns
            x = (rng.random(A.shape[1]) < 0.3).astype(float)
            c = rng.integers(-1, 2, size=A.shape[1]).astype(float)
            programs.append((c, np.vstack([A, np.ones(A.shape[1])]),
                             np.concatenate([A @ x, [x.sum() + 1.0]])))
            # hull programs over Dirac and repeated points
            k = int(rng.integers(2, 6))
            V = np.eye(m)[rng.integers(0, m, size=k)]
            V[-1] = V[0]
            programs.append((np.zeros(k), np.vstack([V.T, np.ones((1, k))]),
                             np.concatenate([V[0], [1.0]])))
        self.check(monkeypatch, programs)

    def test_mixed_stacks_of_every_kind(self, monkeypatch):
        # one shape, every kind in one stack: bounded, infeasible, unbounded, redundant rows,
        # negative right-hand sides and degenerate ties, each program on its own pivots
        rng = np.random.default_rng(196)
        statuses = []
        for _ in range(25):
            m, n = int(rng.integers(2, 5)), int(rng.integers(4, 8))
            x = np.abs(rng.normal(size=n))
            A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
            bounded = (rng.normal(size=n), A, A @ x)
            V = rng.dirichlet(np.ones(m - 1), size=n)
            hull = np.vstack([V.T, np.ones((1, n))])
            outside = (np.zeros(n), hull, np.r_[np.eye(m - 1)[0], 1.0])
            inside = (rng.uniform(0, 2, n), hull, np.r_[rng.dirichlet(np.ones(n)) @ V, 1.0])
            A = np.hstack([rng.normal(size=(m, n - 1)), np.zeros((m, 1))])
            unbounded = (-np.abs(rng.normal(size=n)), A, A[:, :-1] @ x[:-1])
            A = rng.normal(size=(m, n))
            A[-1] = 2.0 * A[0]
            redundant = (np.abs(rng.normal(size=n)), A, A @ x)
            negative = (np.abs(rng.normal(size=n)), -bounded[1], -bounded[2])
            A = rng.integers(0, 2, size=(m, n)).astype(float)
            ties = (rng.integers(-1, 2, size=n).astype(float), A,
                    A @ (rng.random(n) < 0.4).astype(float))
            programs = [bounded, outside, inside, unbounded, redundant, negative, ties]
            statuses += self.check(monkeypatch, [programs[i] for i in rng.permutation(7)])
        assert set(statuses) == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_stacks_split_by_the_cell_budget(self, monkeypatch):
        # a family's programs in stacks of _CELL_BUDGET cells: one stack, or one per program
        rng = np.random.default_rng(197)
        V = rng.dirichlet(np.ones(3), size=5)
        P = np.vstack([rng.dirichlet(np.ones(5), size=30) @ V, rng.dirichlet(np.ones(3), size=10)])
        costs = rng.uniform(0, 2, 5)
        whole = _hull_lp(V, P, 1e-9, costs)
        monkeypatch.setattr(credal, "_CELL_BUDGET", 64)  # 4 rows x 10 columns: one per stack
        alone = _hull_lp(V, P, 1e-9, costs)
        A = np.vstack([V.T, np.ones((1, 5))])
        for new, one, p in zip(whole, alone, P, strict=True):
            old, _ = serial_solve_lp(costs, A, np.r_[p, 1.0])
            self.same(new, old)
            self.same(one, old)
        assert {res.status for res in whole} == {OPTIMAL, INFEASIBLE}

    def test_programs_without_columns(self, monkeypatch):
        # phase two has no column to enter: the mask is empty, not all False
        assert self.check(monkeypatch, [([], np.zeros((1, 0)), [0.0])]) == [OPTIMAL]
        assert self.check(monkeypatch, [([], np.zeros((2, 0)), [0.0, 0.0])]) == [OPTIMAL]
        assert self.check(monkeypatch, [([], np.zeros((1, 0)), [1.0])]) == [INFEASIBLE]

    def test_stall_after_the_same_pivots(self, monkeypatch):
        # the D1 program that stalled dual-set canonicalization before its nearest-point
        # decision, alone and amid programs that end, on the same rows
        rows, p = d1_hull_program()
        k = len(rows)
        A = np.vstack([rows.T, np.ones((1, k))])
        outside = np.r_[2.0, -1.0, np.zeros(rows.shape[1] - 2)]  # a negative coordinate
        points = [p, rows[0], rows.mean(axis=0), outside, p]
        statuses = self.check(monkeypatch, [(np.zeros(k), A, np.r_[q, 1.0]) for q in points])
        assert statuses[0] == statuses[-1] and "did not terminate" in statuses[0]
        assert statuses[1:4] == [OPTIMAL, OPTIMAL, INFEASIBLE]
        with pytest.raises(lp.SimplexStalledError) as alone:
            solve_lp(np.zeros(k), A, np.r_[p, 1.0])
        stacked = _hull_lp(rows, np.array(points), 1e-9)
        assert str(alone.value) == str(stacked[0]) == str(stacked[-1]) == statuses[0]
