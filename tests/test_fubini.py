import numpy as np
import pytest

from _oracles import fubini_loop
from credalkit.credal import CredalSet
from credalkit.fubini import check_fubini, interchange_gap
from credalkit.spaces import OutcomeSpace, ProbVector, ProductSpace, RandomVariable

U = OutcomeSpace(["0", "1"])
V = OutcomeSpace(["0", "1"])
UV = ProductSpace(U, V)

MATCH = RandomVariable(UV, [1, 0, 0, 1])  # indicator of equal coordinates


def rv(space, values):
    return RandomVariable(space, values)


def random_set(rng, space, k=None):
    k = k or int(rng.integers(1, 4))
    return CredalSet.from_rows(space, rng.dirichlet(np.ones(space.size), size=k))


def random_factor(rng, space):
    """Dirichlet vertices, vertices with exact zeros, or a Dirac."""
    rows = rng.dirichlet(np.ones(space.size), size=int(rng.integers(1, 4)))
    kind = int(rng.integers(0, 3))
    if kind == 1:
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[np.arange(len(rows)), rng.integers(0, space.size, len(rows))] += 0.5
        rows /= rows.sum(axis=1, keepdims=True)
    elif kind == 2:
        return CredalSet.singleton(ProbVector.dirac(space, space.labels[0]))
    return CredalSet.from_rows(space, rows)


class TestInterchangeGap:
    def test_classical_fubini_for_singletons(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            nu, nv = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            p = rng.dirichlet(np.ones(nu))
            q = rng.dirichlet(np.ones(nv))
            SU = CredalSet.singleton(ProbVector(us, p))
            SV = CredalSet.singleton(ProbVector(vs, q))
            x = rng.uniform(-3, 3, nu * nv)
            lhs, rhs = interchange_gap(SU, SV, rv(ProductSpace(us, vs), x))
            classical = float(p @ x.reshape(nu, nv) @ q)
            assert lhs == pytest.approx(classical, abs=1e-12)
            assert rhs == pytest.approx(classical, abs=1e-12)

    def test_match_counterexample(self):
        SU = CredalSet.from_rows(U, [[0.5, 0.5]])
        SV = CredalSet.simplex(V)
        lhs, rhs = interchange_gap(SU, SV, MATCH)
        assert lhs == 1.0 and rhs == 0.5

    def test_match_counterexample_swapped_roles(self):
        SU = CredalSet.simplex(U)
        SV = CredalSet.from_rows(V, [[0.5, 0.5]])
        lhs, rhs = interchange_gap(SU, SV, MATCH)
        assert (lhs, rhs) == (0.5, 1.0)

    def test_separable_payoff(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            SU = random_set(rng, U)
            SV = random_set(rng, V)
            f = rng.uniform(-2, 2, 2)
            g = rng.uniform(-2, 2, 2)
            x = rv(UV, np.add.outer(f, g).reshape(-1))
            lhs, rhs = interchange_gap(SU, SV, x)
            from credalkit.credal import sublinear_expectation

            want = sublinear_expectation(SU, rv(U, f)) + sublinear_expectation(
                SV, rv(V, g)
            )
            assert lhs == pytest.approx(want, abs=1e-11)
            assert rhs == pytest.approx(want, abs=1e-11)


class TestCheckFubini:
    def test_matrices_bitwise_equal_to_per_vertex_transpose(self):
        rng = np.random.default_rng(57)
        for _ in range(80):
            us = OutcomeSpace([f"u{i}" for i in range(int(rng.integers(1, 5)))])
            vs = OutcomeSpace([f"v{i}" for i in range(int(rng.integers(1, 4)))])
            SU, SV = random_factor(rng, us), random_factor(rng, vs)
            report = check_fubini(SU, SV)
            forward, backward = fubini_loop(SU, SV)
            assert np.array_equal(report.forward_set.matrix, forward)
            assert np.array_equal(report.backward_set.matrix, backward)
            assert report.backward_set.space == ProductSpace(us, vs)

    def test_full_simplices_interchangeable(self):
        report = check_fubini(CredalSet.simplex(U), CredalSet.simplex(V))
        assert report.interchangeable

    def test_singletons_interchangeable(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            SU = CredalSet.singleton(ProbVector(U, rng.dirichlet(np.ones(2))))
            SV = CredalSet.singleton(ProbVector(V, rng.dirichlet(np.ones(2))))
            report = check_fubini(SU, SV)
            assert report.interchangeable

    def test_counterexample_with_witness(self):
        SU = CredalSet.from_rows(U, [[0.5, 0.5]])
        SV = CredalSet.simplex(V)
        report = check_fubini(SU, SV)
        assert not report.interchangeable
        payoff, lhs, rhs = report.witness
        assert abs(lhs - rhs) > 1e-9
        relhs, rerhs = interchange_gap(SU, SV, payoff)
        assert relhs == pytest.approx(lhs, abs=1e-9)
        assert rerhs == pytest.approx(rhs, abs=1e-9)
        # the canonical payoff reproduces the known values
        assert interchange_gap(SU, SV, MATCH) == (1.0, 0.5)

    def test_dirac_times_anything_interchangeable(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            SU = CredalSet.singleton(ProbVector.dirac(U, "1"))
            SV = random_set(rng, V)
            report = check_fubini(SU, SV)
            assert report.interchangeable

    def test_symmetry_of_status(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            SU = random_set(rng, U)
            SV = random_set(rng, V)
            a = check_fubini(SU, SV).interchangeable
            b = check_fubini(SV, SU).interchangeable
            assert a == b

    def test_interchangeable_implies_no_gap(self):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(40):
            SU = random_set(rng, U)
            SV = random_set(rng, V)
            report = check_fubini(SU, SV)
            if not report.interchangeable:
                continue
            checked += 1
            for _ in range(50):
                x = rv(UV, rng.uniform(-3, 3, 4))
                lhs, rhs = interchange_gap(SU, SV, x)
                assert abs(lhs - rhs) <= 1e-9
        assert checked >= 5

    def test_not_interchangeable_witness_always_reproduces(self):
        rng = np.random.default_rng(56)
        found = 0
        for _ in range(40):
            SU = random_set(rng, U)
            SV = random_set(rng, V)
            report = check_fubini(SU, SV)
            if report.interchangeable:
                continue
            found += 1
            payoff, lhs, rhs = report.witness
            assert abs(lhs - rhs) > 1e-9
            relhs, rerhs = interchange_gap(SU, SV, payoff)
            assert (relhs, rerhs) == pytest.approx((lhs, rhs), abs=1e-9)
        assert found > 5
