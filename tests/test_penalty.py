import numpy as np
import pytest

from _oracles import min_penalty as oracle_min_penalty
from credalkit.credal import CredalSet, sublinear_expectation
from credalkit.errors import ValidationError
from credalkit.penalty import (
    PenaltyAtoms,
    convex_expectation,
    envelope_atoms,
    minimal_penalty,
)
from credalkit.spaces import OutcomeSpace, ProbVector, RandomVariable

AB = OutcomeSpace(["a", "b"])
ABC = OutcomeSpace(["a", "b", "c"])

TWO_ATOMS = PenaltyAtoms.from_rows(AB, [([1, 0], 0.0), ([0, 1], 2.0)])


def rv(space, values):
    return RandomVariable(space, values)


def random_atoms(rng, n=None, k=None):
    n = n or int(rng.integers(2, 6))
    k = k or int(rng.integers(1, 5))
    space = OutcomeSpace([f"o{i}" for i in range(n)])
    rows = rng.dirichlet(np.ones(n), size=k)
    costs = rng.uniform(0, 2, size=k)
    costs[int(rng.integers(0, k))] = 0.0
    return PenaltyAtoms.from_rows(space, list(zip(rows.tolist(), costs.tolist())))


class TestConstruction:
    def test_min_cost_shifted_with_record(self):
        A = PenaltyAtoms.from_rows(AB, [([1, 0], 0.5), ([0, 1], 2.0)])
        assert A.normalization_shift == 0.5
        assert A.costs.min() == 0.0
        assert A.costs[1] == 1.5

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            PenaltyAtoms.from_rows(AB, [([1, 0], -0.1)])
        for cost in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="finite"):
                PenaltyAtoms.from_rows(AB, [([1, 0], 0.0), ([0, 1], cost)])

    def test_no_shift_recorded_when_normalized(self):
        assert TWO_ATOMS.normalization_shift == 0.0


class TestConvexExpectation:
    def test_forced_arithmetic(self):
        assert convex_expectation(TWO_ATOMS, rv(AB, [4, 0])) == 4.0
        assert convex_expectation(TWO_ATOMS, rv(AB, [0, 4])) == 2.0

    def test_zero_costs_collapse_to_sublinear(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n, k = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            rows = rng.dirichlet(np.ones(n), size=k)
            A = PenaltyAtoms.from_rows(space, [(r, 0.0) for r in rows.tolist()])
            S = CredalSet.from_rows(space, rows)
            x = rng.uniform(-3, 3, n)
            assert convex_expectation(A, rv(space, x)) == pytest.approx(
                sublinear_expectation(S, rv(space, x)), abs=1e-12
            )

    def test_bounds_and_constants(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            A = random_atoms(rng)
            x = rng.uniform(-4, 4, A.space.size)
            val = convex_expectation(A, rv(A.space, x))
            bound = float(np.max(np.abs(x)))
            assert -bound - 1e-12 <= val <= bound + 1e-12
            c = float(rng.uniform(-3, 3))
            assert convex_expectation(A, rv(A.space, np.full(A.space.size, c))) == pytest.approx(c, abs=1e-12)

    def test_monotone_translation(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            A = random_atoms(rng)
            x = rng.uniform(-4, 4, A.space.size)
            y = x + rng.uniform(0, 2, A.space.size)
            assert convex_expectation(A, rv(A.space, x)) <= convex_expectation(
                A, rv(A.space, y)
            ) + 1e-12
            c = float(rng.uniform(-3, 3))
            assert convex_expectation(A, rv(A.space, x + c)) == pytest.approx(
                convex_expectation(A, rv(A.space, x)) + c, abs=1e-11
            )


class TestMinimalPenalty:
    def test_unique_combination(self):
        assert minimal_penalty(TWO_ATOMS, ProbVector(AB, [0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_atom_dominance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            A = random_atoms(rng)
            for i in range(A.n_atoms):
                P, c = A.atom(i)
                assert minimal_penalty(A, P) <= c + 1e-9

    def test_outside_hull_is_inf(self):
        A = PenaltyAtoms.from_rows(
            ABC, [([1, 0, 0], 0.0), ([0, 1, 0], 1.0)]
        )
        assert minimal_penalty(A, ProbVector.dirac(ABC, "c")) == float("inf")

    def test_against_scipy(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            A = random_atoms(rng)
            if rng.random() < 0.5:
                lam = rng.dirichlet(np.ones(A.n_atoms))
                p = lam @ A.points
            else:
                p = rng.dirichlet(np.ones(A.space.size))
            ours = minimal_penalty(A, ProbVector(A.space, p))
            ref = oracle_min_penalty(A.points, A.costs, p)
            if ref == float("inf"):
                assert ours == float("inf")
            else:
                assert ours == pytest.approx(ref, abs=1e-8)

    def test_fenchel_moreau_fixed_point(self):
        # the conjugate sup over payoffs reproduces the envelope value:
        # no sampled direction may exceed it (Fenchel-Young), and the
        # direction read off the oracle LP duals must attain it
        from scipy.optimize import linprog

        rng = np.random.default_rng(25)
        for _ in range(40):
            A = random_atoms(rng)
            lam = rng.dirichlet(np.ones(A.n_atoms))
            p = ProbVector(A.space, lam @ A.points)
            target = minimal_penalty(A, p)
            dirs = [rng.choice([-1.0, 1.0], A.space.size) for _ in range(100)]
            dirs += [a - b for a in A.points for b in A.points]
            dirs += [rng.uniform(-6, 6, A.space.size) for _ in range(100)]
            for d in dirs:
                x = rv(A.space, d)
                gap = float(np.dot(p.weights, d)) - convex_expectation(A, x)
                assert gap <= target + 1e-9
            k = A.n_atoms
            res = linprog(
                A.costs,
                A_eq=np.vstack([A.points.T, np.ones((1, k))]),
                b_eq=np.concatenate([p.weights, [1.0]]),
                bounds=(0, None),
                method="highs",
            )
            assert res.status == 0
            attaining = rv(A.space, res.eqlin.marginals[:-1])
            gap = float(np.dot(p.weights, attaining.values)) - convex_expectation(
                A, attaining
            )
            assert gap == pytest.approx(target, abs=1e-6)

    def test_fenchel_moreau_exact_on_two_outcomes(self):
        # in two dimensions every payoff is a scaled (1, -1) plus a constant,
        # so an exact scale sweep realizes the full conjugate supremum
        rng = np.random.default_rng(26)
        for _ in range(40):
            A = random_atoms(rng, n=2)
            lam = rng.dirichlet(np.ones(A.n_atoms))
            p = ProbVector(A.space, lam @ A.points)
            target = minimal_penalty(A, p)
            e = float(p.weights[0] - p.weights[1])
            ei = A.points[:, 0] - A.points[:, 1]
            scales = {0.0}
            for i in range(A.n_atoms):
                for j in range(i + 1, A.n_atoms):
                    if abs(ei[i] - ei[j]) > 1e-14:
                        scales.add((A.costs[i] - A.costs[j]) / (ei[i] - ei[j]))
            best = max(c * e - float(np.max(c * ei - A.costs)) for c in scales)
            assert best == pytest.approx(target, abs=1e-9)


class TestEnvelope:
    def test_dominated_midpoint_dropped(self):
        A = PenaltyAtoms.from_rows(
            AB, [([1, 0], 0.0), ([0, 1], 0.0), ([0.5, 0.5], 1.0)]
        )
        E = envelope_atoms(A)
        assert E.n_atoms == 2
        assert np.allclose(E.points, [[1, 0], [0, 1]])

    def test_already_minimal_unchanged(self):
        E = envelope_atoms(TWO_ATOMS)
        assert E.n_atoms == 2
        assert np.allclose(E.points, TWO_ATOMS.points)
        assert np.allclose(E.costs, TWO_ATOMS.costs)

    def test_duplicate_with_higher_cost_dropped(self):
        A = PenaltyAtoms.from_rows(AB, [([1, 0], 0.0), ([1, 0], 1.0), ([0, 1], 0.5)])
        E = envelope_atoms(A)
        assert E.n_atoms == 2
        assert np.allclose(sorted(E.costs.tolist()), [0.0, 0.5])

    def test_idempotent_and_value_preserving(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            A = random_atoms(rng)
            E = envelope_atoms(A)
            E2 = envelope_atoms(E)
            assert E2.n_atoms == E.n_atoms
            assert np.allclose(E2.points, E.points) and np.allclose(E2.costs, E.costs)
            for _ in range(20):
                x = rv(A.space, rng.uniform(-4, 4, A.space.size))
                assert convex_expectation(E, x) == pytest.approx(
                    convex_expectation(A, x), abs=1e-9
                )
