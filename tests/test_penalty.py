import itertools

import numpy as np
import pytest

from _oracles import composed_atoms_loop, credal_set_per_row, penalty_atoms_per_row
from _oracles import min_penalty as oracle_min_penalty
from credalkit.conditional import PenaltyKernel, composed_atoms
from credalkit.credal import CredalSet, sublinear_expectation
from credalkit.errors import ValidationError
from credalkit.lp import SimplexStalledError
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
                P, c = ProbVector(A.space, A.points[i]), float(A.costs[i])
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

    @pytest.mark.xfail(strict=True, raises=SimplexStalledError,
                       reason="D1: a costed hull program stalls on a composed family")
    def test_composed_family_envelope(self):
        # |U| = 4, |V| = 3, four atoms per family: 1,024 composed atoms
        rng = np.random.default_rng(0)

        def family(space):
            costs = [0.0, *rng.uniform(0.0, 1.0, 3)]
            return PenaltyAtoms.from_rows(
                space, zip(rng.dirichlet(np.ones(space.size), size=4), costs))

        us = OutcomeSpace([f"u{i}" for i in range(4)])
        AU = family(us)
        C = composed_atoms(AU, PenaltyKernel(us, [family(ABC) for _ in range(4)]))
        E = envelope_atoms(C)
        for x in rng.uniform(-4, 4, (20, C.space.size)):
            assert convex_expectation(E, rv(C.space, x)) == pytest.approx(
                convex_expectation(C, rv(C.space, x)), abs=1e-9)

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


def atom_rows(rng, n, k):
    """``k`` atoms on ``n`` outcomes: masses off one within tolerance, a ``-1e-13``
    weight, a duplicate atom, and costs that are shifted or already start at zero."""
    rows = rng.dirichlet(np.ones(n), size=k)
    rows *= 1.0 + rng.uniform(-9e-10, 9e-10, (k, 1))
    if n > 1:
        i = rng.integers(k)
        rows[i] = np.eye(n)[rng.integers(n)]
        rows[i, (np.argmax(rows[i]) + 1) % n] = -1e-13
    if k > 1:
        rows[-1] = rows[0]
    costs = rng.uniform(0.0, 1.5, k)
    if rng.random() < 0.5:
        costs[rng.integers(k)] = 0.0
    return list(zip(rows.tolist(), costs.tolist()))


def same_family(A, B):
    return (A.points.tobytes() == B.points.tobytes() and A.costs.tobytes() == B.costs.tobytes()
            and A.normalization_shift == B.normalization_shift)


def built(build):
    """What ``build()`` gives: the family's bytes, or the class and message it raises."""
    try:
        A = build()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(A, CredalSet):
        return A.matrix.tobytes()
    return A.points.tobytes(), A.costs.tobytes(), A.normalization_shift


def refuse(*args, **kwargs):
    raise AssertionError("constructor called")


class TestFamiliesFromRowStacks:
    """Both families validate their rows as one stack (``spaces._prob_stack``), bitwise as one
    ``ProbVector`` per row, and refuse as the first bad row would on its own."""

    def test_no_probvector_per_atom(self, monkeypatch):
        rng = np.random.default_rng(160)
        for _ in range(40):
            nu, nv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            outer = atom_rows(rng, nu, int(rng.integers(1, 4)))
            table = [atom_rows(rng, nv, int(rng.integers(1, 3))) for _ in range(nu)]
            AU_ref = penalty_atoms_per_row(us, outer)
            K_ref = PenaltyKernel(us, [penalty_atoms_per_row(vs, t) for t in table])
            C_ref = composed_atoms_loop(AU_ref, K_ref)
            with monkeypatch.context() as m:
                m.setattr(PenaltyAtoms, "from_rows", classmethod(
                    lambda cls, space, rows: penalty_atoms_per_row(space, rows)))
                E_ref = envelope_atoms(C_ref)
            with monkeypatch.context() as m:
                m.setattr(ProbVector, "__init__", refuse)
                AU = PenaltyAtoms.from_rows(us, outer)
                K = PenaltyKernel(us, [PenaltyAtoms.from_rows(vs, t) for t in table])
                C = composed_atoms(AU, K)
                E = envelope_atoms(C)
            assert same_family(AU, AU_ref)
            assert all(same_family(A, B) for A, B in zip(K.table, K_ref.table))
            assert same_family(C, C_ref)
            assert same_family(E, E_ref)

    BAD = {
        "short": lambda r: r[:-1],
        "long": lambda r: r + [0.0],
        "ragged": lambda r: [r[0], r[1:]],
        "empty": lambda r: [],
        "abc": lambda r: ["abc"] + r[1:],
        "nan": lambda r: [float("nan")] + r[1:],
        "mass-1.1": lambda r: [1.1 * w for w in r],
        "weight-0.2": lambda r: [-0.2, 1.2] + [0.0] * (len(r) - 2),
    }

    def cases(self):
        good = np.random.default_rng(161).dirichlet(np.ones(3), size=5).tolist()
        for kind in self.BAD:
            for pos in (0, 2, 4):
                rows = list(good)
                rows[pos] = self.BAD[kind](rows[pos])
                yield rows
            yield [self.BAD[kind](r) for r in good]
        for (a, b), (i, j) in itertools.product(itertools.product(self.BAD, repeat=2),
                                                [(0, 2), (0, 4), (2, 4)]):
            rows = list(good)
            rows[i], rows[j] = self.BAD[a](rows[i]), self.BAD[b](rows[j])
            yield rows
        yield []
        yield good

    def test_refusals_match_per_row_checks(self, monkeypatch):
        space = OutcomeSpace("abc")
        costs = [0.5, 0.0, 1.0, 2.0, 0.25]
        n = 0
        for rows in self.cases():
            atoms = list(zip(rows, costs))
            want = built(lambda: credal_set_per_row(space, rows)), built(
                lambda: penalty_atoms_per_row(space, atoms))
            with monkeypatch.context() as m:
                for cls in (ProbVector, CredalSet, PenaltyAtoms):
                    m.setattr(cls, "__init__", refuse)
                got = built(lambda: CredalSet.from_rows(space, rows)), built(
                    lambda: PenaltyAtoms.from_rows(space, atoms))
            assert got == want, rows
            n += isinstance(want[0], tuple)
        assert n == 3 * len(self.BAD) + len(self.BAD) + 3 * len(self.BAD) ** 2 + 1

    @pytest.mark.parametrize("cost", [-0.5, float("nan"), float("inf"), "abc", None, [1.0]])
    def test_bad_cost_after_good_weights(self, cost):
        space = OutcomeSpace("abc")
        good = np.random.default_rng(162).dirichlet(np.ones(3), size=4).tolist()
        for pos in (0, 3):
            costs = [0.5, 0.0, 1.0, 2.0]
            costs[pos] = cost
            atoms = list(zip(good, costs))
            want = built(lambda: penalty_atoms_per_row(space, atoms))
            assert isinstance(want, tuple) and isinstance(want[0], type)
            assert built(lambda: PenaltyAtoms.from_rows(space, atoms)) == want
            atoms[1] = (self.BAD["nan"](good[1]), atoms[1][1])  # a bad weight comes first
            assert built(lambda: PenaltyAtoms.from_rows(space, atoms)) == built(
                lambda: penalty_atoms_per_row(space, atoms))
