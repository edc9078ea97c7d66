import numpy as np
import pytest

from _oracles import pasting_generator_support
from credalkit.conditional import (
    CredalKernel,
    PenaltyKernel,
    check_penalty_additivity,
    check_tower,
    compose,
    composed_atoms,
    conditional_convex,
    conditional_expectation,
    pasting,
)
from credalkit.credal import CredalSet, equal_sets, sublinear_expectation
from credalkit.errors import SizeGuardError, ValidationError
from credalkit.penalty import PenaltyAtoms, convex_expectation, envelope_atoms
from credalkit.spaces import (
    Kernel,
    OutcomeSpace,
    ProbVector,
    ProductSpace,
    RandomVariable,
)

U = OutcomeSpace(["0", "1"])
V = OutcomeSpace(["0", "1"])
UV = ProductSpace(U, V)

DIAG = CredalKernel(U, [CredalSet.singleton(ProbVector.dirac(V, "0")),
                        CredalSet.singleton(ProbVector.dirac(V, "1"))])
FULL = CredalKernel.constant(U, CredalSet.simplex(V))

# the two-vertex set whose members all have uniform first marginal
P1 = [0.5, 0.0, 0.5, 0.0]
P2 = [0.0, 0.5, 0.0, 0.5]
NONRECT = CredalSet.from_rows(UV, [P1, P2])

X_DIAG = RandomVariable(UV, [1, 0, 0, 1])


def rv(space, values):
    return RandomVariable(space, values)


def random_kernel(rng, u_space, nv=None, max_vertices=3):
    nv = nv or int(rng.integers(2, 4))
    v_space = OutcomeSpace([f"v{i}" for i in range(nv)])
    table = []
    for _ in range(u_space.size):
        k = int(rng.integers(1, max_vertices + 1))
        table.append(CredalSet.from_rows(v_space, rng.dirichlet(np.ones(nv), size=k)))
    return CredalKernel(u_space, table)


def random_penalty_kernel(rng, u_space, nv=None, max_atoms=3):
    nv = nv or int(rng.integers(2, 4))
    v_space = OutcomeSpace([f"v{i}" for i in range(nv)])
    table = []
    for _ in range(u_space.size):
        k = int(rng.integers(1, max_atoms + 1))
        rows = rng.dirichlet(np.ones(nv), size=k)
        costs = rng.uniform(0, 1.5, size=k)
        costs[int(rng.integers(0, k))] = 0.0
        table.append(PenaltyAtoms.from_rows(v_space, list(zip(rows.tolist(), costs.tolist()))))
    return PenaltyKernel(u_space, table)


def random_penalty(rng, space, max_atoms=3):
    k = int(rng.integers(1, max_atoms + 1))
    rows = rng.dirichlet(np.ones(space.size), size=k)
    costs = rng.uniform(0, 1.5, size=k)
    costs[int(rng.integers(0, k))] = 0.0
    return PenaltyAtoms.from_rows(space, list(zip(rows.tolist(), costs.tolist())))


class TestConditionalExpectation:
    def test_full_simplex_takes_row_max(self):
        x = rv(UV, [1, 5, 2, -3])
        out = conditional_expectation(FULL, x)
        assert np.array_equal(out.values, [5, 2])

    def test_diagonal_kernel_evaluates_on_diagonal(self):
        x = rv(UV, [1, 5, 2, -3])
        out = conditional_expectation(DIAG, x)
        assert np.array_equal(out.values, [1, -3])

    def test_segment_kernel_vertex_enumeration(self):
        K = CredalKernel(U, [CredalSet.from_rows(V, [[0.2, 0.8], [0.6, 0.4]]),
                             CredalSet.simplex(V)])
        x = rv(UV, [1, 0, 0, 0])
        out = conditional_expectation(K, x)
        assert out.values[0] == pytest.approx(0.6, abs=1e-15)

    def test_identity_on_first_coordinate_payoffs(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            nu = int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            K = random_kernel(rng, us)
            y = rng.uniform(-3, 3, nu)
            x = rv(ProductSpace(us, K.v_space), np.repeat(y, K.v_space.size))
            out = conditional_expectation(K, x)
            assert out.values == pytest.approx(y, rel=1e-13)

    def test_monotone_and_homogeneous_per_entry(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            K = random_kernel(rng, U)
            space = ProductSpace(U, K.v_space)
            x = rng.uniform(-3, 3, space.size)
            y = x + rng.uniform(0, 2, space.size)
            lam = float(rng.uniform(0, 2))
            vx = conditional_expectation(K, rv(space, x)).values
            vy = conditional_expectation(K, rv(space, y)).values
            vl = conditional_expectation(K, rv(space, lam * x)).values
            assert np.all(vx <= vy + 1e-12)
            assert np.allclose(vl, lam * vx, atol=1e-11)


class TestConditionalConvex:
    def test_zero_costs_match_credal(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            K = random_kernel(rng, U)
            table = [
                PenaltyAtoms.from_rows(
                    K.v_space, [(r, 0.0) for r in K[iu].matrix.tolist()]
                )
                for iu in range(2)
            ]
            KP = PenaltyKernel(U, table)
            space = ProductSpace(U, K.v_space)
            x = rv(space, rng.uniform(-3, 3, space.size))
            assert np.allclose(
                conditional_convex(KP, x).values,
                conditional_expectation(K, x).values,
                atol=1e-12,
            )

    def test_forced_value(self):
        KP = PenaltyKernel(
            U,
            [
                PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 2.0)]),
                PenaltyAtoms.from_rows(V, [([1, 0], 0.0)]),
            ],
        )
        x = rv(UV, [0, 4, 0, 0])
        out = conditional_convex(KP, x)
        assert out.values[0] == 2.0

    def test_constant_preserved_and_bounds(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            KP = random_penalty_kernel(rng, U)
            space = ProductSpace(U, KP.v_space)
            c = float(rng.uniform(-3, 3))
            out = conditional_convex(KP, rv(space, np.full(space.size, c)))
            assert np.allclose(out.values, c, atol=1e-12)
            x = rng.uniform(-3, 3, space.size)
            vals = conditional_convex(KP, rv(space, x)).values
            bound = float(np.max(np.abs(x)))
            assert np.all(vals <= bound + 1e-12) and np.all(vals >= -bound - 1e-12)


class TestCompose:
    def test_uniform_outer_diagonal_kernel(self):
        outer = CredalSet.from_rows(U, [[0.5, 0.5]])
        assert compose(outer, DIAG, X_DIAG) == pytest.approx(1.0, abs=1e-15)

    def test_simplex_outer_diagonal_kernel(self):
        outer = CredalSet.simplex(U)
        assert compose(outer, DIAG, rv(UV, [1, 0, 0, 0])) == pytest.approx(1.0)

    def test_dirac_outer_reduces_to_slice(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            K = random_kernel(rng, U)
            space = ProductSpace(U, K.v_space)
            x = rv(space, rng.uniform(-3, 3, space.size))
            outer = CredalSet.singleton(ProbVector.dirac(U, "1"))
            got = compose(outer, K, x)
            want = conditional_expectation(K, x).values[1]
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixed_inputs_rejected(self):
        outer = CredalSet.simplex(U)
        KP = PenaltyKernel(U, [PenaltyAtoms.from_rows(V, [([1, 0], 0.0)])] * 2)
        with pytest.raises(ValidationError):
            compose(outer, KP, X_DIAG)


class TestPasting:
    def test_singleton_diagonal(self):
        SU = CredalSet.from_rows(U, [[0.5, 0.5]])
        S = pasting(SU, DIAG)
        assert S.n_vertices == 1
        assert np.allclose(S.matrix[0], [0.5, 0, 0, 0.5])

    def test_simplex_with_diagonal_kernel(self):
        S = pasting(CredalSet.simplex(U), DIAG)
        want = CredalSet.from_rows(UV, [[1, 0, 0, 0], [0, 0, 0, 1]])
        assert equal_sets(S, want)

    def test_simplex_with_simplex_kernel_is_full(self):
        S = pasting(CredalSet.simplex(U), FULL)
        assert equal_sets(S, CredalSet.simplex(UV))

    def test_support_function_identity(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            nu = int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            SU = CredalSet.from_rows(
                us, rng.dirichlet(np.ones(nu), size=int(rng.integers(1, 4)))
            )
            K = random_kernel(rng, us)
            S = pasting(SU, K)
            space = ProductSpace(us, K.v_space)
            for _ in range(20):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert sublinear_expectation(S, x) == pytest.approx(
                    compose(SU, K, x), abs=1e-9
                )

    def test_support_against_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            nu = int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            SU = CredalSet.from_rows(
                us, rng.dirichlet(np.ones(nu), size=int(rng.integers(1, 4)))
            )
            K = random_kernel(rng, us)
            S = pasting(SU, K)
            space = ProductSpace(us, K.v_space)
            lists = [[K[iu].matrix[i] for i in range(K[iu].n_vertices)] for iu in range(nu)]
            x = rng.uniform(-3, 3, space.size)
            assert sublinear_expectation(S, rv(space, x)) == pytest.approx(
                pasting_generator_support(SU.matrix, lists, x), abs=1e-9
            )

    def test_overflow_guard(self):
        # two choices per outcome over 21 outcomes: 2**21 selections
        big_u = OutcomeSpace([f"u{i}" for i in range(21)])
        K = CredalKernel.constant(big_u, CredalSet.simplex(V))
        SU = CredalSet.singleton(ProbVector.uniform(big_u))
        with pytest.raises(SizeGuardError):
            pasting(SU, K)
        # the same guard covers composed atoms and the default additivity probes
        two = PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 0.0)])
        KP = PenaltyKernel(big_u, [two] * 21)
        AU = PenaltyAtoms.from_rows(big_u, [([1.0 / 21] * 21, 0.0)])
        A = PenaltyAtoms.from_rows(ProductSpace(big_u, V), [([1.0 / 42] * 42, 0.0)])
        with pytest.raises(SizeGuardError, match="generator enumeration exceeds"):
            composed_atoms(AU, KP)
        with pytest.raises(SizeGuardError, match="generator enumeration exceeds"):
            check_penalty_additivity(A, AU, KP, probes=None)


class TestComposedAtoms:
    def test_single_selection(self):
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(U, [PenaltyAtoms.from_rows(V, [([1, 0], 0.0)]),
                               PenaltyAtoms.from_rows(V, [([0, 1], 0.0)])])
        C = composed_atoms(AU, KP)
        assert C.n_atoms == 1
        assert np.allclose(C.points[0], [0.5, 0, 0, 0.5])
        assert C.costs[0] == 0.0

    def test_selection_costs(self):
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(
            U,
            [
                PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 1.0)]),
                PenaltyAtoms.from_rows(V, [([0, 1], 0.0)]),
            ],
        )
        C = composed_atoms(AU, KP)
        assert sorted(C.costs.tolist()) == [0.0, 0.5]

    def test_identity_with_compose(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            nu = int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            AU = random_penalty(rng, us)
            KP = random_penalty_kernel(rng, us)
            C = composed_atoms(AU, KP)
            space = ProductSpace(us, KP.v_space)
            for _ in range(10):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert convex_expectation(C, x) == pytest.approx(
                    compose(AU, KP, x), abs=1e-9
                )


class TestCheckTower:
    def test_diagonal_set_is_rectangular(self):
        S = CredalSet.from_rows(UV, [[1, 0, 0, 0], [0, 0, 0, 1]])
        report = check_tower(S, DIAG)
        assert report.rectangular
        assert report.witness is None

    def test_nonrectangular_gap(self):
        report = check_tower(NONRECT, FULL)
        assert not report.rectangular
        assert report.pasting_vertex_outside is not None
        w = report.witness
        assert w.gap > 1e-9
        # the canonical payoff: joint 0.5 against composed 1.0
        lhs = sublinear_expectation(NONRECT, X_DIAG)
        rhs = compose(report.marginal, FULL, X_DIAG)
        assert lhs == 0.5 and rhs == 1.0

    def test_nonrectangular_reverse_direction(self):
        report = check_tower(NONRECT, DIAG)
        assert not report.rectangular
        assert report.set_vertex_outside is not None

    def test_full_simplex_rectangular(self):
        report = check_tower(CredalSet.simplex(UV), FULL)
        assert report.rectangular

    def test_pasted_sets_report_rectangular(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            nu = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            SU = CredalSet.from_rows(
                us, rng.dirichlet(np.ones(nu), size=int(rng.integers(1, 4)))
            )
            K = random_kernel(rng, us)
            S = pasting(SU, K)
            report = check_tower(S, K)
            assert report.rectangular
            space = ProductSpace(us, K.v_space)
            for _ in range(10):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert abs(
                    sublinear_expectation(S, x) - compose(report.marginal, K, x)
                ) <= 1e-9

    def test_witness_reproducible(self):
        rng = np.random.default_rng(39)
        found = 0
        for _ in range(40):
            K = random_kernel(rng, U, nv=2)
            space = ProductSpace(U, K.v_space)
            S = CredalSet.from_rows(space, rng.dirichlet(np.ones(4), size=2))
            report = check_tower(S, K)
            if report.rectangular:
                continue
            found += 1
            w = report.witness
            lhs = sublinear_expectation(S, w.payoff)
            rhs = compose(report.marginal, K, w.payoff)
            assert lhs == pytest.approx(w.lhs, abs=1e-9)
            assert rhs == pytest.approx(w.rhs, abs=1e-9)
            assert abs(w.gap) > 1e-9
        assert found > 10


class TestPenaltyAdditivity:
    def test_composed_instances_subadditive_probes(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            nu = int(rng.integers(1, 3))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            AU = random_penalty(rng, us)
            KP = random_penalty_kernel(rng, us)
            C = composed_atoms(AU, KP)
            report = check_penalty_additivity(C, AU, KP, seed=1)
            for probe in report.probes:
                if probe.split_penalty == float("inf"):
                    continue
                assert probe.joint_penalty <= probe.split_penalty + 1e-9
            assert report.classification in ("additive", "subadditive")
            assert report.consistent

    def test_zero_cost_rectangular_probes_equal(self):
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0), ([1, 0], 0.0)])
        KP = PenaltyKernel(
            U,
            [
                PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 0.0)]),
                PenaltyAtoms.from_rows(V, [([0.5, 0.5], 0.0)]),
            ],
        )
        C = composed_atoms(AU, KP)
        report = check_penalty_additivity(C, AU, KP)
        assert report.classification == "additive"

    def test_indicator_penalty_nonrectangular(self):
        # joint family concentrated on the two-vertex set; probe the diagonal mix
        A = PenaltyAtoms.from_rows(UV, [(P1, 0.0), (P2, 0.0)])
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(
            U,
            [PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 0.0)])] * 2,
        )
        Q = ProbVector(U, [0.5, 0.5])
        R = Kernel(U, [ProbVector.dirac(V, "0"), ProbVector.dirac(V, "1")])
        report = check_penalty_additivity(A, AU, KP, probes=[(Q, R)])
        probe = report.probes[0]
        assert probe.joint_penalty == float("inf")
        assert probe.split_penalty == 0.0
        assert probe.relation == "joint_above"

    def test_probe_outside_hull_reports_inf(self):
        A = PenaltyAtoms.from_rows(UV, [(P1, 0.0)])
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(U, [PenaltyAtoms.from_rows(V, [([1, 0], 0.0)])] * 2)
        Q = ProbVector(U, [0.5, 0.5])
        R = Kernel(U, [ProbVector.dirac(V, "1")] * 2)
        report = check_penalty_additivity(A, AU, KP, probes=[(Q, R)])
        assert report.probes[0].joint_penalty == float("inf")
        assert report.probes[0].split_penalty == float("inf")
        assert report.probes[0].relation == "equal"

    def test_atom_probe_equality_on_envelope_minimal_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            nu = int(rng.integers(1, 3))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            AU = envelope_atoms(random_penalty(rng, us))
            raw = random_penalty_kernel(rng, us)
            KP = PenaltyKernel(us, [envelope_atoms(raw[iu]) for iu in range(nu)])
            C = composed_atoms(AU, KP)
            # decomposable atom probes only (no random draws)
            report = check_penalty_additivity(C, AU, KP, n_random=0, seed=2)
            for probe in report.probes:
                assert probe.split_penalty < float("inf")
                assert probe.joint_penalty == pytest.approx(
                    probe.split_penalty, abs=1e-9
                )
