import itertools
import math
import sys

import numpy as np
import pytest

from _oracles import (composed_atoms_loop, d1_hull_program, pasting_generator_support,
                      pasting_loop, serial_solve_lp)
from credalkit import conditional, credal, penalty
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
from credalkit.credal import CredalSet, equal_sets, marginal_set, membership, sublinear_expectation
from credalkit.errors import SizeGuardError, ValidationError
from credalkit.lp import SimplexStalledError
from credalkit.penalty import PenaltyAtoms, convex_expectation, envelope_atoms, minimal_penalty
from credalkit.spaces import (
    Kernel,
    OutcomeSpace,
    ProbVector,
    ProductSpace,
    RandomVariable,
    product,
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


def mixed_rows(rng, n, k):
    """``k`` rows on ``n`` outcomes, each a Dirichlet draw, a draw with exact
    zeros, or a Dirac."""
    rows = rng.dirichlet(np.ones(n), size=k)
    zero = rng.random(rows.shape) < 0.4
    zero[np.arange(k), rng.integers(0, n, k)] = False
    sparse = np.where(zero, 0.0, rows)
    sparse /= sparse.sum(axis=1, keepdims=True)
    dirac = np.eye(n)[rng.integers(0, n, k)]
    return np.choose(rng.integers(0, 3, k)[:, None], [rows, sparse, dirac])


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

    @staticmethod
    def generators(SU, K):
        """Every product of an outer vertex and a per-outcome kernel vertex
        selection, outer vertex slowest and the last outcome fastest."""
        space = ProductSpace(SU.space, K.v_space)
        pools = [range(S.n_vertices) for S in K.table]
        return space, [
            ProbVector(space, np.concatenate([q[iu] * K[iu].matrix[c]
                                              for iu, c in enumerate(choice)]))
            for q in SU.matrix for choice in itertools.product(*pools)
        ]

    @staticmethod
    def random_factor(rng, space):
        """A random set, its vertices with exact zeros, the simplex, or a Dirac."""
        kind = int(rng.integers(0, 5))
        rows = rng.dirichlet(np.ones(space.size), size=int(rng.integers(2, 5)))
        if kind <= 1:
            return CredalSet.from_rows(space, rows)
        if kind == 2:
            rows[rng.random(rows.shape) < 0.4] = 0.0
            rows[np.arange(len(rows)), rng.integers(0, space.size, len(rows))] += 0.5
            return CredalSet.from_rows(space, rows / rows.sum(axis=1, keepdims=True))
        if kind == 3:
            return CredalSet.simplex(space)
        return CredalSet.singleton(ProbVector.dirac(space, space.labels[-1]))

    def test_equals_lp_canonical_hull_of_its_generators(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            nu, nv = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            SU = self.random_factor(rng, us)
            K = CredalKernel(us, [self.random_factor(rng, vs) for _ in range(nu)])
            space, generators = self.generators(SU, K)
            want = CredalSet(space, generators).matrix
            assert np.array_equal(pasting(SU, K).matrix, want)

    def test_runs_no_lp(self, monkeypatch):
        rng = np.random.default_rng(41)
        us = OutcomeSpace(["u0", "u1", "u2", "u3"])
        SU = CredalSet.from_rows(us, rng.dirichlet(np.ones(4), size=3))
        K = random_kernel(rng, us, nv=3)
        calls = []
        for name, mod in list(sys.modules.items()):
            if name.startswith("credalkit") and hasattr(mod, "_solve_stack"):
                real = mod._solve_stack
                monkeypatch.setattr(mod, "_solve_stack", lambda c, A, b, tol, _real=real:
                                    calls.extend([1] * len(b)) or _real(c, A, b, tol))
        S = pasting(SU, K)
        assert calls == []
        assert S.n_vertices == 3 * np.prod([R.n_vertices for R in K.table])

    def test_near_zero_outer_mass_keeps_every_vertex(self):
        # an outer vertex with mass 1e-11 on u0: the products that differ only
        # there are distinct extreme points, 7e-12 apart in sup norm
        us = OutcomeSpace(["u0", "u1", "u2"])
        vs = OutcomeSpace(["v0", "v1", "v2"])
        SU = CredalSet.from_rows(
            us, [[1e-11, 0.5, 0.5 - 1e-11], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
        R = CredalSet.from_rows(vs, [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        K = CredalKernel.constant(us, R)
        S = pasting(SU, K)
        assert (SU.n_vertices, R.n_vertices, S.n_vertices) == (3, 3, 81)
        _, generators = self.generators(SU, K)
        assert np.array_equal(S.matrix, np.stack([g.weights for g in generators]))
        assert check_tower(S, K).rectangular

    def test_overflow_guard(self):
        # two choices per outcome over 21 outcomes: 2**21 selections
        big_u = OutcomeSpace([f"u{i}" for i in range(21)])
        K = CredalKernel.constant(big_u, CredalSet.simplex(V))
        SU = CredalSet.singleton(ProbVector.uniform(big_u))
        with pytest.raises(SizeGuardError):
            pasting(SU, K)
        # the same guard covers composed atoms; the default additivity probes
        # are charged their program cells before any is enumerated
        two = PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 0.0)])
        KP = PenaltyKernel(big_u, [two] * 21)
        AU = PenaltyAtoms.from_rows(big_u, [([1.0 / 21] * 21, 0.0)])
        A = PenaltyAtoms.from_rows(ProductSpace(big_u, V), [([1.0 / 42] * 42, 0.0)])
        with pytest.raises(SizeGuardError, match="generator enumeration exceeds"):
            composed_atoms(AU, KP)
        with pytest.raises(SizeGuardError, match="additivity probes exceed"):
            check_penalty_additivity(A, AU, KP, probes=None)

    def test_bitwise_equal_to_selection_loop(self):
        rng = np.random.default_rng(42)
        zero_mass = 0
        for _ in range(80):
            nu, nv = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])
            SU = CredalSet.from_rows(us, mixed_rows(rng, nu, int(rng.integers(1, 4))))
            table = [mixed_rows(rng, nv, int(rng.integers(1, 4))) for _ in range(nu)]
            K = CredalKernel(us, [CredalSet.from_rows(vs, rows) for rows in table])
            want = pasting_loop(SU, K)
            assert np.array_equal(pasting(SU, K).matrix, np.stack([g.weights for g in want]))
            zero_mass += bool(np.any(SU.matrix == 0.0))
        assert zero_mass >= 20


class TestComposedAtoms:
    def test_bitwise_equal_to_selection_loop(self):
        rng = np.random.default_rng(43)
        zero_mass = 0
        for _ in range(80):
            nu, nv = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            vs = OutcomeSpace([f"v{i}" for i in range(nv)])

            def family(space):
                k = int(rng.integers(1, 4))
                costs = rng.uniform(0, 1.5, size=k)
                return PenaltyAtoms.from_rows(space, zip(mixed_rows(rng, space.size, k), costs))

            AU = family(us)
            KP = PenaltyKernel(us, [family(vs) for _ in range(nu)])
            got, want = composed_atoms(AU, KP), composed_atoms_loop(AU, KP)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.costs, want.costs)
            zero_mass += bool(np.any(AU.points == 0.0))
        assert zero_mass >= 20

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


def stalled_family(nu, seed):
    """The pasted sets whose tower check stalled the simplex (ROADMAP D1):
    3 outer vertices on ``nu`` outcomes, 3 kernel vertices on 4 per outcome."""
    rng = np.random.default_rng(seed)
    us = OutcomeSpace([f"u{i}" for i in range(nu)])
    vs = OutcomeSpace([f"v{i}" for i in range(4)])
    SU = CredalSet.from_rows(us, rng.dirichlet(np.ones(nu), size=3))
    K = CredalKernel(us, [CredalSet.from_rows(vs, rng.dirichlet(np.ones(4), size=3))
                          for _ in range(nu)])
    return pasting(SU, K), K


class TestPastedInclusions:
    @pytest.mark.parametrize("nu, seed", [(4, 0), (5, 0), (5, 3), (5, 5), (5, 7), (7, 0)])
    def test_run_no_lp(self, monkeypatch, nu, seed):
        # every vertex of either side matches a vertex of the other, so
        # neither inclusion scan reaches the simplex that used to stall
        S, K = stalled_family(nu, seed)
        lps, scans = [], []
        real_lp, real_scan = credal._solve_stack, conditional.first_outside

        def scan(A, B, tol):
            before = len(lps)
            found = real_scan(A, B, tol)
            scans.append(len(lps) - before)
            return found

        monkeypatch.setattr(credal, "_solve_stack",
                            lambda c, A, b, tol: lps.extend([1] * len(b)) or real_lp(c, A, b, tol))
        monkeypatch.setattr(conditional, "first_outside", scan)
        assert check_tower(S, K).rectangular
        assert scans == [0, 0]

    def test_member_certificate_reproduces_the_point(self):
        # ROADMAP D4: a pasting vertex 8e-17 from a vertex of S, checked
        # against S listed in this order, once got a lam 6.7e-6 off the point
        S, K = stalled_family(4, 0)
        P = pasting(marginal_set(S), K).vertices[201]
        rng = np.random.default_rng(0)
        rng.permutation(S.n_vertices)
        order = rng.permutation(S.n_vertices)
        S = CredalSet(S.space, [S.vertices[i] for i in order], canonical=True)
        member, lam = membership(S, P)
        assert member
        assert np.abs(lam @ S.matrix - P.weights).sum() <= 1e-9


def additivity_loop(A, AU, K, probes):
    """``(joint, split)`` penalties of each probe, one program at a time: each minimal penalty
    solved alone by the serial simplex (``_oracles.serial_solve_lp``), costs past ``2**900``
    scaled by a power of two as ``minimal_penalty`` scales them."""
    def penalty(F, P):
        k = max(math.frexp(F.costs.max())[1] - 900, 0)
        res, _ = serial_solve_lp(np.ldexp(F.costs, -k),
                                 np.vstack([F.points.T, np.ones((1, F.n_atoms))]),
                                 np.r_[P.weights, 1.0])
        return math.ldexp(max(res.value, 0.0), k) if res.status == "optimal" else float("inf")

    out = []
    for Q, R in probes:
        split = penalty(AU, Q)
        for iu in range(K.u_space.size):
            if Q.weights[iu] > 0.0:
                split = split + float(Q.weights[iu]) * penalty(K[iu], R[iu])
        out.append((penalty(A, product(Q, R)), split))
    return out


class TestPenaltyAdditivity:
    def test_lockstep_families_equal_the_one_program_loop(self):
        # given probes with zero-mass outcomes and points outside the hulls (inf), and the
        # atom grid, on families with costs past 2**900 too: every probe bit for bit
        rng = np.random.default_rng(43)
        values = []
        for case in range(12):
            us = OutcomeSpace([f"u{i}" for i in range(int(rng.integers(2, 4)))])
            AU, KP = random_penalty(rng, us, 4), random_penalty_kernel(rng, us, max_atoms=4)
            if case % 3 == 2:
                AU = PenaltyAtoms.from_rows(us, [(p, c * 2.0**950) for p, c in
                                                 zip(AU.points.tolist(), AU.costs.tolist())])
            C, vs = composed_atoms(AU, KP), KP.v_space
            probes = []
            for _ in range(8):
                q = rng.dirichlet(np.ones(AU.n_atoms)) @ AU.points
                if rng.random() < 0.5:  # a zero-mass outcome, off the outer hull as a rule
                    q[int(rng.integers(0, us.size))] = 0.0
                table = [rng.dirichlet(np.ones(A.n_atoms)) @ A.points for A in KP.table]
                if rng.random() < 0.3:  # a kernel point off its family's hull
                    table[int(rng.integers(0, us.size))] = rng.dirichlet(np.ones(vs.size))
                probes.append((ProbVector(us, q / q.sum()),
                               Kernel(us, [ProbVector(vs, r) for r in table])))
            report = check_penalty_additivity(C, AU, KP, probes=probes)
            grid = check_penalty_additivity(C, AU, KP, n_random=2, seed=case)
            for rep, given in ((report, probes), (grid, [(p.Q, p.R) for p in grid.probes])):
                for probe, (joint, split) in zip(rep.probes, additivity_loop(C, AU, KP, given),
                                                 strict=True):
                    assert (probe.joint_penalty, probe.split_penalty) == (joint, split)
                    values += [joint, split]
        assert float("inf") in values and max(v for v in values if v < float("inf")) > 2.0**900
        assert any(v == 0.0 for v in values)

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

    def test_a_stall_inside_a_family_stack_fails_with_its_message(self):
        # the D1 hull program as a zero-cost penalty program on six outcomes (with a
        # one-outcome second factor), amid programs that end: the check stops with the
        # serial solver's message, raised at the first probe that needs it
        rows, p = d1_hull_program()
        us, vs = OutcomeSpace([f"u{i}" for i in range(6)]), OutcomeSpace(["v"])

        def zero(space):  # the rows as they are: validating them would round their last bits
            return PenaltyAtoms.__new__(PenaltyAtoms)._set(space, rows, np.zeros(len(rows)))

        A = zero(ProductSpace(us, vs))
        K = PenaltyKernel(us, [PenaltyAtoms.from_rows(vs, [([1.0], 0.0)])] * 6)
        R = Kernel(us, [ProbVector(vs, [1.0])] * 6)
        probes = [(ProbVector(us, q), R) for q in (rows[0], rows.mean(axis=0), p, rows[1])]
        old, _ = serial_solve_lp(np.zeros(len(rows)), np.vstack([rows.T, np.ones(len(rows))]),
                                 np.r_[p, 1.0])
        assert "did not terminate" in old
        with pytest.raises(SimplexStalledError) as stall:
            check_penalty_additivity(A, zero(us), K, probes=probes)
        assert str(stall.value) == old

    def test_each_distinct_program_is_solved_once(self, monkeypatch):
        # the atom grid repeats outer and kernel programs: each distinct one is solved once,
        # each family's in one stack, and every probe is bitwise what the uncached loop computes
        rng = np.random.default_rng(42)
        real, calls = penalty._hull_lp, []
        monkeypatch.setattr(penalty, "_hull_lp", lambda *a: calls.append(a) or real(*a))
        solved = uncached = 0
        for _ in range(15):
            us = OutcomeSpace([f"u{i}" for i in range(int(rng.integers(1, 4)))])
            AU, KP = random_penalty(rng, us), random_penalty_kernel(rng, us)
            C = composed_atoms(AU, KP)
            calls.clear()
            report = check_penalty_additivity(C, AU, KP, n_random=3, seed=2)
            programs = [(id(a[0]), w.tobytes()) for a in calls for w in a[1]]
            assert len(programs) == len(set(programs))
            assert len(calls) == len({id(a[0]) for a in calls})  # one lockstep run per family
            solved += len(programs)
            for probe in report.probes:
                Q, R = probe.Q, probe.R
                split = minimal_penalty(AU, Q)
                uncached += 2
                for iu in range(us.size):
                    if Q.weights[iu] > 0.0:
                        split = split + float(Q.weights[iu]) * minimal_penalty(KP[iu], R[iu])
                        uncached += 1
                assert probe.joint_penalty == minimal_penalty(C, product(Q, R))
                assert probe.split_penalty == split
        assert solved < uncached

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

    def test_random_probes_are_charged_their_program_cells(self, monkeypatch):
        # (4 + 1) * 2 joint + (2 + 1) * 1 outer + (2 + 1) * (2 + 1) kernel cells
        A = PenaltyAtoms.from_rows(UV, [(P1, 0.0), (P2, 1.0)])
        AU = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(U, [PenaltyAtoms.from_rows(V, [([1, 0], 0.0), ([0, 1], 1.0)]),
                               PenaltyAtoms.from_rows(V, [([0, 1], 0.0)])])
        # the 1 x 2 x 1 atom grid is charged with the random draws
        monkeypatch.setattr(conditional, "MAX_GENERATORS", 4 * 22)
        assert len(check_penalty_additivity(A, AU, KP, n_random=2).probes) == 2 + 2
        with pytest.raises(SizeGuardError, match="additivity probes exceed 88 program cells"):
            check_penalty_additivity(A, AU, KP, n_random=3)
        # given probes are charged instead of the grid
        first = check_penalty_additivity(A, AU, KP, n_random=0).probes[0]
        Q, R = first.Q, first.R
        assert len(check_penalty_additivity(A, AU, KP, [(Q, R)] * 4, n_random=0).probes) == 4
        with pytest.raises(SizeGuardError, match="additivity probes exceed 88 program cells"):
            check_penalty_additivity(A, AU, KP, [(Q, R)] * 3, n_random=2)
        with pytest.raises(ValidationError):
            check_penalty_additivity(A, AU, KP, n_random=-1)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="D5: probes sit only on the composed-atom grid and its mixtures")
    def test_joint_atom_off_the_probe_grid_is_subadditive(self):
        # the joint family adds a Dirac at (0, 0), at cost 10, to the composed uniform atom;
        # no probe reaches it, so the check reads "additive" while the joint value is larger
        half = PenaltyAtoms.from_rows(U, [([0.5, 0.5], 0.0)])
        KP = PenaltyKernel(U, [PenaltyAtoms.from_rows(V, [([0.5, 0.5], 0.0)])] * 2)
        A = PenaltyAtoms.from_rows(UV, [([0.25] * 4, 0.0), ([1, 0, 0, 0], 10.0)])
        x = rv(UV, [100.0, 0.0, 0.0, 0.0])
        assert convex_expectation(A, x) == 90.0
        assert compose(half, KP, x) == 25.0
        report = check_penalty_additivity(A, half, KP)
        assert report.classification == "subadditive"
        assert report.consistent

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
