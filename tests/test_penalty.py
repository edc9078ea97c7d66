import itertools
import math

import numpy as np
import pytest

from _oracles import composed_atoms_loop, credal_set_per_row, envelope_atoms_lp
from _oracles import min_penalty as oracle_min_penalty
from _oracles import penalty_atoms_per_row, worst_value_loss
from credalkit import credal
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

    @pytest.mark.filterwarnings("error")
    def test_costs_near_the_float_range_scale_exactly(self):
        # a top cost of binary exponent 900 runs unscaled; 2**j times it runs as it, exactly
        rng = np.random.default_rng(29)
        for _ in range(40):
            A = random_atoms(rng)
            top = math.frexp(A.costs.max())[1]
            mid = PenaltyAtoms.from_rows(A.space, zip(A.points, np.ldexp(A.costs, 900 - top)))
            lam = rng.dirichlet(np.ones(A.n_atoms))
            for p in (lam @ A.points, rng.dirichlet(np.ones(A.space.size))):
                P = ProbVector(A.space, p)
                want = minimal_penalty(mid, P)
                ref = math.ldexp(oracle_min_penalty(A.points, A.costs, p), 900 - top)
                assert want == pytest.approx(ref, rel=1e-9)
                for j in (1, 60, 123):
                    big = PenaltyAtoms.from_rows(A.space, zip(A.points, np.ldexp(mid.costs, j)))
                    assert minimal_penalty(big, P) == math.ldexp(want, j)

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

    @pytest.mark.parametrize("seed", [0, 2])
    def test_composed_family_envelope(self, seed, monkeypatch):
        # ROADMAP D1's family: the costed dominance loop stalled on both seeds
        C, rng = d1_family(seed)
        E = without_simplex(monkeypatch, C)
        for x in rng.uniform(-4, 4, (20, C.space.size)):
            assert convex_expectation(E, rv(C.space, x)) == pytest.approx(
                convex_expectation(C, rv(C.space, x)), abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    def test_composed_family_keeps_the_lp_loops_atoms(self, seed, monkeypatch):
        C, _ = d1_family(seed)
        assert same_family(without_simplex(monkeypatch, C), envelope_atoms_lp(C))

    def test_generic_families_run_no_simplex(self, monkeypatch):
        rng = np.random.default_rng(27)
        for _ in range(300):
            A = random_atoms(rng, k=int(rng.integers(1, 8)))
            E = without_simplex(monkeypatch, A)
            assert kept_rows(A, E) is not None

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


def d1_family(seed):
    """ROADMAP D1's composed family and the generator after it: |U| = 4, |V| = 3 and four
    atoms per family (costs ``[0, *uniform(0, 1, 3)]`` drawn first), 1,024 composed atoms."""
    rng = np.random.default_rng(seed)

    def family(space):
        costs = [0.0, *rng.uniform(0.0, 1.0, 3)]
        return PenaltyAtoms.from_rows(
            space, zip(rng.dirichlet(np.ones(space.size), size=4), costs))

    us = OutcomeSpace([f"u{i}" for i in range(4)])
    AU = family(us)
    return composed_atoms(AU, PenaltyKernel(us, [family(ABC) for _ in range(4)])), rng


def without_simplex(monkeypatch, A):
    """``envelope_atoms(A)`` with every simplex program refused."""
    def refuse_lp(*args, **kwargs):
        raise AssertionError("a simplex program ran")

    with monkeypatch.context() as m:
        m.setattr(credal, "_solve_stack", refuse_lp)
        return envelope_atoms(A)


def kept_rows(A, E):
    """The indices of ``A``'s atoms that ``E`` lists, in order, with ``E`` checked to hold
    exactly those rows and costs, bit for bit; None if ``E`` is not such a subfamily."""
    keep, j = [], 0
    for w, c in zip(E.points, E.costs):
        while j < A.n_atoms and (np.max(np.abs(A.points[j] - w)) > 1e-15
                                 or A.costs[j] - E.normalization_shift != c):
            j += 1
        keep.append(j)
        j += 1
    if j > A.n_atoms:
        return None
    own = PenaltyAtoms.__new__(PenaltyAtoms)._set(A.space, A.points[keep], A.costs[keep])
    return keep if same_family(E, own) else None


D4_REFUSAL = "the hull program's member weights miss the point"


class TestEnvelopeRule:
    """``envelope_atoms`` drops an atom when its perspective-lifted point lies within ``tol``
    (L1) of the hull of the other kept atoms and the apex.  The r-th atom it drops, counted in
    listing order, loses at most ``r (1 + c_i / max c) tol (max c + ptp(X) / 2)`` at any
    payoff ``X``; the costed loop it replaced dropped only atoms undercut by over ``tol``."""

    TOL = 1e-9
    KINDS = ("generic", "duplicate", "one", "zero", "on", "tie", "big", "small")

    def family(self, rng, kind):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(n), size=k)
        costs = rng.uniform(0.0, 2.0, k)
        costs[rng.integers(k)] = 0.0
        if kind == "duplicate":
            j = rng.integers(k)
            rows, costs = np.vstack([rows, rows[j]]), np.append(costs, costs[j] + rng.choice([0, .5]))
        elif kind == "one":
            rows, costs = rows[:1], costs[:1]
        elif kind == "zero":
            costs[:] = 0.0
        elif kind in ("on", "tie"):  # a mixture of the others, on the envelope or near it
            p = rng.dirichlet(np.ones(k)) @ rows
            c = oracle_min_penalty(rows, costs, p)
            if kind == "tie":
                c = max(c + rng.choice([-4, -2, -0.5, 0.5, 2, 4]) * self.TOL * (costs.max() + 1), 0.0)
            pos = rng.integers(k + 1)
            rows, costs = np.insert(rows, pos, p, 0), np.insert(costs, pos, c)
        else:
            costs *= {"generic": 1.0, "big": 1e6, "small": 1e-6}[kind]
        return PenaltyAtoms.from_rows(OutcomeSpace([f"o{i}" for i in range(n)]),
                                      zip(rows.tolist(), costs.tolist()))

    def bound(self, A, i, rank):
        """The documented loss bound at payoffs with ``|X| <= 1``, plus rounding."""
        top = float(A.costs.max())
        return rank * (1 + A.costs[i] / (top or 1.0)) * self.TOL * (top + 1) + 1e-14 * (top + 1)

    def loss(self, A, keep, i):
        return worst_value_loss(A.points[keep], A.costs[keep], A.points[i], A.costs[i])

    def test_against_the_costed_loop(self):
        rng = np.random.default_rng(28)
        refused = {kind: 0 for kind in self.KINDS}
        for kind in self.KINDS:
            for _ in range(100):
                A = self.family(rng, kind)
                try:
                    E = envelope_atoms(A, self.TOL)
                except SimplexStalledError as exc:
                    assert str(exc) == D4_REFUSAL
                    refused[kind] += 1
                    continue
                keep = kept_rows(A, E)
                assert keep is not None, kind
                assert kept_rows(E, envelope_atoms(E, self.TOL)) == list(range(E.n_atoms))
                assert same_family(envelope_atoms(E, self.TOL), E)  # idempotent, bit for bit
                rank = {i: r for r, i in enumerate(sorted(set(range(A.n_atoms)) - set(keep)), 1)}
                for i, r in rank.items():
                    assert self.loss(A, keep, i) <= self.bound(A, i, r), kind
                old = kept_rows(A, envelope_atoms_lp(A))
                for i in set(keep) - set(old):  # atoms only the loop keeps are drops, bounded above
                    assert self.loss(A, old, i) <= self.bound(A, i, 1), kind
        # a lifted point a few tol from the others' hull can reach the band and end in D4's
        # refusal (ROADMAP D4): 2 of the 100 near ties here, no other family
        assert sum(refused.values()) == refused["tie"] <= 5, refused


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
            E_ref = envelope_atoms(C_ref)  # keeps the family's own rows: nothing to rebuild
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
