import functools
import importlib.util
import json
import re
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    D1_SET,
    decide_lp,
    deficiency_exceeds,
    distinct_scan,
    exact_hull_deficiency,
    hull_membership,
    match_scan,
    prove_nothing,
    support_value,
)
from credalkit import credal, spaces
from credalkit.cli import main
from credalkit.conditional import CredalKernel, check_tower, pasting
from credalkit.credal import (
    CredalSet,
    conjugate_indicator,
    equal_sets,
    first_outside,
    marginal_set,
    membership,
    separate,
    sublinear_expectation,
    _canonicalize,
    _certificate,
    _certified_extreme,
    _decide,
    _distinct,
    _first_nonmember,
    _key_windows,
    _vertex_matches,
    _witness,
    _wolfe,
)
from credalkit.errors import NotSeparableError, SpaceMismatchError, ValidationError
from credalkit.fubini import check_fubini
from credalkit.lp import SimplexStalledError
from credalkit.risk import ScenarioTree, _capped_box_vertices, _projected_lifted_vertices
from credalkit.spaces import OutcomeSpace, ProbVector, ProductSpace, RandomVariable

AB = OutcomeSpace(["a", "b"])
UV = ProductSpace(OutcomeSpace(["0", "1"]), OutcomeSpace(["0", "1"]))

SEG = CredalSet.from_rows(AB, [[0.2, 0.8], [0.6, 0.4]])


def rv(space, values):
    return RandomVariable(space, values)


def random_credal(rng, n=None, k=None):
    n = n or int(rng.integers(2, 7))
    k = k or int(rng.integers(1, 6))
    space = OutcomeSpace([f"o{i}" for i in range(n)])
    rows = rng.dirichlet(np.ones(n), size=k)
    return CredalSet.from_rows(space, rows)


class TestSublinearExpectation:
    def test_full_simplex_takes_max(self):
        S = CredalSet.simplex(AB)
        assert sublinear_expectation(S, rv(AB, [3, -1])) == 3.0

    def test_singleton_is_linear(self):
        S = CredalSet.from_rows(AB, [[0.5, 0.5]])
        assert sublinear_expectation(S, rv(AB, [2, 4])) == 3.0

    def test_segment_indicator(self):
        # both vertices enumerated: 0.2 vs 0.6
        assert sublinear_expectation(SEG, rv(AB, [1, 0])) == pytest.approx(0.6, abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            sublinear_expectation(SEG, rv(OutcomeSpace(["x", "y"]), [1, 2]))

    def test_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = random_credal(rng)
            x = rng.uniform(-4, 4, S.space.size)
            y = x + rng.uniform(0, 3, S.space.size)
            assert sublinear_expectation(S, rv(S.space, x)) <= sublinear_expectation(
                S, rv(S.space, y)
            )

    def test_translation_and_constants(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            S = random_credal(rng)
            x = rng.uniform(-4, 4, S.space.size)
            c = float(rng.uniform(-5, 5))
            lhs = sublinear_expectation(S, rv(S.space, x + c))
            rhs = sublinear_expectation(S, rv(S.space, x)) + c
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            assert sublinear_expectation(S, rv(S.space, np.full(S.space.size, c))) == pytest.approx(c, abs=1e-12)

    def test_sublinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            S = random_credal(rng)
            x = rng.uniform(-4, 4, S.space.size)
            y = rng.uniform(-4, 4, S.space.size)
            lam = float(rng.uniform(0, 3))
            vx = sublinear_expectation(S, rv(S.space, x))
            assert sublinear_expectation(S, rv(S.space, lam * x)) == pytest.approx(
                lam * vx, abs=1e-10
            )
            assert (
                sublinear_expectation(S, rv(S.space, x + y))
                <= vx + sublinear_expectation(S, rv(S.space, y)) + 1e-12
            )

    def test_continuity_from_below(self):
        rng = np.random.default_rng(8)
        S = random_credal(rng, n=4, k=3)
        x = rng.uniform(-2, 2, 4)
        target = sublinear_expectation(S, rv(S.space, x))
        prev = -np.inf
        for n in range(1, 41):
            val = sublinear_expectation(S, rv(S.space, x - 2.0**-n))
            assert val >= prev - 1e-12
            prev = val
        assert prev == pytest.approx(target, abs=1e-9)


class TestMembership:
    def test_vertex_is_member(self):
        member, lam = membership(SEG, ProbVector(AB, [0.2, 0.8]))
        assert member
        assert lam[0] == pytest.approx(1.0, abs=1e-9)

    def test_midpoint(self):
        member, lam = membership(SEG, ProbVector(AB, [0.4, 0.6]))
        assert member
        assert np.allclose(lam, [0.5, 0.5], atol=1e-9)

    def test_outside(self):
        member, lam = membership(SEG, ProbVector(AB, [0.1, 0.9]))
        assert not member and lam is None

    def test_certificate_reconstructs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            S = random_credal(rng)
            k = S.n_vertices
            mix = rng.dirichlet(np.ones(k))
            p = ProbVector(S.space, mix @ S.matrix)
            member, lam = membership(S, p)
            assert member
            assert np.allclose(lam @ S.matrix, p.weights, atol=1e-8)

    def test_against_scipy(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            S = random_credal(rng)
            p = rng.dirichlet(np.ones(S.space.size))
            ours, _ = membership(S, ProbVector(S.space, p))
            assert ours == hull_membership(S.matrix, p)


class TestSeparate:
    def test_spec_segment(self):
        cert = separate(SEG, ProbVector(AB, [0.1, 0.9]))
        lhs = float(np.dot([0.1, 0.9], cert.witness.values))
        rhs = sublinear_expectation(SEG, cert.witness)
        assert cert.margin == pytest.approx(lhs - rhs, abs=1e-9)
        assert cert.margin == pytest.approx(0.2, abs=1e-9)
        assert np.max(np.abs(cert.witness.values)) == pytest.approx(1.0, abs=1e-12)

    def test_member_raises(self):
        with pytest.raises(NotSeparableError):
            separate(SEG, ProbVector(AB, [0.2, 0.8]))

    def test_dirac_vs_singleton(self):
        S = CredalSet.from_rows(AB, [[0.5, 0.5]])
        cert = separate(S, ProbVector.dirac(AB, "a"))
        assert cert.margin == pytest.approx(1.0, abs=1e-9)

    def test_margin_positive_random(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(200):
            S = random_credal(rng)
            p = ProbVector(S.space, rng.dirichlet(0.3 * np.ones(S.space.size)))
            member, _ = membership(S, p)
            if member:
                continue
            found += 1
            cert = separate(S, p)
            assert cert.margin > 1e-9
            recomputed = float(np.dot(p.weights, cert.witness.values)) - support_value(
                S.matrix, cert.witness.values
            )
            assert recomputed == pytest.approx(cert.margin, abs=1e-9)
        assert found > 50


class TestConjugate:
    def test_zero_inside_inf_outside(self):
        assert conjugate_indicator(SEG, ProbVector(AB, [0.2, 0.8])) == 0.0
        assert conjugate_indicator(SEG, ProbVector(AB, [0.4, 0.6])) == 0.0
        assert conjugate_indicator(SEG, ProbVector(AB, [0.1, 0.9])) == float("inf")


class TestCanonicalization:
    def test_midpoint_dropped(self):
        S = CredalSet.from_rows(AB, [[0.2, 0.8], [0.4, 0.6], [0.6, 0.4]])
        assert S.n_vertices == 2
        assert {tuple(v) for v in S.matrix.tolist()} == {(0.2, 0.8), (0.6, 0.4)}

    def test_duplicates_dropped(self):
        S = CredalSet.from_rows(AB, [[0.2, 0.8], [0.2, 0.8]])
        assert S.n_vertices == 1
        # 1e-11 apart is past the duplicate scan; the hull scan keeps the first listing
        first = ProbVector(AB, [0.2, 0.8])
        S = CredalSet(AB, [first, ProbVector(AB, [0.2 + 1e-11, 0.8 - 1e-11])])
        assert [v.weights.tobytes() for v in S.vertices] == [first.weights.tobytes()]
        assert np.array_equal(S.matrix, first.weights[None])

    def test_canonical_input_drops_duplicates_without_lp(self, monkeypatch):
        calls = count_lps(monkeypatch)
        first, second = ProbVector(AB, [0.2, 0.8]), ProbVector(AB, [0.6, 0.4])
        copies = [ProbVector(AB, [0.2, 0.8]), ProbVector(AB, [0.6 + 1e-13, 0.4 - 1e-13])]
        S = CredalSet(AB, [first, copies[0], second, copies[1]], canonical=True)
        assert [v.weights.tobytes() for v in S.vertices] == [first.weights.tobytes(),
                                                             second.weights.tobytes()]
        assert np.array_equal(S.matrix, np.stack([first.weights, second.weights]))
        rows = CredalSet.from_rows(AB, [[0.2, 0.8], [0.2, 0.8]], canonical=True)
        assert rows.matrix.tolist() == [[0.2, 0.8]]
        assert calls == []

    def test_vertices_are_the_matrix_rows_unvalidated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stored rows are not validated again")

        S = CredalSet.from_rows(OutcomeSpace("abc"), [[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]])
        monkeypatch.setattr(spaces, "_prob_rows", refuse)
        vertices = S.vertices
        assert [v.weights.tobytes() for v in vertices] == [row.tobytes() for row in S.matrix]
        assert all(v.space == S.space and not v.weights.flags.writeable for v in vertices)

    def test_no_vertex_in_hull_of_others(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            S = random_credal(rng)
            if S.n_vertices == 1:
                continue
            for i in range(S.n_vertices):
                others = CredalSet(
                    S.space,
                    [v for j, v in enumerate(S.vertices) if j != i],
                    canonical=True,
                )
                assert not membership(others, S.vertices[i])[0]


class TestEqual:
    def test_reflexive(self):
        assert equal_sets(SEG, SEG)

    def test_diracs_vs_singleton(self):
        assert not equal_sets(CredalSet.simplex(AB), CredalSet.from_rows(AB, [[0.5, 0.5]]))

    def test_redundant_presentation(self):
        S1 = CredalSet.simplex(AB)
        S2 = CredalSet.from_rows(AB, [[1, 0], [0, 1], [0.5, 0.5]])
        assert equal_sets(S1, S2)

    def test_symmetric_transitive_on_presentations(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            S = random_credal(rng, n=4, k=4)
            mids = 0.5 * (S.matrix + np.roll(S.matrix, 1, axis=0))
            S2 = CredalSet.from_rows(S.space, np.vstack([S.matrix, mids]))
            S3 = CredalSet.from_rows(S.space, np.vstack([mids, S.matrix]))
            assert equal_sets(S, S2) and equal_sets(S2, S3) and equal_sets(S, S3)


class TestMarginal:
    def test_dirac(self):
        S = CredalSet(UV, [ProbVector.dirac(UV, ("0", "1"))])
        M = marginal_set(S)
        assert M.n_vertices == 1
        assert np.allclose(M.matrix[0], [1, 0])

    def test_two_vertex_uniform_marginal(self):
        S = CredalSet.from_rows(UV, [[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5]])
        M = marginal_set(S)
        assert M.n_vertices == 1
        assert np.allclose(M.matrix[0], [0.5, 0.5])

    def test_full_simplex(self):
        S = CredalSet.simplex(UV)
        M = marginal_set(S)
        assert equal_sets(M, CredalSet.simplex(UV.u_space))

    def test_requires_product_space(self):
        with pytest.raises(SpaceMismatchError):
            marginal_set(SEG)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    x=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    c=st.floats(-5, 5),
)
def test_translation_property(rows, x, c):
    space = OutcomeSpace(["p", "q", "r"])
    S = CredalSet.from_rows(space, [np.array(r) / np.sum(r) for r in rows])
    x = np.array(x)
    lhs = sublinear_expectation(S, RandomVariable(space, x + c))
    rhs = sublinear_expectation(S, RandomVariable(space, x)) + c
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestDistinct:
    """The windowed duplicate scan keeps exactly the first-listing scan's rows."""

    @pytest.mark.parametrize("offset", [0.0, 4e-13, 9e-13, 3e-12])
    def test_near_duplicate_families(self, offset):
        rng = np.random.default_rng(90)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            base = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 12)))
            rows = base[rng.integers(len(base), size=int(rng.integers(1, 60)))]
            # chains: two copies 2 * offset apart can both sit near a third
            rows = rows + offset * rng.choice([-1.0, 0.0, 1.0], size=rows.shape)
            assert _distinct(rows) == distinct_scan(rows)
            assert _distinct(rows * 1e6) == distinct_scan(rows * 1e6)

    def test_shift_just_under_the_tolerance(self):
        # every coordinate moves by nearly DEDUP_TOL, so the key difference
        # sits at the window's edge and only the rounding margin keeps it in
        rng = np.random.default_rng(92)
        for _ in range(2000):
            base = rng.uniform(0, 1, (1, int(rng.integers(2, 9))))
            shift = 1e-12 * (1 - rng.uniform(0, 1e-3)) * rng.choice([-1.0, 1.0])
            rows = np.vstack([base, base + shift])
            assert _distinct(rows) == distinct_scan(rows)

    def test_one_row_needs_no_key_windows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a single row has no duplicate to look for")

        monkeypatch.setattr(credal, "_key_windows", refuse)
        P = ProbVector(AB, [0.2, 0.8])
        S = CredalSet.singleton(P)
        assert [v.weights.tobytes() for v in S.vertices] == [P.weights.tobytes()]
        assert np.array_equal(S.matrix, P.weights[None])
        assert _distinct(np.array([[0.5, 0.5]])) == [0]

    def test_pasting_rows_sharing_columns(self):
        # products of outer and kernel vertices repeat whole blocks of columns
        rng = np.random.default_rng(91)
        outer = rng.dirichlet(np.ones(3), size=3)
        kernel = rng.dirichlet(np.ones(2), size=3)
        rows = np.array([np.concatenate([q[u] * kernel[c[u]] for u in range(3)])
                         for q in outer for c in np.ndindex(3, 3, 3)])
        rows = np.vstack([rows, rows[::7] + 5e-13, rows[::5]])
        keep = _distinct(rows)
        assert keep == distinct_scan(rows)
        assert keep == list(range(81))

    @pytest.mark.parametrize("n_u", [3, 4])
    def test_marginal_clusters(self, n_u):
        # marginal_set's sums leave the products of one outer vertex a few ulps
        # apart: 3 clusters of 27 (|U| = 3) or 81 (|U| = 4) rows share key windows
        rng = np.random.default_rng(93 + n_u)
        outer = rng.dirichlet(np.ones(n_u), size=3)
        kernel = rng.dirichlet(np.ones(3), size=(n_u, 3))
        rows = np.array([[(q[u] * kernel[u, c[u]]).sum() for u in range(n_u)]
                         for q in outer for c in np.ndindex(*(3,) * n_u)])
        order = rng.permutation(len(rows))
        for r in (rows, rows[order]):
            _, lo, hi = _key_windows(r, r, credal.DEDUP_TOL)
            assert np.all(hi - lo > 1) and len(np.unique(r, axis=0)) > 3
            keep = _distinct(r)
            assert keep == distinct_scan(r)
            assert len(keep) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_wider_than_the_tolerance(self, seed):
        # chains stepping 0.6-1.0e-12 are wider than DEDUP_TOL end to end, so
        # their later links can survive; tight clusters lie between them
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            base = rng.dirichlet(np.ones(n), size=int(rng.integers(2, 6)))
            steps = rng.uniform(0.6e-12, 1.0e-12, size=(len(base), 6, n))
            steps *= rng.choice([-1.0, 1.0], size=steps.shape)
            chains = base[:, None] + np.cumsum(steps, axis=1)
            clusters = base[:, None] * (1 + rng.integers(-4, 5, size=(len(base), 5, n)) * 2**-52)
            rows = np.concatenate([chains, clusters], axis=1).reshape(-1, n)
            rows = rows[rng.permutation(len(rows))]
            keep = _distinct(rows)
            assert keep == distinct_scan(rows)
            assert len(keep) > len(base)


class TestVertexMatches:
    """The window walk by offset returns the lowest-index match over all rows."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_near_vertex_queries(self, tol):
        rng = np.random.default_rng(100)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            rows = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 12)))
            picks = rows[rng.integers(len(rows), size=40)]
            towards = rng.dirichlet(np.ones(n), size=40)
            t = rng.choice([0.0, 0.1, 0.45, 0.5, 0.55, 2.0], size=(40, 1)) * tol
            queries = np.vstack([(1 - t) * picks + t * towards, rng.dirichlet(np.ones(n), 5)])
            assert np.array_equal(_vertex_matches(rows, queries, tol),
                                  match_scan(rows, queries, tol))

    def test_query_dominating_two_rows_takes_the_lower_index(self):
        rows = np.array([[0.2, 0.8], [0.5, 0.5], [0.5 + 1e-7, 0.5 - 1e-7], [0.9, 0.1]])
        p = np.array([[0.5 + 5e-8, 0.5 - 5e-8]])
        assert _vertex_matches(rows, p, 1e-6).tolist() == [1]
        assert _vertex_matches(rows[[0, 2, 1, 3]], p, 1e-6).tolist() == [1]
        assert match_scan(rows, p, 1e-6).tolist() == [1]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_one_wide_window_beside_short_ones(self, tol):
        # rows on the line x @ w = 7/6 (w = 1 + i/3) share one key, so each of
        # their queries walks a window of all 40; the other rows sit alone
        rng = np.random.default_rng(101)
        line = np.array([0.3, 0.4, 0.3]) + rng.uniform(-0.2, 0.2, (40, 1)) * [1.0, -2.0, 1.0]
        rows = np.vstack([rng.dirichlet(np.ones(3), 20), line, line[:5]])
        rows = rows[rng.permutation(len(rows))]
        queries = np.vstack([rows, np.maximum(rows - rng.uniform(0, tol, rows.shape), 0.0),
                             rows + rng.uniform(0, tol, rows.shape) / 3])
        _, lo, hi = _key_windows(rows, queries, tol)
        assert (hi - lo).max() >= 45 and (hi - lo).min() <= 2
        match = _vertex_matches(rows, queries, tol)
        assert np.array_equal(match, match_scan(rows, queries, tol))
        assert np.all(match[: len(rows)] >= 0)

    def test_zero_and_one_query(self):
        rows = np.random.default_rng(102).dirichlet(np.ones(4), 6)
        none = _vertex_matches(rows, np.empty((0, 4)), 1e-9)
        assert none.shape == (0,) and none.dtype == match_scan(rows, np.empty((0, 4)), 1e-9).dtype
        assert _vertex_matches(rows, rows[3:4], 1e-9).tolist() == [3]
        assert _vertex_matches(rows, np.full((1, 4), 0.25), 1e-9).tolist() == [-1]

    def test_queries_across_several_chunks(self):
        # 16 columns: a chunk holds _CELL_BUDGET // 16 queries, so these span four
        rng = np.random.default_rng(103)
        rows = rng.dirichlet(np.ones(16), 30)
        rows = np.vstack([rows, rows[:10]])
        n_queries = 3 * (credal._CELL_BUDGET // 16) + 7
        queries = rows[rng.integers(len(rows), size=n_queries)]
        queries[::3] = rng.dirichlet(np.ones(16), len(queries[::3]))
        match = _vertex_matches(rows, queries, 1e-9)
        assert np.array_equal(match, match_scan(rows, queries, 1e-9))
        assert match.max() < 30 and np.any(match < 0)


def count_lps(monkeypatch):
    """Count the simplex programs the credal module solves from now on, by stack height."""
    calls = []
    real = credal._solve_stack
    monkeypatch.setattr(credal, "_solve_stack",
                        lambda c, A, b, tol: calls.extend([1] * len(b)) or real(c, A, b, tol))
    return calls


def shifted(rng, S, j, distance):
    """A point at L1 ``distance`` off vertex ``j``: towards a Dirac or away
    from the vertex mean, or ``None`` when that leaves the simplex."""
    v = S.matrix[j]
    d = np.eye(len(v))[rng.integers(len(v))] - v
    if rng.random() < 0.5 and S.n_vertices > 1:
        d = v - S.matrix.mean(axis=0)
    p = v + distance * d / np.abs(d).sum()
    return ProbVector(S.space, p) if p.min() >= 0 and np.abs(d).sum() else None


def margin(rows, p, direction):
    """The margin of ``p`` over the rows along ``direction``, centered and sup-normalized."""
    w = direction - 0.5 * (direction.max() + direction.min())
    w = w / np.max(np.abs(w))
    return p @ w - np.max(rows @ w)


def decision(rows, p, tol):
    """``_decide``'s verdict on ``p`` against the rows, checked against its certificate and
    against the decision it replaced (``decide_lp``: the vertex match, else the hull program).

    A member's weights reach ``p`` within ``tol`` (L1); a direction from the nearest point
    separates a nonmember by more than ``tol`` (a band decision is the hull program's own,
    whose direction can miss: ROADMAP D2).  A verdict other than the hull program's must be
    the exact referee's.  ``None`` when the decision refuses: the hull program's member
    weights miss ``p`` (D4)."""
    try:
        member, cert = _decide(rows, p, tol)
    except SimplexStalledError as exc:
        assert "member weights miss the point" in str(exc)
        return None
    if member:
        assert cert.min() >= 0 and np.abs(cert @ rows - p).sum() <= tol
    elif _wolfe(rows, p[None], tol)[0][0]:
        assert margin(rows, p, cert) > tol
    try:
        lp_member, _, _ = decide_lp(rows, p, tol)
    except SimplexStalledError:
        return member  # ROADMAP D1: the hull program gives no reference
    if member != lp_member:
        hint = {"lam": cert} if member else {"direction": cert}
        assert deficiency_exceeds(rows, p, tol, **hint) != member
    return member


def first_nonmember_refereed(A, B, tol):
    """The index of the first vertex of ``A`` that ``decision`` puts outside ``B``; None when
    all are members, and "refused" when a decision refuses before any is outside."""
    for i, v in enumerate(A.matrix):
        verdict = decision(B.matrix, v, tol)
        if verdict is None:
            return "refused"
        if not verdict:
            return i
    return None


# ROADMAP D4: the hull program calls D4_POINT a member of the hull of D4_ROWS with weights
# (1/2, 1/2), 2.8e-9 (L1) away from it; its exact deficiency is 2.0e-9, over tol 1e-9
D4_ROWS = np.array([
    [0.19473630899618843, 0.38488603591431675, 0.08580856462367632,
     0.06335455085418036, 0.27121453961163805],
    [0.4214742237075137, 0.18635328613904206, 0.13693124185073444,
     0.23927848794014123, 0.01596276036256845]])
D4_POINT = [0.3081052673093631, 0.28561966082040774, 0.11136990290777339,
            0.15131651893286446, 0.1435886500295912]


class TestVertexMatch:
    """Inclusion scans settle vertices that match a vertex without a program, and otherwise
    pick the vertex the refereed decision puts first outside, with its proven certificate."""

    @staticmethod
    def assert_same_as_lp_scan(A, B, tol):
        for X, Y in ((A, B), (B, A)):
            want = first_nonmember_refereed(X, Y, tol)
            if want == "refused":
                with pytest.raises(SimplexStalledError):
                    _first_nonmember(X, Y, tol)
                continue
            got = _first_nonmember(X, Y, tol)
            if want is None:
                assert got is None and first_outside(X, Y, tol) is None
                continue
            assert got[0].weights.tobytes() == X.matrix[want].tobytes()
            try:
                cert = _certificate(Y, *got, tol)
            except NotSeparableError:
                with pytest.raises(NotSeparableError):
                    first_outside(X, Y, tol)
                continue
            vertex, ours = first_outside(X, Y, tol)
            assert vertex.weights.tobytes() == X.matrix[want].tobytes()
            assert np.array_equal(ours.witness.values, cert.witness.values)
            assert ours.margin == cert.margin > tol
        outside = [first_nonmember_refereed(X, Y, tol) for X, Y in ((A, B), (B, A))]
        if "refused" not in outside:
            assert equal_sets(A, B, tol) == (outside == [None, None])

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-6])
    def test_permuted_presentation_needs_no_lp(self, monkeypatch, tol):
        rng = np.random.default_rng(93)
        for _ in range(40):
            B = random_credal(rng)
            A = CredalSet(B.space, [B.vertices[i] for i in rng.permutation(B.n_vertices)],
                          canonical=True)
            self.assert_same_as_lp_scan(A, B, tol)
            lps = count_lps(monkeypatch)
            assert equal_sets(A, B, tol) and first_outside(A, B, tol) is None
            assert lps == []
            monkeypatch.undo()

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-6])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_points_off_a_vertex(self, tol, factor):
        rng = np.random.default_rng(94)
        for _ in range(60):
            B = random_credal(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(1, 6)))
            points = [shifted(rng, B, j, factor * tol) for j in range(B.n_vertices)]
            points = [p for p in points if p is not None] + list(B.vertices)
            A = CredalSet(B.space, [points[i] for i in rng.permutation(len(points))],
                          canonical=True)
            self.assert_same_as_lp_scan(A, B, tol)

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-6])
    def test_dirac_vertices(self, tol):
        rng = np.random.default_rng(95)
        for n in range(1, 7):
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            diracs = [ProbVector.dirac(space, label) for label in space.labels]
            simplex = CredalSet.simplex(space)
            self.assert_same_as_lp_scan(
                CredalSet(space, [diracs[i] for i in rng.permutation(n)], canonical=True),
                simplex, tol)
            rows = rng.dirichlet(np.ones(n), size=3)
            mixed = CredalSet(space, [diracs[0], *(ProbVector(space, r) for r in rows)])
            self.assert_same_as_lp_scan(mixed, simplex, tol)
            self.assert_same_as_lp_scan(mixed, CredalSet.singleton(diracs[-1]), tol)

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-6])
    def test_not_included(self, tol):
        rng = np.random.default_rng(96)
        for _ in range(40):
            B = random_credal(rng)
            extra = rng.dirichlet(0.5 * np.ones(B.space.size), size=int(rng.integers(1, 4)))
            points = list(B.vertices) + [ProbVector(B.space, r) for r in extra]
            A = CredalSet(B.space, [points[i] for i in rng.permutation(len(points))],
                          canonical=True)
            self.assert_same_as_lp_scan(A, B, tol)

    def test_exact_vertex_matches_at_zero_tolerance(self, monkeypatch):
        # a lone point's key can round differently from its vertex's row key
        # (a different BLAS kernel), so only the rounding margin keeps the
        # vertex in the point's window
        rng = np.random.default_rng(97)
        sets = [random_credal(rng, n=n, k=30) for n in (3, 8, 20, 50)]
        lps = count_lps(monkeypatch)
        for S in sets:
            for j, v in enumerate(S.vertices):
                member, lam = membership(S, v, tol=0.0)
                assert member and np.array_equal(lam, np.eye(S.n_vertices)[j])
                with pytest.raises(NotSeparableError, match="^point is a member of the set$"):
                    separate(S, v, tol=0.0)
        assert lps == []

    def test_lowest_matching_vertex_wins(self, monkeypatch):
        # two presented vertices 2e-7 apart both match a point between them
        space = OutcomeSpace(["a", "b"])
        near = [ProbVector(space, [0.5, 0.5]), ProbVector(space, [0.5 + 1e-7, 0.5 - 1e-7])]
        P = ProbVector(space, [0.5 + 5e-8, 0.5 - 5e-8])
        lps = count_lps(monkeypatch)
        for vertices in (near, near[::-1]):
            member, lam = membership(CredalSet(space, vertices, canonical=True), P, 1e-6)
            assert member and np.array_equal(lam, [1.0, 0.0])
        assert lps == []

    def test_matched_vertices_run_no_nearest_point(self, monkeypatch):
        # an inclusion scan settles every vertex matching one of the other set in one step;
        # only the others run Wolfe's nearest point, in order, up to the first nonmember
        rng = np.random.default_rng(104)
        calls = []
        real = credal._wolfe
        monkeypatch.setattr(credal, "_wolfe", lambda rows, points, *rest:
                            calls.append(points.tobytes()) or real(rows, points, *rest))
        for _ in range(20):
            B = random_credal(rng, k=int(rng.integers(2, 6)))
            vertices = [B.vertices[i] for i in rng.permutation(B.n_vertices)]
            A = CredalSet(B.space, vertices, canonical=True)
            calls.clear()  # building B canonicalized it
            assert equal_sets(A, B) and first_outside(A, B) is None and calls == []
            # the vertex mean is an unmatched member; a Dirac lies outside the Dirichlet rows
            mean = ProbVector(B.space, B.matrix.mean(axis=0))
            dirac = ProbVector.dirac(B.space, B.space.labels[0])
            A = CredalSet(B.space, [vertices[0], mean, dirac, *vertices[1:]], canonical=True)
            vertex, _ = first_outside(A, B)
            assert vertex.weights.tobytes() == dirac.weights.tobytes()
            assert calls == [mean.weights.tobytes(), dirac.weights.tobytes()]

    def test_refusal_after_matched_vertices_is_raised(self):
        # the two matched vertices come first; the unmatched point then refuses (ROADMAP D4)
        space = OutcomeSpace(list("abcde"))
        B = CredalSet.from_rows(space, D4_ROWS, canonical=True)
        A = CredalSet(space, [*B.vertices, ProbVector(space, D4_POINT)], canonical=True)
        for scan in (first_outside, equal_sets):
            with pytest.raises(SimplexStalledError, match="member weights miss the point"):
                scan(A, B, 1e-9)

    def test_match_is_within_tolerance_of_the_point(self):
        rng = np.random.default_rng(98)
        for _ in range(100):
            S = random_credal(rng)
            for tol in (1e-9, 1e-6):
                P = shifted(rng, S, int(rng.integers(S.n_vertices)), 0.5 * tol)
                if P is None:
                    continue
                member, lam = membership(S, P, tol)
                if member:
                    assert np.abs(lam @ S.matrix - P.weights).sum() <= tol


TOLS = [10.0**e for e in range(-15, -5)]


def outside_bytes(found):
    """``first_outside``'s answer as bytes: the vertex, the witness and the margin."""
    if found is None:
        return None
    vertex, cert = found
    return vertex.weights.tobytes(), cert.witness.values.tobytes(), cert.margin


def outside_ref(A, B, tol):
    """``outside_bytes`` of the refereed scan's first nonmember of ``A`` in ``B``, one vertex
    of the tuple at a time, with the certificate of its own decision."""
    i = first_nonmember_refereed(A, B, tol)
    if i is None:
        return None
    v = A.vertices[i]
    _, direction = _decide(B.matrix, v.weights, tol)
    return outside_bytes((v, _certificate(B, v, direction, tol)))


class TestNoVertexTuple:
    """Inclusion scans read vertex matrices: with ``CredalSet.vertices`` refused, set
    equality, ``first_outside``, towers and Fubini checks give the refereed scan's verdicts,
    vertices and certificates."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_same_answers_as_lp_only_scan(self, monkeypatch, tol):
        rng = np.random.default_rng(98)
        us, vs = OutcomeSpace(["u0", "u1", "u2"]), OutcomeSpace(["v0", "v1", "v2"])

        def draw(space, k):
            return CredalSet.from_rows(space, rng.dirichlet(np.ones(space.size), size=k), tol)

        towers, fubinis = [], []
        for i in range(6):
            K = CredalKernel(us, [draw(vs, 2) for _ in range(3)])
            for S in (pasting(draw(us, 3), K), draw(ProductSpace(us, vs), 4)):
                P = pasting(marginal_set(S, tol), K)
                towers.append((S, K, P, outside_ref(P, S, tol), outside_ref(S, P, tol)))
            # a Dirac outer set is interchangeable with any inner one
            SU = draw(us, 3) if i % 2 else CredalSet.singleton(ProbVector.dirac(us, "u1"))
            SV = draw(vs, 3)
            report = check_fubini(SU, SV, tol)
            F, B = report.forward_set, report.backward_set
            fubinis.append((SU, SV, F, B, outside_ref(F, B, tol) or outside_ref(B, F, tol)))

        def refuse(self):
            raise AssertionError("an inclusion scan built the vertex tuple")

        monkeypatch.setattr(CredalSet, "vertices", property(refuse))
        verdicts = set()
        for S, K, P, pasting_out, set_out in towers:
            report = check_tower(S, K, tol)
            assert np.array_equal(report.pasting.matrix, P.matrix)
            assert outside_bytes(report.pasting_vertex_outside) == pasting_out
            assert outside_bytes(report.set_vertex_outside) == set_out
            assert report.rectangular == (pasting_out is None and set_out is None)
            assert outside_bytes(first_outside(P, S, tol)) == pasting_out
            assert outside_bytes(first_outside(S, P, tol)) == set_out
            assert equal_sets(S, P, tol) == report.rectangular
            verdicts.add(("tower", report.rectangular))
        for SU, SV, F, B, outside in fubinis:
            report = check_fubini(SU, SV, tol)
            assert np.array_equal(report.forward_set.matrix, F.matrix)
            assert np.array_equal(report.backward_set.matrix, B.matrix)
            assert report.interchangeable == (outside is None) == equal_sets(F, B, tol)
            if outside is not None:
                assert report.witness[0].values.tobytes() == outside[1]
            verdicts.add(("fubini", report.interchangeable))
        assert verdicts == {("tower", True), ("tower", False), ("fubini", True), ("fubini", False)}


def pasted_rows(rng, nu, nv=4, k=3):
    """The ``k * k**nu`` products of ``k`` outer and ``k`` kernel vertices per outcome."""
    outer = rng.dirichlet(np.ones(nu), size=k)
    kernel = rng.dirichlet(np.ones(nv), size=(nu, k))
    return np.array([np.concatenate([q[u] * kernel[u, c[u]] for u in range(nu)])
                     for q in outer for c in np.ndindex(*[k] * nu)])


def dual_set_rows(rng, level):
    """The lexsorted candidate points ``avar_dual_set`` canonicalizes on 6 outcomes."""
    V = rng.dirichlet(np.ones(6), size=int(rng.integers(1, 4)))
    pts = (_capped_box_vertices(V[0] / level, 1e-9) if len(V) == 1
           else _projected_lifted_vertices(V, level, 1e-9))
    return pts[np.lexsort(pts.T[::-1])]


def off_hull_rows(rng, tol):
    """A random set with points ``0.5 tol`` and ``2 tol`` (L1) inside and outside
    it, off a vertex or an edge midpoint along the line to the centroid."""
    V = rng.dirichlet(np.ones(int(rng.integers(2, 7))), size=int(rng.integers(2, 6)))
    c = V.mean(axis=0)
    rows = [V]
    for base in (V[0], 0.5 * (V[0] + V[1])):
        d = base - c
        if np.abs(d).sum() == 0:
            continue
        for f in (-2.0, -0.5, 0.5, 2.0):
            rows.append((base + f * tol * d / np.abs(d).sum())[None])
    rows = np.vstack(rows)
    return rows[rng.permutation(len(rows))]


def collinear_rows(rng, tol):
    """A triple whose middle point sits ``h`` (L1) off the segment of the other two."""
    n = int(rng.integers(3, 7))
    a, b = rng.dirichlet(np.ones(n), size=2)
    e = rng.normal(size=n)
    e -= e.mean()
    h = rng.choice([0.0, 0.5 * tol, 2 * tol, 1e-3])
    mid = 0.5 * (a + b) + h * e / np.abs(e).sum()
    return np.stack([a, mid, b])[rng.permutation(3)]


def special_rows(rng):
    """Dirac vertices, exact duplicates and exact-zero rows among random points."""
    n = int(rng.integers(1, 6))
    rows = np.vstack([np.eye(n)[rng.permutation(n)[: int(rng.integers(1, n + 1))]],
                      rng.dirichlet(np.ones(n), size=int(rng.integers(0, 4))),
                      np.zeros((int(rng.integers(0, 2)), n))])
    rows = rows[rng.integers(len(rows), size=len(rows) + int(rng.integers(0, 3)))]
    return rows[rng.permutation(len(rows))]


def ill_conditioned_rows(rng, cond):
    """At most ``n`` rows near a segment, whose ``[P | 1]`` has a Gram matrix of condition
    number within a factor 10 of ``cond``: the segment's ends and points along it moved off it
    by ``h`` (L1), each in its own direction, redrawn until the condition number fits."""
    while True:
        n = int(rng.integers(3, 7))
        a, b = 0.5 * rng.dirichlet(np.ones(n), size=2) + 0.5 / n
        k = int(rng.integers(3, n + 1))
        e = rng.normal(size=(k - 2, n))
        e -= e.mean(axis=1, keepdims=True)
        h = np.sqrt(50 / cond) * np.exp(rng.normal())
        along = a + rng.uniform(0.1, 0.9, (k - 2, 1)) * (b - a)
        rows = np.vstack([a, b, along + h * e / np.abs(e).sum(axis=1, keepdims=True)])
        A = np.column_stack([rows, np.ones(k)])
        if 0.1 <= np.linalg.cond(A @ A.T) / cond <= 10:
            return rows[rng.permutation(k)]


def tiny_dual_set_rows(rng):
    """ROADMAP D7's tiny-coordinate family: the candidates of 1-3 vertices on 2-6 outcomes
    with 30% of their coordinates scaled by 1e-9 and renormalized."""
    n = int(rng.integers(2, 7))
    V = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 4)))
    V[rng.random(V.shape) < 0.3] *= 1e-9
    V /= V.sum(axis=1, keepdims=True)
    return dual_set_candidates(V, float(rng.choice([0.05, 0.1, 0.25, 0.5])))


@functools.lru_cache(maxsize=None)
def perfbench_gen():
    """The benchmark's document generator, ``perfbench/gen.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    return gen


@functools.lru_cache(maxsize=None)
def corpus_dual_sets():
    """``(vertices, level)`` of the ``avar-dual`` vertex documents of the seed 0-2 ``desk_cli``
    corpora, as ``perfbench/gen.py`` draws them."""
    return [(op.doc["sets"]["S"]["vertices"], op.doc["command"]["level"])
            for seed in (0, 1, 2) for cycle in perfbench_gen().desk_cli(seed, 24) for op in cycle
            if op.kind == "avar-dual" and op.doc["command"].get("vertices")]


@functools.lru_cache(maxsize=None)
def screen_families(tol):
    """Seeded generator sets shaped like the corpus, and adversarial ones; the corpus's dual-set
    candidates are spread over the tolerances, a tenth at each."""
    rng = np.random.default_rng(int(-np.log10(tol)))
    families = [rng.dirichlet(np.ones(3), size=3) for _ in range(40)]
    families += [pasted_rows(rng, 3), pasted_rows(rng, 4)]
    families += [dual_set_rows(rng, rng.choice([0.1, 0.25, 1 / 3, 0.5])) for _ in range(2)]
    families += [collinear_rows(rng, tol) for _ in range(30)]
    families += [off_hull_rows(rng, tol) for _ in range(30)]
    families += [special_rows(rng) for _ in range(30)]
    families += [tiny_dual_set_rows(rng) for _ in range(5)]
    families += [ill_conditioned_rows(rng, cond) for cond in 10.0 ** np.arange(4, 13)]
    families += [dual_set_candidates(V, level)
                 for V, level in corpus_dual_sets()[TOLS.index(tol) :: len(TOLS)]]
    return families


def canonicalize_refereed(points: np.ndarray, tol: float):
    """The surviving row indices when every distinct generator, scanned from the back, is
    settled by ``decision`` against the kept others; None when a decision refuses."""
    keep = _distinct(points)
    for pos in range(len(keep) - 1, -1, -1):
        if len(keep) == 1:
            break
        verdict = decision(points[[j for j in keep if j != keep[pos]]], points[keep[pos]], tol)
        if verdict is None:
            return None
        if verdict:
            del keep[pos]
    return keep


# The one generator the nearest-point pass is known to drop although the scan deciding every
# generator keeps it, by (tol, index in screen_families(tol)): in the band, that scan's hull
# program calls the row (1 - 1.35e-8, 1.35e-8, -0) outside (phase-one value 2.0) although it
# lies 1.6e-16 from the rows kept (ROADMAP D2).  Every other kept row is kept by the pass too.
BAND_DROPS = {(1e-12, 134): 19}


@functools.lru_cache(maxsize=None)
def pass_families(tol):
    """``screen_families(tol)`` and every corpus dual set's candidates."""
    return [*screen_families(tol), *(dual_set_candidates(V, level)
                                     for V, level in corpus_dual_sets())]


@functools.lru_cache(maxsize=None)
def scan_every_generator(tol, f):
    """The rows ``_canonicalize`` keeps of ``pass_families(tol)[f]`` with both of its passes off
    (``prove_nothing``), deciding every uncertified generator; None when a decision refuses.
    Both passes' tests referee against it, so it runs once per family."""
    saved, credal._passes = credal._passes, prove_nothing
    try:
        return _canonicalize(pass_families(tol)[f], tol)
    except SimplexStalledError:
        return None  # the scan refuses (ROADMAP D4, D7): no reference
    finally:
        credal._passes = saved


class TestNearestPointPass:
    """Canonicalization's two ``_wolfe`` passes (``_passes``) over ``pass_families``, at every
    tolerance.  Pass 1's proofs put each generator within its bound
    ``(tol - 64 n eps) / (2 sqrt n)`` (L1) of the certified rows, a seeded sample of them within
    ``tol / (2 sqrt n)`` in exact arithmetic, and it proves no generator that the scan deciding
    every generator keeps, but ``BAND_DROPS``'s one, which the exact referee puts within ``tol``
    of the rows that scan keeps.  Pass 2's directions put each generator it proves more than
    ``tol`` beyond every other distinct row, and that scan keeps each one."""

    @pytest.mark.parametrize("tol", TOLS)
    def test_proofs_drop_no_row_the_scan_keeps(self, tol):
        rng = np.random.default_rng(107)
        proven, dropped_kept = 0, set()
        for f, rows in enumerate(pass_families(tol)):
            distinct = np.array(_distinct(rows))
            certified = _certified_extreme(rows[distinct], tol)
            if certified.all() or not certified.any():
                continue
            near = credal._passes(rows[distinct], certified, tol)[0][~certified]
            if not near.any():
                continue
            C, todo = rows[distinct[certified]], distinct[~certified]
            n = rows.shape[1]
            bound = (tol - 64 * n * np.finfo(float).eps) / (2 * np.sqrt(n))
            W = _wolfe(C, rows[todo], bound + 64 * n * np.finfo(float).eps)[1]
            assert np.array_equal(W.any(axis=1), near) and W.min() >= 0
            assert np.all(np.abs(W[near] @ C - rows[todo[near]]).sum(axis=1) <= bound)
            for i in rng.permutation(np.flatnonzero(near))[:2]:  # exact: a seeded sample
                lam, p = W[i], rows[todo[i]]
                on = np.flatnonzero(lam)
                total = sum(map(Fraction, lam[on]))
                residual = sum(abs(sum(Fraction(w) * Fraction(c) for w, c in zip(lam[on], col))
                                   / total - Fraction(q)) for col, q in zip(C[on].T, p))
                assert 4 * n * residual**2 <= Fraction(tol) ** 2
            proven += near.sum()
            kept = scan_every_generator(tol, f)
            if kept is None:
                continue
            for i in sorted(set(todo[near].tolist()) & set(kept)):
                dropped_kept.add((tol, f, i))
                assert not deficiency_exceeds(rows[[j for j in kept if j != i]], rows[i], tol)
        assert dropped_kept == {(t, f, i) for (t, f), i in BAND_DROPS.items() if t == tol}
        assert (proven > 0) == (tol > 64 * np.finfo(float).eps)  # below, no bound is positive

    @pytest.mark.parametrize("tol", TOLS)
    def test_outside_proofs_keep_rows_the_scan_keeps(self, tol):
        proven = 0
        for f, rows in enumerate(pass_families(tol)):
            distinct = np.array(_distinct(rows))
            R = rows[distinct]
            certified = _certified_extreme(R, tol)
            near, outside = credal._passes(R, certified, tol)
            if not outside.any():
                continue
            todo = np.flatnonzero(~(certified | near))
            verdict, _, X = _wolfe(R, R[todo], tol, todo)
            assert np.array_equal(verdict < 0, outside[todo])
            for i, x in zip(todo[verdict < 0], X[verdict < 0]):
                assert _witness(np.delete(R, i, 0), R[i], -x)[1] > tol
            proven += outside.sum()
            kept = scan_every_generator(tol, f)
            if kept is not None:
                assert set(distinct[outside].tolist()) <= set(kept)
        assert proven > 0

    def test_stacks_split_by_the_cell_budget(self, monkeypatch):
        # the corpus's dual-set candidates, each pass's points in one stack, one point per
        # stack, and each alone, with exclude set for pass 2
        for V, level in corpus_dual_sets()[:12]:
            rows = dual_set_candidates(V, level)
            rows = rows[_distinct(rows)]
            certified = _certified_extreme(rows, 1e-9)
            todo = np.flatnonzero(~certified)
            for C, exclude in ((rows[certified], None), (rows, todo)):
                whole = _wolfe(C, rows[todo], 1e-9, exclude)
                with monkeypatch.context() as m:
                    m.setattr(credal, "_CELL_BUDGET", 1)
                    split = _wolfe(C, rows[todo], 1e-9, exclude)
                alone = [_wolfe(C, rows[[i]], 1e-9, None if exclude is None else exclude[[at]])
                         for at, i in enumerate(todo)]
                for got in (split, tuple(map(np.concatenate, zip(*alone)))):
                    for a, b in zip(whole, got):
                        assert a.tobytes() == b.tobytes()


class TestSolve:
    """``credal._solve`` is numpy's stacked LU solve, with NaN for each singular system.  It calls
    a private numpy gufunc: a numpy release that renames or changes it fails here first."""

    def test_nan_falls_exactly_on_the_singular_systems(self):
        rng = np.random.default_rng(199)
        A = rng.normal(size=(6, 4, 4))
        A[1, 3] = A[1, 0]  # a repeated row
        A[4, :, 2] = 0.0  # a zero column
        singular = np.isin(np.arange(6), (1, 4))
        for a in A[singular]:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, np.eye(4))
        for B in (rng.normal(size=(1, 4, 1)), rng.normal(size=(6, 4, 3))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                X = credal._solve(A, B)
                with np.errstate(over="raise", invalid="raise"):  # as avar_dual_set calls it
                    Y = credal._solve(A, B)
            assert X.shape == (6, 4, B.shape[-1])
            assert np.array_equal(X, Y, equal_nan=True)
            assert np.isnan(X[singular]).all() and np.isfinite(X[~singular]).all()
            for i in np.flatnonzero(~singular):
                assert X[i].tobytes() == np.linalg.solve(A[i], B[i % len(B)]).tobytes()

    def test_wolfe_leaves_a_point_with_a_singular_corral_undecided(self, monkeypatch):
        # three interior points, none decided by the first major step; the first minor step's
        # corral system of the second one comes back singular (NaN), as _solve reports it
        rng = np.random.default_rng(211)
        rows = rng.dirichlet(np.ones(4), size=6)
        points = rng.dirichlet(np.ones(6), size=3) @ rows
        alone = [_wolfe(rows, points[[i]], 1e-9) for i in range(3)]
        solve, calls = credal._solve, []

        def singular_second(A, B):
            X = solve(A, B)
            if not calls:
                assert len(A) == 3
                X[1] = np.nan
            calls.append(len(A))
            return X

        monkeypatch.setattr(credal, "_solve", singular_second)
        verdict, weights, residual = _wolfe(rows, points, 1e-9)
        assert calls and verdict[1] == 0
        assert not weights[1].any() and not residual[1].any()
        for i in (0, 2):
            for got, want in zip((verdict, weights, residual), alone[i]):
                assert got[[i]].tobytes() == want.tobytes()
        assert [a[0][0] for a in alone] == [1, 1, 1]


class TestCertificateScreen:
    """Canonicalization certifies extreme generators with no decision and keeps exactly
    the rows the refereed scan keeps, which decides every generator."""

    @pytest.mark.parametrize("tol", TOLS)
    def test_same_rows_as_lp_only_scan(self, tol):
        compared = 0
        for f, rows in enumerate(screen_families(tol)):
            want = canonicalize_refereed(rows, tol)
            if want is None:
                continue  # the hull program's member weights miss (ROADMAP D4): no reference
            distinct = _distinct(rows)
            certified = np.array(distinct)[_certified_extreme(rows[distinct], tol)]
            misjudged = [i for i in certified if i not in want]
            # below rounding accuracy the simplex can call a far point a member
            # (ROADMAP D4); the screen keeps it, so the later scan may differ
            for i in misjudged:
                others = rows[[j for j in distinct if j != i]]
                assert deficiency_exceeds(others, rows[i], tol)
            if (tol, f) in BAND_DROPS:  # the refereed scan keeps a row within tol (ROADMAP D2)
                i = BAND_DROPS[tol, f]
                assert not misjudged and i in want
                assert not deficiency_exceeds(rows[[j for j in want if j != i]], rows[i], tol)
                want.remove(i)
            if not misjudged:
                assert _canonicalize(rows, tol) == want
                compared += 1
        assert compared >= 100

    @pytest.mark.parametrize("tol", TOLS)
    def test_certified_rows_are_beyond_tolerance(self, tol):
        rng = np.random.default_rng(99)
        for rows in screen_families(tol):
            distinct = rows[_distinct(rows)]
            if len(distinct) == 1:
                continue
            certified = np.flatnonzero(_certified_extreme(distinct, tol))
            # a seeded sample of the large sets' rows keeps the referee's time down
            for i in rng.permutation(certified)[:12]:
                others = np.delete(distinct, i, axis=0)
                assert deficiency_exceeds(others, distinct[i], tol)

    def test_screen_families_span_gram_conditions(self):
        conds = [np.linalg.cond(A @ A.T) for rows in screen_families(1e-9)
                 if len(rows) <= rows.shape[1]
                 for A in [np.column_stack([rows, np.ones(len(rows))])]]
        assert min(conds) <= 1e5 and max(conds) >= 1e11

    def test_singular_gram_takes_pinv(self, monkeypatch):
        # an exact duplicate and an exactly collinear triple: exact zero pivots in the Gram LU
        repeated = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        collinear = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
        rng = np.random.default_rng(106)
        P = np.array([*rng.dirichlet(np.ones(3), size=(3, 3)), repeated, collinear])
        A = np.concatenate([P, np.ones((5, 3, 1))], -1)
        for a in A[3:]:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a @ a.T, a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = credal._directions(A)
            certified = _certified_extreme(P, 1e-9)
            groups = CredalSet._stack(OutcomeSpace("abc"), P.tolist(), 1e-9)
        for i, a in enumerate(A):
            want = np.linalg.pinv(a).T if i >= 3 else credal._directions(a)
            assert D[i].tobytes() == want.tobytes()
            assert np.array_equal(certified[i], _certified_extreme(P[i], 1e-9))
        assert np.allclose(D[:3], np.linalg.pinv(A[:3]).swapaxes(-1, -2), atol=1e-6)
        sets = CredalSet._unstack(OutcomeSpace("abc"), groups, 5)
        for S, rows in zip(sets, P):
            assert S.matrix.tobytes() == CredalSet.from_rows(S.space, rows, 1e-9).matrix.tobytes()
        assert sets[3].matrix.tolist() == sets[4].matrix.tolist() == [[1, 0, 0], [0, 1, 0]]
        # a set whose solution is not finite takes pinv too, alone
        solve = credal._solve
        monkeypatch.setattr(credal, "_solve", lambda G, B: np.where(
            np.arange(len(G))[:, None, None] == 1, np.nan, solve(G, B)))
        D = credal._directions(A[:3])
        assert D[1].tobytes() == np.linalg.pinv(A[1]).T.tobytes()
        assert D[0].tobytes() == solve(A[0] @ A[0].T, A[0]).tobytes()

    def test_bank_product_stays_within_the_cell_budget(self, monkeypatch):
        # 5,000 candidates on 6 outcomes: the bank's 1,024 directions at once would take 41 MB
        rows = np.random.default_rng(105).dirichlet(np.ones(6), size=5000)
        credal._bank(6)  # drawn once and cached, outside the trace
        tracemalloc.start()
        try:
            certified = _certified_extreme(rows, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        monkeypatch.setattr(credal, "_bank", lambda n: np.empty((0, n)))
        alone = _certified_extreme(rows, 1e-9)
        assert not np.any(alone & ~certified) and certified.sum() > alone.sum()

    def test_generic_triangle_runs_no_hull_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certified generator needs no membership decision")

        monkeypatch.setattr(credal, "_decide", refuse)
        space = OutcomeSpace(["a", "b", "c"])
        S = CredalSet.from_rows(space, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        assert S.n_vertices == 3
        # nor does a non-canonical pasting, whose 81 products on 3 x 4 outcomes are all extreme
        rng = np.random.default_rng(0)
        uv = ProductSpace(OutcomeSpace(["0", "1", "2"]), OutcomeSpace(list("abcd")))
        sets = [(uv, pasted_rows(rng, 3))]
        # nor any affinely independent set: rows on n outcomes span an (n - 1)-plane, so k <= n
        for _ in range(60):
            n = int(rng.integers(2, 13))
            rows = rng.dirichlet(np.ones(n), size=int(rng.integers(1, n + 1)))
            sets.append((OutcomeSpace([f"o{i}" for i in range(n)]), rows))
        for tol in TOLS:
            for space, rows in sets:
                assert CredalSet.from_rows(space, rows, tol).n_vertices == len(rows)


def dual_set_candidates(rows, level):
    """The validated, lexsorted candidate points ``avar_dual_set`` canonicalizes."""
    V = np.array(rows, dtype=float)
    pts = (_capped_box_vertices(V[0] / level, 1e-9) if len(V) == 1
           else _projected_lifted_vertices(V, level, 1e-9))
    pts = pts[np.lexsort(pts.T[::-1])]
    return spaces._prob_stack(V.shape[1], np.where(pts < 0.0, 0.0, pts))


@functools.lru_cache(maxsize=None)
def decision_families(tol):
    """``screen_families`` (pastings among them), the D1 dual set's candidates and seeded
    dual-set candidate families."""
    rng = np.random.default_rng(300 + int(-np.log10(tol)))
    families = list(screen_families(tol)) + [dual_set_candidates(D1_SET, 1 / 3)]
    for _ in range(3):
        V = rng.dirichlet(np.ones(6), size=int(rng.integers(2, 4)))
        families.append(dual_set_candidates(V, float(rng.choice([0.1, 0.25, 1 / 3, 0.5]))))
    return families


class TestNearestPointDecision:
    """``_decide`` against the decision it replaced (``decide_lp``), generator by generator:
    every certificate proves its verdict, and a verdict other than the hull program's is the
    exact referee's (``decision``)."""

    @pytest.mark.parametrize("tol", TOLS)
    def test_same_verdicts_as_hull_program(self, tol):
        rng = np.random.default_rng(301)
        verdicts = []
        for rows in decision_families(tol):
            rows = rows[_distinct(rows)]
            # a seeded sample of the large families' generators keeps the time down
            for i in rng.permutation(len(rows))[: 40 if len(rows) <= 40 else 12]:
                if len(rows) > 1:
                    verdicts.append(decision(np.delete(rows, i, 0), rows[i], tol))
        assert {True, False} <= set(verdicts)

    def test_member_weights_that_miss_are_refused(self):
        # ROADMAP D4: the hull program calls the point a member with weights (1/2, 1/2),
        # 2.8e-9 (L1) away from it; its exact deficiency is 2.0e-9, over tol 1e-9.  Neither
        # nearest-point certificate holds here, so the decision falls back to that program
        rows, space = D4_ROWS, OutcomeSpace(list("abcde"))
        S = CredalSet.from_rows(space, rows, canonical=True)
        P = ProbVector(space, D4_POINT)
        p = P.weights
        assert exact_hull_deficiency(rows, p) > 1e-9
        assert _wolfe(rows, p[None], 1e-9)[0][0] == 0
        member, _, res = decide_lp(rows, p, 1e-9)
        assert member and np.abs(res.x @ rows - p).sum() > 1e-9
        with pytest.raises(SimplexStalledError, match="member weights miss the point"):
            _decide(rows, p, 1e-9)
        assert np.array_equal(S.matrix, rows)
        for query in (membership, separate):
            with pytest.raises(SimplexStalledError, match="member weights miss the point"):
                query(S, P, 1e-9)

    def test_tiny_tolerance_ends_in_the_band(self):
        # at tol 1e-15 no certificate clears its rounding allowance near the set: a point
        # 0.5 or 2 tol off a vertex is decided by the hull program, as before
        rng = np.random.default_rng(94)
        tol, decided = 1e-15, 0
        for _ in range(40):
            B = random_credal(rng, n=int(rng.integers(2, 7)), k=int(rng.integers(2, 6)))
            for j in range(B.n_vertices):
                for factor in (0.5, 2.0):
                    P = shifted(rng, B, j, factor * tol)
                    if P is None or credal._vertex_matches(B.matrix, P.weights[None], tol)[0] >= 0:
                        continue
                    assert _wolfe(B.matrix, P.weights[None], tol)[0][0] == 0
                    decided += 1
                    try:
                        member, _ = _decide(B.matrix, P.weights, tol)
                    except SimplexStalledError:
                        continue  # D4: the hull program's member weights miss the point
                    assert member == decide_lp(B.matrix, P.weights, tol)[0]
        assert decided >= 50


def near_pair_rows(n, d):
    """Two rows exactly ``d`` apart in sup norm after validation, with the other Diracs: the
    coordinates ``0, d, 1 - d`` sum to exactly 1, so renormalizing moves no bit."""
    a, b = np.zeros((2, n))
    a[:3], b[:3] = [0.0, d, 1.0 - d], [d, 0.0, 1.0 - d]
    return np.vstack([a, b, np.eye(n)[3:]])


@functools.lru_cache(maxsize=None)
def small_set_families(tol):
    """Seeded sets for the small-set screen, besides ``screen_families(tol)``: tree-shaped 3 x 3
    Dirichlet sets, 1 to n + 1 rows on 2 to 6 outcomes, two rows ``DEDUP_TOL`` and one ulp either
    side of it apart, exact duplicates, exactly collinear triples, Dirac rows and the
    ill-conditioned rows of ``screen_families``."""
    rng = np.random.default_rng(310 + int(-np.log10(tol)))
    families = [rng.dirichlet(np.ones(3), size=3) for _ in range(60)]
    families += [rng.dirichlet(np.ones(n), size=k) for n in range(2, 7) for k in range(1, n + 2)]
    tol_ulps = np.nextafter(credal.DEDUP_TOL, [0.0, 1.0])
    for d in (tol_ulps[0], credal.DEDUP_TOL, tol_ulps[1]):
        families += [near_pair_rows(n, d) for n in (3, 5)]
    for n in range(3, 7):
        rows = rng.dirichlet(np.ones(n), size=int(rng.integers(2, n)))
        families.append(rows[rng.integers(len(rows), size=len(rows) + 1)])  # a row repeated
        e = np.eye(n)
        families.append(np.stack([e[0], e[1], 0.5 * (e[0] + e[1])])[rng.permutation(3)])
        families.append(np.vstack([e[rng.permutation(n)[: int(rng.integers(1, n))]],
                                   rng.dirichlet(np.ones(n), size=int(rng.integers(0, 2)))]))
    families += [ill_conditioned_rows(rng, cond) for cond in 10.0 ** np.arange(4, 13)]
    return families


@functools.lru_cache(maxsize=None)
def small_sets_read_alone(tol):
    """``(space, rows, kept)`` for every set of at most ``n + 1`` valid rows of
    ``small_set_families(tol)`` and ``screen_families(tol)``: ``kept`` is the bytes of its matrix
    built and read alone, None when that read refuses."""
    found = []
    for rows in [*small_set_families(tol), *screen_families(tol)]:
        n = rows.shape[1]
        if len(rows) > n + 1:
            continue
        space = OutcomeSpace([f"o{i}" for i in range(n)])
        try:
            S = CredalSet.from_rows(space, rows, tol)
        except ValidationError:
            continue  # an exact-zero row: refused at construction
        try:
            found.append((space, rows, S.matrix.tobytes()))
        except SimplexStalledError:
            found.append((space, rows, None))
    return found


class TestSmallSetScreen:
    """A set of at most ``n + 1`` rows that ``credal._plain`` passes keeps every row with no
    ``_distinct``, pass or scan; that is exactly what the scan keeps, and ``CredalSet._stack``
    keeps the same rows set by set."""

    @pytest.mark.parametrize("tol", TOLS)
    def test_same_rows_as_the_scan(self, tol):
        stacked, screened = {}, 0
        for rows in [*small_set_families(tol), *screen_families(tol)]:
            try:
                P = spaces._prob_stack(rows.shape[1], rows)
            except ValidationError:
                continue  # an exact-zero row: refused before any screen
            k, n = P.shape
            plain = credal._plain(P[None], tol)[0]
            if k > n + 1:  # no screen: only check that a set it would pass keeps every row
                assert not plain or _canonicalize(P, tol) == list(range(k))
                continue
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            try:
                got = CredalSet.from_rows(space, rows, tol).matrix
            except SimplexStalledError:
                assert not plain  # refused by the scan (ROADMAP D4, D7), never by the screen
                continue
            if plain:  # kept whole; a set the screen fails is canonicalized as before
                screened += 1
                assert got.tobytes() == P[_canonicalize(P, tol)].tobytes()
                assert CredalSet(space, [ProbVector(space, p) for p in rows],
                                 tol).matrix.tobytes() == got.tobytes()
            stacked.setdefault(n, []).append((rows, got))
        for n, cases in stacked.items():
            space = OutcomeSpace([f"o{i}" for i in range(n)])
            groups = CredalSet._stack(space, [rows.tolist() for rows, _ in cases], tol)
            sets = CredalSet._unstack(space, groups, len(cases))
            for S, (_, want) in zip(sets, cases, strict=True):
                assert S.matrix.tobytes() == want.tobytes()
        assert screened >= 100

    def test_near_pairs_straddle_the_duplicate_tolerance(self):
        # validated, the two rows lie DEDUP_TOL - 1 ulp, DEDUP_TOL and DEDUP_TOL + 1 ulp apart
        for d in (np.nextafter(credal.DEDUP_TOL, 0), credal.DEDUP_TOL,
                  np.nextafter(credal.DEDUP_TOL, 1)):
            P = spaces._prob_stack(3, near_pair_rows(3, d))
            assert np.abs(P[0] - P[1]).max() == d
            assert _distinct(P) == ([0, 1] if d > credal.DEDUP_TOL else [0])
            assert not any(credal._plain(P[None], tol)[0] for tol in TOLS if d <= credal.DEDUP_TOL)

    def test_screen_passes_no_near_duplicate(self):
        # a set with a row within DEDUP_TOL of another never passes, whether the screen tests
        # the pairs (tol < 2 n DEDUP_TOL) or leaves them to the certificates (from the bound on)
        rng = np.random.default_rng(321)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            rows = rng.dirichlet(np.ones(n), size=int(rng.integers(1, n)))
            shift = rng.uniform(-1, 1, n) * credal.DEDUP_TOL * rng.choice([0.0, 0.5, 1.0])
            P = spaces._prob_stack(n, np.vstack([rows, rows[-1] + shift - shift.mean()]))
            if len(_distinct(P)) == len(P):
                continue
            assert not any(credal._plain(P[None], tol)[0]
                           for tol in [*TOLS, 2 * n * credal.DEDUP_TOL])

    def test_plain_small_sets_skip_the_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain small set needs no duplicate search, pass or scan")

        rng = np.random.default_rng(320)
        sets = [rng.dirichlet(np.ones(n), size=k) for n in range(2, 7) for k in range(1, n + 1)]
        sets += [rng.dirichlet(np.ones(3), size=3) for _ in range(20)]
        with monkeypatch.context() as m:
            for name in ("_distinct", "_key_windows", "_wolfe", "_decide"):
                m.setattr(credal, name, refuse)
            for rows in sets:
                space = OutcomeSpace([f"o{i}" for i in range(rows.shape[1])])
                assert CredalSet.from_rows(space, rows).n_vertices == len(rows)
                vertices = [ProbVector(space, p) for p in rows]
                assert CredalSet(space, vertices).n_vertices == len(rows)
            tree = [rows.tolist() for rows in sets[-20:]]
            space = OutcomeSpace("abc")
            sets = CredalSet._unstack(space, CredalSet._stack(space, tree, 1e-9), 20)
            assert [S.n_vertices for S in sets] == [3] * 20
        # a near-duplicate still takes the duplicate search, an uncertified row a decision
        calls = {name: 0 for name in ("_distinct", "_key_windows", "_wolfe", "_decide")}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(credal, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(credal, name, counting)
        space = OutcomeSpace("abc")
        near = np.array([[0.6, 0.3, 0.1], [0.6, 0.3 + 1e-13, 0.1 - 1e-13], [0.1, 0.2, 0.7]])
        assert CredalSet.from_rows(space, near).n_vertices == 2
        assert calls["_distinct"] == calls["_key_windows"] == 1
        inner = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        assert CredalSet.from_rows(space, inner).n_vertices == 3
        assert calls["_distinct"] == 2 and calls["_wolfe"] + calls["_decide"] >= 1

    @pytest.mark.parametrize("tol", TOLS)
    def test_settled_together_as_read_alone(self, tol):
        cases = [(space, rows, kept) for space, rows, kept in small_sets_read_alone(tol) if kept]
        sets = [CredalSet.from_rows(space, rows, tol) for space, rows, _ in cases]
        failed = sum(not credal._plain(S._pending[0][None], tol)[0] for S in sets)
        CredalSet._settle(sets + sets[::7])  # a set listed twice is screened once
        assert all(S._pending is None for S in sets)
        assert [S.matrix.tobytes() for S in sets] == [kept for *_, kept in cases]
        assert len(sets) >= 190 and failed >= 30

    def test_screen_waits_for_the_first_read(self, monkeypatch):
        calls = {"_plain": 0, "_canonicalize": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(credal, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(credal, name, counting)
        rng = np.random.default_rng(322)
        space = OutcomeSpace("abc")
        plain = [CredalSet.from_rows(space, rng.dirichlet(np.ones(3), size=k))
                 for k in (1, 2, 3, 4)]
        near = CredalSet.from_rows(space, [[0.6, 0.3, 0.1], [0.6, 0.3 + 1e-13, 0.1 - 1e-13]])
        alone = CredalSet(space, [ProbVector(space, p) for p in rng.dirichlet(np.ones(3), size=3)])
        assert calls == {"_plain": 0, "_canonicalize": 0}
        assert plain[0].n_vertices == 1 and calls == {"_plain": 1, "_canonicalize": 0}
        assert near.n_vertices == 1 and calls == {"_plain": 2, "_canonicalize": 1}
        assert plain[0].matrix is plain[0].matrix and near.vertices
        assert calls == {"_plain": 2, "_canonicalize": 1}
        # the sets never read are never screened
        assert [S._pending[1] for S in (*plain[1:], alone)] == [credal.DEFAULT_TOL] * 4

    def test_a_tree_screens_each_group_once(self, monkeypatch):
        stacks = []
        plain = credal._plain
        monkeypatch.setattr(credal, "_plain",
                            lambda P, tol: stacks.append((*P.shape, tol)) or plain(P, tol))
        rng = np.random.default_rng(323)
        step = OutcomeSpace("abc")
        near = [[0.6, 0.3, 0.1], [0.6, 0.3 + 1e-13, 0.1 - 1e-13], [0.1, 0.2, 0.7]]

        def level(width):
            return [(near if j == 4 else rng.dirichlet(np.ones(3), size=1 + j % 3),
                     1e-9 if j % 2 else 1e-12) for j in range(width)]

        shared = (rng.dirichlet(np.ones(3), size=2), credal.DEFAULT_TOL)
        specs = [[shared], [shared, shared, *level(1)], level(9)]
        read = [[CredalSet.from_rows(step, *spec).matrix.tobytes() for spec in lv] for lv in specs]
        built = {id(spec): CredalSet.from_rows(step, *spec) for spec in chain.from_iterable(specs)}
        levels = [[built[id(spec)] for spec in lv] for lv in specs]
        groups = Counter((*S._pending[0].shape, S._pending[1]) for S in built.values())
        stacks.clear()
        tree = ScenarioTree(step, 3, levels)
        # the near-duplicate set is stacked with its count's others, then canonicalized alone
        assert sorted(stacks) == sorted((n, *key) for key, n in groups.items())
        assert [[S.matrix.tobytes() for S in level] for level in tree.ambiguity] == read
        assert levels[2][4].n_vertices == 2

    def test_concurrent_first_reads_agree(self):
        # threads reading pending sets, one settling them all as a tree does: each read gives
        # the rows read alone, whichever thread screens a set first
        rng = np.random.default_rng(324)
        space = OutcomeSpace("abc")
        near = [[0.6, 0.3, 0.1], [0.6, 0.3 + 1e-13, 0.1 - 1e-13], [0.1, 0.2, 0.7]]
        rows = [near if i % 5 == 0 else rng.dirichlet(np.ones(3), size=1 + i % 3)
                for i in range(300)]
        want = [CredalSet.from_rows(space, r).matrix.tobytes() for r in rows]
        sets = [CredalSet.from_rows(space, r) for r in rows]
        got, errors = {}, []

        def read(t, order):
            try:
                if t == 0:
                    CredalSet._settle(sets)
                got[t] = {i: sets[i].matrix.tobytes() for i in order}
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(t, rng.permutation(len(sets))))
                   for t in range(6)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert all([v[i] for i in range(len(sets))] == want for v in got.values())
        assert len(got) == len(threads)

    def test_a_refusal_waits_for_the_first_read(self, tmp_path, capsys):
        refused = [(tol, space, rows) for tol in TOLS
                   for space, rows, kept in small_sets_read_alone(tol) if kept is None]
        assert len(refused) >= 5  # refused by the scan (ROADMAP D4, D7)
        path, out = tmp_path / "doc.json", str(tmp_path / "r.json")
        for tol, space, rows in refused:
            S = CredalSet.from_rows(space, rows, tol)
            with pytest.raises(SimplexStalledError):
                S.matrix
            assert S._pending[1] == tol  # still pending: the next read refuses again
            with pytest.raises(SimplexStalledError):
                ScenarioTree.uniform(space, 1, CredalSet.from_rows(space, rows, tol))
            path.write_text(json.dumps({
                "format": 1, "spaces": {"U": list(space.labels)},
                "sets": {"S": {"space": "U", "vertices": rows.tolist()}},
                "variables": {"X": {"space": "U", "values": [0.0] * space.size}},
                "command": {"op": "eval", "set": "S", "variable": "X"}}))
            assert main(["run", str(path), "--tol", repr(tol), "--out", out]) == 3
            assert capsys.readouterr().err.startswith("operation error: sets.S: ")
