"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned in the assertions below.
"""

import contextlib
import json

import numpy as np
import pytest

from _oracles import avar_loss, robust_tail_lp, tree_risk_grid
from credalkit.cli import main
from credalkit.conditional import (
    CredalKernel,
    PenaltyKernel,
    check_penalty_additivity,
    check_tower,
    compose,
    composed_atoms,
    pasting,
)
from credalkit.credal import (
    CredalSet,
    conjugate_indicator,
    membership,
    separate,
    sublinear_expectation,
)
from credalkit.demos import (
    continuity_failure_witness,
    diagonal_demo,
    gwalk,
    nonrectangular_demo,
)
from credalkit.errors import NotSeparableError
from credalkit.fubini import check_fubini, interchange_gap
from credalkit.penalty import PenaltyAtoms, convex_expectation, envelope_atoms
from credalkit.risk import LossSpec, ScenarioTree, avar_dual_evaluate, avar_dual_set, compose_risk, compose_sublinear, oce
from credalkit.serialize import parse, render
from credalkit.spaces import (
    OutcomeSpace,
    ProbVector,
    ProductSpace,
    RandomVariable,
)


@contextlib.contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def rv(space, values):
    return RandomVariable(space, values)


def random_credal(rng, n, k):
    space = OutcomeSpace([f"o{i}" for i in range(n)])
    return CredalSet.from_rows(space, rng.dirichlet(np.ones(n), size=k))


def random_kernel(rng, u_space, nv, max_vertices):
    v_space = OutcomeSpace([f"v{i}" for i in range(nv)])
    table = [
        CredalSet.from_rows(
            v_space, rng.dirichlet(np.ones(nv), size=int(rng.integers(1, max_vertices + 1)))
        )
        for _ in range(u_space.size)
    ]
    return CredalKernel(u_space, table)


def random_penalty(rng, space, max_atoms):
    k = int(rng.integers(1, max_atoms + 1))
    rows = rng.dirichlet(np.ones(space.size), size=k)
    costs = rng.uniform(0, 1.5, size=k)
    costs[int(rng.integers(0, k))] = 0.0
    return PenaltyAtoms.from_rows(space, list(zip(rows.tolist(), costs.tolist())))


def random_penalty_kernel(rng, u_space, nv, max_atoms):
    v_space = OutcomeSpace([f"v{i}" for i in range(nv)])
    return PenaltyKernel(
        u_space, [random_penalty(rng, v_space, max_atoms) for _ in range(u_space.size)]
    )


def exterior_point(rng, S):
    """A point provably outside the set: push mass onto the coordinate a
    random direction favors, strictly past the hull's support value."""
    n = S.space.size
    for _ in range(100):
        direction = rng.normal(size=n)
        top = int(np.argmax(direction))
        support = float(np.max(S.matrix @ direction))
        if direction[top] - support < 1e-6:
            continue
        mix = 0.05 * np.mean(S.matrix, axis=0)
        mix[top] += 0.95
        p = ProbVector(S.space, mix / mix.sum())
        if float(np.dot(p.weights, direction)) > support + 1e-7:
            return p
    return None


def test_criterion_1_choquet_duality_roundtrip():
    with criterion(1, "Choquet duality round-trip"):
        rng = np.random.default_rng(101)
        exteriors = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            S = random_credal(rng, n, k)
            for v in S.vertices:
                member, coeffs = membership(S, v)
                assert member and coeffs is not None
                assert conjugate_indicator(S, v) == 0.0
                with pytest.raises(NotSeparableError):
                    separate(S, v)
            p = exterior_point(rng, S)
            if p is None:
                continue
            exteriors += 1
            member, _ = membership(S, p)
            assert not member
            assert conjugate_indicator(S, p) == float("inf")
            cert = separate(S, p)
            assert cert.margin > 1e-9
            reproduced = float(np.dot(p.weights, cert.witness.values)) - \
                sublinear_expectation(S, cert.witness)
            assert abs(reproduced - cert.margin) <= 1e-9
        assert exteriors >= 150


def test_criterion_2_composition_identity():
    with criterion(2, "composition identity"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            nu = int(rng.integers(2, 4))
            nv = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            SU = CredalSet.from_rows(
                us, rng.dirichlet(np.ones(nu), size=int(rng.integers(1, 4)))
            )
            K = random_kernel(rng, us, nv, 3)
            S = pasting(SU, K)
            space = ProductSpace(us, K.v_space)
            for _ in range(20):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert abs(sublinear_expectation(S, x) - compose(SU, K, x)) <= 1e-9
        for _ in range(50):
            nu = int(rng.integers(1, 4))
            nv = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            AU = random_penalty(rng, us, 3)
            KP = random_penalty_kernel(rng, us, nv, 3)
            C = composed_atoms(AU, KP)
            space = ProductSpace(us, KP.v_space)
            for _ in range(20):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert abs(convex_expectation(C, x) - compose(AU, KP, x)) <= 1e-9


def test_criterion_3_tower_characterization():
    with criterion(3, "tower characterization"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            nu = int(rng.integers(2, 4))
            nv = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            SU = CredalSet.from_rows(
                us, rng.dirichlet(np.ones(nu), size=int(rng.integers(1, 4)))
            )
            K = random_kernel(rng, us, nv, 3)
            S = pasting(SU, K)
            report = check_tower(S, K)
            assert report.rectangular
            space = ProductSpace(us, K.v_space)
            for _ in range(20):
                x = rv(space, rng.uniform(-3, 3, space.size))
                assert abs(
                    sublinear_expectation(S, x) - compose(report.marginal, K, x)
                ) <= 1e-9
        demo = nonrectangular_demo()
        assert demo.passed
        assert demo.computed["rectangular"] is False
        assert demo.computed["lhs_on_match_payoff"] == 0.5
        assert demo.computed["rhs_on_match_payoff"] == 1.0
        assert demo.computed["gap_on_match_payoff"] == 0.5


def test_criterion_4_penalty_additivity():
    with criterion(4, "penalty additivity"):
        rng = np.random.default_rng(104)
        for _ in range(40):
            nu = int(rng.integers(1, 3))
            nv = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{i}" for i in range(nu)])
            AU = envelope_atoms(random_penalty(rng, us, 3))
            raw = random_penalty_kernel(rng, us, nv, 3)
            KP = PenaltyKernel(us, [envelope_atoms(raw[iu]) for iu in range(nu)])
            C = composed_atoms(AU, KP)
            report = check_penalty_additivity(C, AU, KP, n_random=10, seed=3)
            for probe in report.probes:
                if probe.split_penalty < float("inf"):
                    assert probe.joint_penalty <= probe.split_penalty + 1e-9
            # decomposable atom probes come first in the default probe list
            atom_report = check_penalty_additivity(C, AU, KP, n_random=0, seed=3)
            for probe in atom_report.probes:
                assert probe.split_penalty < float("inf")
                assert abs(probe.joint_penalty - probe.split_penalty) <= 1e-9


def test_criterion_5_fubini():
    with criterion(5, "nonlinear Fubini"):
        u = OutcomeSpace(["0", "1"])
        v = OutcomeSpace(["0", "1"])
        SU = CredalSet.from_rows(u, [[0.5, 0.5]])
        SV = CredalSet.simplex(v)
        match = rv(ProductSpace(u, v), [1.0, 0, 0, 1.0])
        lhs, rhs = interchange_gap(SU, SV, match)
        assert lhs == 1.0 and rhs == 0.5
        assert not check_fubini(SU, SV).interchangeable

        rng = np.random.default_rng(105)
        for i in range(100):
            nu = int(rng.integers(2, 4))
            nv = int(rng.integers(2, 4))
            us = OutcomeSpace([f"u{j}" for j in range(nu)])
            vs = OutcomeSpace([f"v{j}" for j in range(nv)])
            family = i % 3
            if family == 0:
                A = CredalSet.singleton(ProbVector(us, rng.dirichlet(np.ones(nu))))
                B = CredalSet.singleton(ProbVector(vs, rng.dirichlet(np.ones(nv))))
            elif family == 1:
                A = CredalSet.simplex(us)
                B = CredalSet.simplex(vs)
            else:
                A = CredalSet.singleton(
                    ProbVector.dirac(us, f"u{int(rng.integers(0, nu))}")
                )
                B = CredalSet.from_rows(
                    vs, rng.dirichlet(np.ones(nv), size=int(rng.integers(1, 4)))
                )
            report = check_fubini(A, B)
            assert report.interchangeable
            space = ProductSpace(us, vs)
            for _ in range(200):
                x = rv(space, rng.uniform(-3, 3, space.size))
                l2, r2 = interchange_gap(A, B, x)
                assert abs(l2 - r2) <= 1e-9

        found = 0
        for _ in range(40):
            A = CredalSet.from_rows(u, rng.dirichlet(np.ones(2), size=int(rng.integers(1, 4))))
            B = CredalSet.from_rows(v, rng.dirichlet(np.ones(2), size=int(rng.integers(1, 4))))
            report = check_fubini(A, B)
            if report.interchangeable:
                continue
            found += 1
            payoff, wl, wr = report.witness
            assert abs(wl - wr) > 1e-9
            l2, r2 = interchange_gap(A, B, payoff)
            assert abs(l2 - wl) <= 1e-9 and abs(r2 - wr) <= 1e-9
        assert found > 5


def test_criterion_6_avar_primal_dual():
    with criterion(6, "robust AVaR primal-dual"):
        rng = np.random.default_rng(106)
        levels = np.arange(1, 10) / 10.0
        for i in range(500):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            S = random_credal(rng, n, k)
            x = rv(S.space, rng.uniform(-4, 4, n))
            lam = float(rng.choice(levels))
            primal = oce(S, x, LossSpec.avar(lam)).value
            # the capped-density program, solved by HiGHS
            dual = robust_tail_lp(S.matrix, lam, x.values)
            assert abs(primal - dual) <= 1e-9
            # boundary collapse and cash additivity
            assert abs(
                oce(S, x, LossSpec.avar(1.0)).value - sublinear_expectation(S, x)
            ) <= 1e-9
            c = float(rng.uniform(-3, 3))
            shifted = oce(S, rv(S.space, x.values + c), LossSpec.avar(lam)).value
            assert abs(shifted - (primal + c)) <= 1e-9
            # explicit dual sets on the smaller instances
            if i < 100 and n <= 4 and k <= 3:
                D = avar_dual_set(S, lam)
                for _ in range(5):
                    y = rv(S.space, rng.uniform(-3, 3, n))
                    assert abs(
                        sublinear_expectation(D, y) - avar_dual_evaluate(S, lam, y)
                    ) <= 1e-9


def test_criterion_7_multi_period_recursion():
    with criterion(7, "multi-period recursion"):
        rng = np.random.default_rng(107)
        step = OutcomeSpace(["u", "d"])
        for _ in range(12):
            horizon = int(rng.integers(1, 4))
            ambiguity = []
            verts = []
            for t in range(horizon):
                row, vrow = [], []
                for _ in range(2**t):
                    S = CredalSet.from_rows(
                        step, rng.dirichlet(np.ones(2), size=int(rng.integers(1, 4)))
                    )
                    row.append(S)
                    vrow.append(S.matrix)
                ambiguity.append(row)
                verts.append(vrow)
            tree = ScenarioTree(step, horizon, ambiguity)
            x = rng.uniform(-3, 3, 2**horizon)
            lam = float(rng.choice([0.3, 0.6, 0.9]))
            space = OutcomeSpace([f"p{i}" for i in range(2**horizon)])
            got = compose_risk(tree, rv(space, x), LossSpec.avar(lam))[0][0]
            ref = tree_risk_grid(verts, x, 2, avar_loss(lam))
            assert abs(got - ref) <= 1e-6

            # sublinear root against level-by-level pasting
            joint = ambiguity[0][0]
            flat = step
            for t in range(1, horizon):
                flat_next = OutcomeSpace(
                    [f"{a}.{b}" for a in flat.labels for b in step.labels]
                )
                pasted = pasting(joint, CredalKernel(flat, ambiguity[t]))
                joint = CredalSet(
                    flat_next,
                    [ProbVector(flat_next, p.weights) for p in pasted.vertices],
                    canonical=True,
                )
                flat = flat_next
            want = sublinear_expectation(joint, rv(flat, x))
            got_sub = compose_sublinear(tree, rv(space, x))[0][0]
            assert abs(got_sub - want) <= 1e-9


def test_criterion_8_counterexample_fidelity():
    with criterion(8, "counterexample fidelity"):
        for n in range(2, 33):
            report = continuity_failure_witness(n)
            assert report.computed["composed_value"] == 1.0
        a = diagonal_demo()
        b = diagonal_demo()
        assert a.computed["rectangular"] is True
        assert a.to_doc() == b.to_doc()
        assert render(a.to_doc()) == render(b.to_doc())


def test_criterion_9_gwalk_envelope():
    with criterion(9, "volatility-walk envelope"):
        for payoff in ("square", "abs", "neg-square", "neg-abs", "identity"):
            for horizon in (1, 2, 3):
                for sig_lo, sig_hi in ((0.0, 1.0), (0.5, 1.5), (0.3, 0.9)):
                    report = gwalk(horizon, sig_lo, sig_hi, 1.0, payoff)
                    assert report.passed, (payoff, horizon, sig_lo, sig_hi)
                    want = report.targets["root_value"]["value"]
                    assert abs(report.computed["root_value"] - want) <= 1e-9


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI contract"):
        rng = np.random.default_rng(110)

        def grid_weights(n):
            cuts = np.sort(rng.integers(0, 65, n - 1))
            parts = np.diff(np.concatenate([[0], cuts, [64]]))
            return (parts / 64).tolist()

        for _ in range(100):
            n = int(rng.integers(2, 5))
            doc = {
                "format": 1,
                "spaces": {"U": [f"o{i}" for i in range(n)]},
                "sets": {
                    "S": {
                        "space": "U",
                        "vertices": [grid_weights(n) for _ in range(int(rng.integers(1, 4)))],
                    }
                },
                "variables": {
                    "X": {"space": "U", "values": [float(v) for v in rng.integers(-8, 9, n)]}
                },
                "command": {"op": "eval", "set": "S", "variable": "X"},
            }
            text = render(doc)
            assert parse(text) == doc
            assert render(parse(text)) == text

        scenario = {
            "format": 1,
            "spaces": {"U": ["0", "1"], "V": ["0", "1"]},
            "sets": {
                "S": {
                    "space": ["U", "V"],
                    "vertices": [[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]],
                }
            },
            "kernels": {
                "K": {
                    "u_space": "U",
                    "v_space": "V",
                    "credal": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
                }
            },
            "command": {"op": "check-tower", "set": "S", "kernel": "K"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(render(scenario))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", str(path), "--out", str(out1)]) == 0
        assert main(["run", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        bad = json.loads(json.dumps(scenario))
        bad["sets"]["S"]["vertices"] = [[-0.2, 0.4, 0.4, 0.4]]
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(render(bad))
        assert main(["run", str(bad_path)]) == 2

        member = {
            "format": 1,
            "spaces": {"U": ["a", "b"]},
            "sets": {"S": {"space": "U", "vertices": [[0.5, 0.5]]}},
            "command": {"op": "separate", "set": "S", "weights": [0.5, 0.5]},
        }
        member_path = tmp_path / "member.json"
        member_path.write_text(render(member))
        assert main(["run", str(member_path)]) == 3

        huge = json.loads(json.dumps(scenario))
        huge["spaces"]["U"] = [f"u{i}" for i in range(21)]
        huge["sets"]["S"] = {"space": ["U", "V"], "vertices": [[1.0 / 42] * 42]}
        huge["kernels"]["K"]["credal"] = [[[1.0, 0.0], [0.0, 1.0]]] * 21
        huge_path = tmp_path / "huge.json"
        huge_path.write_text(render(huge))
        assert main(["run", str(huge_path)]) == 4
