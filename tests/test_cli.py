import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from credalkit.cli import main, parse_scenario, run
from credalkit.errors import ValidationError
from credalkit.serialize import parse, render

MINIMAL = {
    "format": 1,
    "spaces": {"U": ["a", "b"]},
    "sets": {"S": {"space": "U", "vertices": [[0.5, 0.5]]}},
    "variables": {"X": {"space": "U", "values": [2.0, 4.0]}},
    "command": {"op": "eval", "set": "S", "variable": "X"},
}

TOWER = {
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
            "credal": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        }
    },
    "command": {"op": "check-tower", "set": "S", "kernel": "K"},
}

PENALTY = {
    "format": 1,
    "spaces": {"U": ["a", "b"]},
    "sets": {
        "A": {
            "space": "U",
            "atoms": [
                {"weights": [1.0, 0.0], "cost": 0.5},
                {"weights": [0.0, 1.0], "cost": 2.0},
            ],
        }
    },
    "variables": {"X": {"space": "U", "values": [1.0, 0.0]}},
    "command": {"op": "eval-convex", "set": "A", "variable": "X"},
}

TREE = {
    "format": 1,
    "spaces": {"S1": ["u", "d"], "P": ["uu", "ud", "du", "dd"]},
    "trees": {
        "tr": {
            "step_space": "S1",
            "horizon": 2,
            "ambiguity": [
                [[[0.5, 0.5]]],
                [[[0.5, 0.5]], [[0.5, 0.5]]],
            ],
        }
    },
    "variables": {"X": {"space": "P", "values": [1.0, 0.0, 0.0, 0.0]}},
    "command": {
        "op": "tree-risk",
        "tree": "tr",
        "variable": "X",
        "loss": {"kind": "avar", "level": 0.5},
    },
}


def scenario_text(doc) -> str:
    return render(doc)


DELETE = object()


def edited(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``.

    ``DELETE`` removes the field instead.
    """
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def grid_weights(rng, n, grid=64):
    cuts = np.sort(rng.integers(0, grid + 1, n - 1))
    parts = np.diff(np.concatenate([[0], cuts, [grid]]))
    return (parts / grid).tolist()


def random_scenario(rng):
    n = int(rng.integers(2, 5))
    labels = [f"o{i}" for i in range(n)]
    k = int(rng.integers(1, 4))
    vertices = [grid_weights(rng, n) for _ in range(k)]
    values = [float(v) for v in rng.integers(-8, 9, n)]
    op = rng.choice(["eval", "conjugate", "oce"])
    if op == "eval":
        command = {"op": "eval", "set": "S", "variable": "X"}
    elif op == "conjugate":
        command = {"op": "conjugate", "set": "S", "weights": grid_weights(rng, n)}
    else:
        command = {
            "op": "oce",
            "set": "S",
            "variable": "X",
            "loss": {"kind": "avar", "level": 0.5},
        }
    return {
        "format": 1,
        "spaces": {"U": labels},
        "sets": {"S": {"space": "U", "vertices": vertices}},
        "variables": {"X": {"space": "U", "values": values}},
        "command": command,
    }


class TestParseScenario:
    def test_minimal_parses(self):
        sc = parse_scenario(scenario_text(MINIMAL))
        assert sc.command["op"] == "eval"

    def test_negative_weight_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["sets"]["S"]["vertices"] = [[-0.1, 1.1]]
        with pytest.raises(ValidationError):
            parse_scenario(scenario_text(doc))

    def test_dangling_reference_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["command"]["set"] = "missing"
        with pytest.raises(ValidationError):
            parse_scenario(scenario_text(doc))

    def test_bad_format_header(self):
        # the header is the JSON integer 1: no bool, float or string passes
        for header in (2, True, 1.0, "1"):
            with pytest.raises(ValidationError, match='"format": 1'):
                parse_scenario(scenario_text(edited(MINIMAL, ("format",), header)))

    def test_weight_sum_message_names_invariant(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["sets"]["S"]["vertices"] = [[0.5, 0.52]]
        with pytest.raises(ValidationError, match="sum"):
            parse_scenario(scenario_text(doc))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            doc = random_scenario(rng)
            text = render(doc)
            assert parse(text) == doc
            # and the rendering is a fixed point
            assert render(parse(text)) == text


class TestRun:
    def test_eval_value(self):
        sc = parse_scenario(scenario_text(MINIMAL))
        report = run(sc)
        assert report["outputs"]["value"] == 3.0

    def test_check_tower_gap(self):
        sc = parse_scenario(scenario_text(TOWER))
        report = run(sc)
        out = report["outputs"]
        assert out["rectangular"] is False
        assert out["pasting_vertex_outside"] is not None
        assert out["witness"]["gap"] > 1e-9

    def test_demo_through_scenario(self):
        doc = {
            "format": 1,
            "command": {"op": "demo", "name": "fubini-counterexample"},
        }
        report = run(parse_scenario(scenario_text(doc)))
        assert report["outputs"]["computed"]["lhs"] == 1.0
        assert report["outputs"]["computed"]["rhs"] == 0.5

    def test_report_roundtrips_through_serializer(self):
        sc = parse_scenario(scenario_text(TOWER))
        report = run(sc)
        text = render(report)
        assert render(parse(text)) == text

    def test_determinism(self):
        for doc in (MINIMAL, TOWER):
            a = render(run(parse_scenario(scenario_text(doc))))
            b = render(run(parse_scenario(scenario_text(doc))))
            assert a == b

    def test_canonicalization_drops_reported(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["sets"]["S"]["vertices"] = [[0.2, 0.8], [0.6, 0.4], [0.4, 0.6]]
        report = run(parse_scenario(scenario_text(doc)))
        notes = report["diagnostics"]["canonicalization"]
        assert any("redundant" in note for note in notes)
        tree = edited(TREE, ("trees", "tr", "ambiguity", 1, 0),
                      [[0.2, 0.8], [0.6, 0.4], [0.4, 0.6]])
        notes = run(parse_scenario(scenario_text(tree)))["diagnostics"]["canonicalization"]
        assert notes == ["trees.tr.ambiguity[1][0]: 1 redundant generator(s) dropped"]
        # rows 1e-11 apart are no duplicates, but the hull scan keeps only the first
        near = edited(MINIMAL, ("sets", "S", "vertices"), [[0.2, 0.8], [0.2 + 1e-11, 0.8 - 1e-11]])
        report = run(parse_scenario(scenario_text(near)))
        assert report["diagnostics"]["canonicalization"] == [
            "sets.S: 1 redundant generator(s) dropped"]
        assert report["inputs"]["objects"]["sets"]["S"]["vertices"] == [[0.2, 0.8]]

    def test_penalty_shift_warning_surfaces(self):
        report = run(parse_scenario(scenario_text(PENALTY)))
        assert any("shifted" in w for w in report["diagnostics"]["warnings"])

    def test_separate_on_member_is_operation_error(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["command"] = {"op": "separate", "set": "S", "weights": [0.5, 0.5]}
        sc = parse_scenario(scenario_text(doc))
        from credalkit.errors import NotSeparableError

        with pytest.raises(NotSeparableError):
            run(sc)

    def test_avar_dual_with_vertices(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["command"] = {
            "op": "avar-dual",
            "set": "S",
            "variable": "X",
            "level": 0.5,
            "vertices": True,
        }
        report = run(parse_scenario(scenario_text(doc)))
        assert report["outputs"]["value"] == pytest.approx(4.0, abs=1e-9)
        assert len(report["outputs"]["dual_vertices"]) == 2

    def test_tree_ops(self):
        report = run(parse_scenario(scenario_text(TREE)))
        assert report["outputs"]["root_value"] == pytest.approx(1.0, abs=1e-9)


class TestDispatchCoverage:
    BASE = {
        "format": 1,
        "spaces": {"U": ["0", "1"], "V": ["0", "1"]},
        "sets": {
            "SU": {"space": "U", "vertices": [[0.5, 0.5]]},
            "SV": {"space": "V", "vertices": [[1.0, 0.0], [0.0, 1.0]]},
            "AU": {"space": "U", "atoms": [{"weights": [0.5, 0.5], "cost": 0.0}]},
            "A": {
                "space": ["U", "V"],
                "atoms": [
                    {"weights": [0.5, 0.0, 0.0, 0.5], "cost": 0.0},
                    {"weights": [0.0, 0.5, 0.5, 0.0], "cost": 1.0},
                ],
            },
        },
        "kernels": {
            "K": {
                "u_space": "U",
                "v_space": "V",
                "credal": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
            },
            "KP": {
                "u_space": "U",
                "v_space": "V",
                "penalty": [
                    [{"weights": [1.0, 0.0], "cost": 0.0},
                     {"weights": [0.0, 1.0], "cost": 1.0}],
                    [{"weights": [0.0, 1.0], "cost": 0.0}],
                ],
            },
        },
        "variables": {"X": {"space": ["U", "V"], "values": [1.0, 0.0, 0.0, 1.0]}},
    }

    def run_with(self, command):
        doc = json.loads(json.dumps(self.BASE))
        doc["command"] = command
        return run(parse_scenario(scenario_text(doc)))

    def test_conditional_credal(self):
        report = self.run_with({"op": "conditional", "kernel": "K", "variable": "X"})
        assert report["outputs"]["values"] == [1.0, 1.0]

    def test_conditional_penalty(self):
        report = self.run_with({"op": "conditional", "kernel": "KP", "variable": "X"})
        # at "0": max(1-0, 0-1) = 1; at "1": the single zero-cost atom gives 1
        assert report["outputs"]["values"] == [1.0, 1.0]

    def test_compose_credal(self):
        report = self.run_with(
            {"op": "compose", "set": "SU", "kernel": "K", "variable": "X"}
        )
        assert report["outputs"]["value"] == pytest.approx(1.0)

    def test_compose_penalty(self):
        report = self.run_with(
            {"op": "compose", "set": "AU", "kernel": "KP", "variable": "X"}
        )
        assert report["outputs"]["value"] == pytest.approx(1.0)

    def test_check_fubini(self):
        report = self.run_with({"op": "check-fubini", "set_u": "SU", "set_v": "SV"})
        out = report["outputs"]
        assert out["interchangeable"] is False
        assert abs(out["witness"]["lhs"] - out["witness"]["rhs"]) > 1e-9

    def test_check_penalty_additivity_with_probes(self):
        report = self.run_with(
            {
                "op": "check-penalty-additivity",
                "set": "A",
                "outer": "AU",
                "kernel": "KP",
                "probes": [{"q": [0.5, 0.5], "r": [[1.0, 0.0], [0.0, 1.0]]}],
            }
        )
        out = report["outputs"]
        assert len(out["probes"]) == 1
        assert out["probes"][0]["relation"] in ("equal", "joint_above", "joint_below")

    def test_conjugate(self):
        report = self.run_with(
            {"op": "conjugate", "set": "SV", "weights": [0.25, 0.75]}
        )
        assert report["outputs"]["value"] == 0.0
        # outside: the report holds the float, which renders as the string "inf"
        report = self.run_with({"op": "conjugate", "set": "SU", "weights": [1.0, 0.0]})
        assert report["outputs"]["value"] == float("inf")
        assert '"value": "inf"' in render(report)

    def test_oce_piecewise(self):
        doc = json.loads(json.dumps(self.BASE))
        doc["variables"]["Z"] = {"space": "U", "values": [0.0, 2.0]}
        doc["command"] = {
            "op": "oce",
            "set": "SU",
            "variable": "Z",
            "loss": {"kind": "piecewise-linear", "breakpoints": [0.0],
                     "slopes": [0.0, 2.0]},
        }
        report = run(parse_scenario(scenario_text(doc)))
        assert report["outputs"]["value"] == pytest.approx(2.0)
        assert report["outputs"]["minimizer"] == pytest.approx(0.0)
        assert "boundary_level" not in report["outputs"]
        # AVaR at level one is the flagged degenerate boundary: the worst-case mean
        doc["command"]["loss"] = {"kind": "avar", "level": 1.0}
        report = run(parse_scenario(scenario_text(doc)))
        assert report["outputs"]["value"] == pytest.approx(1.0)
        assert report["outputs"]["boundary_level"] is True

    def test_tree_sublinear(self):
        doc = json.loads(json.dumps(self.BASE))
        doc["spaces"]["P"] = ["a", "b", "c", "d"]
        doc["trees"] = {
            "tr": {
                "step_space": "U",
                "horizon": 2,
                "ambiguity": [
                    [[[1.0, 0.0], [0.0, 1.0]]],
                    [[[0.5, 0.5]], [[0.5, 0.5]]],
                ],
            }
        }
        doc["variables"]["Y"] = {"space": "P", "values": [4.0, 0.0, 0.0, 2.0]}
        doc["command"] = {"op": "tree-sublinear", "tree": "tr", "variable": "Y"}
        report = run(parse_scenario(scenario_text(doc)))
        assert report["outputs"]["root_value"] == pytest.approx(2.0)
        assert report["outputs"]["levels"][0] == [2.0]


# TOWER with its kernel conditioning on a space W that is not the set's U,
# and the same kernel composed with a payoff on U x V
TOWER_W = edited(edited(TOWER, ("spaces", "W"), ["x", "y"]), ("kernels", "K", "u_space"), "W")
COMPOSE_W = edited(edited(TOWER_W, ("command",), {"op": "compose", "set": "S", "kernel": "K",
                                                  "variable": "X"}),
                   ("variables",), {"X": {"space": ["U", "V"], "values": [1.0, 2.0, 3.0, 4.0]}})


class TestExitCodes:
    def run_cli(self, args):
        return main(args)

    def test_success(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(MINIMAL))
        assert self.run_cli(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"value": 3.0' in out

    def test_validation_error_is_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["sets"]["S"]["vertices"] = [[-0.1, 1.1]]
        path = tmp_path / "bad.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 2
        capsys.readouterr()
        ok = tmp_path / "ok.json"
        ok.write_text(scenario_text(MINIMAL))
        for bad, message in (
            ([1, 2], "scenario must be a map"),
            (edited(MINIMAL, ("extras",), {}), "unknown scenario sections: ['extras']"),
            (edited(MINIMAL, ("command", "extra"), 1), "unknown command fields: ['extra']"),
            # a field of another op is unknown to this one
            (edited(MINIMAL, ("command", "loss"), {"kind": "avar", "level": 0.5}),
             "unknown command fields: ['loss']"),
            (edited(MINIMAL, ("command", "op"), "eval-convex"),
             "command.set: expected a penalty family"),
        ):
            path.write_text(json.dumps(bad))
            assert self.run_cli(["run", str(path)]) == 2
            assert capsys.readouterr().err == f"validation error: {message}\n"
        for args, message in (
            (["run", str(ok), "--seed", "-1"], "seed must be nonnegative"),
            (["demo", "gwalk", "--param", "horizon"],
             "--param needs KEY=VALUE, got 'horizon'"),
        ):
            assert self.run_cli(args) == 2
            assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_refusals_print_plain_numbers(self, tmp_path, capsys):
        # the shape of the benchmark's negative-weight refusal: one vertex
        # whose second weight is -0.2, made up on the first
        negative = {"format": 1, "spaces": {"W": ["w0", "w1", "w2", "w3"]},
                    "sets": {"S": {"space": "W", "vertices": [[0.6, -0.2, 0.3, 0.3]]}},
                    "variables": {"X": {"space": "W", "values": [1.0, 2.0, 3.0, 4.0]}},
                    "command": {"op": "eval", "set": "S", "variable": "X"}}
        path = tmp_path / "bad.json"
        for doc, message in (
            (negative, "sets.S: negative probability weight -0.2 below tolerance"),
            (edited(PENALTY, ("sets", "A", "atoms", 1, "cost"), -0.5),
             "sets.A: negative atom cost -0.5"),
        ):
            path.write_text(json.dumps(doc))
            assert self.run_cli(["run", str(path)]) == 2
            assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_parse_error_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert self.run_cli(["run", str(path)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert self.run_cli(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("case", ["scenario-is-dir", "not-utf8", "run-out-is-dir",
                                      "demo-out-is-dir"])
    def test_file_errors_are_2(self, tmp_path, capsys, case):
        ok = tmp_path / "ok.json"
        ok.write_text(scenario_text(MINIMAL))
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff" + scenario_text(MINIMAL).encode())
        args = {
            "scenario-is-dir": ["run", str(tmp_path)],
            "not-utf8": ["run", str(latin)],
            "run-out-is-dir": ["run", str(ok), "--out", str(tmp_path)],
            "demo-out-is-dir": ["demo", "gwalk", "--out", str(tmp_path)],
        }[case]
        assert self.run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        pytest.param(edited(edited(MINIMAL, ("spaces", "W"), ["x", "y"]),
                            ("variables", "X", "space"), "W"), id="eval-variable"),
        pytest.param(TOWER_W, id="check-tower-kernel"),
        pytest.param(COMPOSE_W, id="compose-kernel"),
    ])
    def test_space_mismatch_is_2(self, tmp_path, capsys, doc):
        path = tmp_path / "mismatch.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")

    def test_operation_error_is_3(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["command"] = {"op": "separate", "set": "S", "weights": [0.5, 0.5]}
        path = tmp_path / "member.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_invalid_tol_is_2(self, tmp_path, capsys, tol):
        # a separable point (margin 0.4): a bad tolerance must not reach the LPs
        doc = {
            "format": 1,
            "spaces": {"W": ["a", "b", "c"]},
            "sets": {"S": {"space": "W", "vertices": [
                [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]}},
            "command": {"op": "separate", "set": "S", "weights": [1.0, 0.0, 0.0]},
        }
        path = tmp_path / "sep.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path), f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: --tol")
        assert captured.out == ""
        assert self.run_cli(["run", str(path), "--tol=1e-9"]) == 0

    def test_tol_reaches_canonicalization(self, tmp_path):
        # the fourth vertex is within 1e-7 of the hull of the first three
        doc = json.loads(json.dumps(MINIMAL))
        doc["spaces"] = {"W": ["a", "b", "c"]}
        doc["sets"] = {"S": {"space": "W", "vertices": [
            [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6],
            [0.40000005, 0.40000005, 0.1999999]]}}
        doc["variables"] = {"X": {"space": "W", "values": [1.0, 0.0, 0.0]}}
        path = tmp_path / "near.json"
        path.write_text(scenario_text(doc))
        for tol, kept, notes in ((1e-5, 3, ["sets.S: 1 redundant generator(s) dropped"]),
                                 (1e-9, 4, [])):
            out = tmp_path / "report.json"
            assert self.run_cli(["run", str(path), "--tol", str(tol), "--out", str(out)]) == 0
            report = parse(out.read_text())
            assert report["inputs"]["objects"]["sets"]["S"]["n_vertices"] == kept
            assert report["diagnostics"]["canonicalization"] == notes
            assert report["tolerances"]["feasibility"] == tol

    def test_size_guard_is_4(self, tmp_path):
        labels = [f"u{i}" for i in range(21)]
        doc = {
            "format": 1,
            "spaces": {"U": labels, "V": ["x", "y"]},
            "sets": {
                "SU": {"space": "U", "vertices": [[1.0 / 21] * 21]},
                "S": {"space": ["U", "V"], "vertices": [[1.0 / 42] * 42]},
            },
            "kernels": {
                "K": {
                    "u_space": "U",
                    "v_space": "V",
                    "credal": [[[1.0, 0.0], [0.0, 1.0]]] * 21,
                }
            },
            "command": {"op": "check-tower", "set": "S", "kernel": "K"},
        }
        path = tmp_path / "huge.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 4
        # a two-vertex dual set on ten outcomes needs 646,646 active-set combinations
        ten = {"format": 1, "spaces": {"W": [f"w{i}" for i in range(10)]},
               "sets": {"S": {"space": "W", "vertices": [[0.1] * 10, [0.5] + [0.5 / 9] * 9]}},
               "variables": {"X": {"space": "W", "values": [1.0] * 10}},
               "command": {"op": "avar-dual", "set": "S", "variable": "X", "level": 0.5,
                           "vertices": True}}
        path.write_text(scenario_text(ten))
        assert self.run_cli(["run", str(path)]) == 4
        # probes are charged the cells of their penalty programs, 22 a probe
        # here, against the generator budget: with the one given probe, past
        # 45,453 random probes the run is refused before any probe runs
        probes = valid_scenarios()["check-penalty-additivity"]
        for count, code in ((-1, 2), (10**6 + 1, 4), (45_455, 4), (45_454, 4)):
            path.write_text(json.dumps(edited(probes, ("command", "random_probes"), count)))
            start = time.perf_counter()
            assert self.run_cli(["run", str(path)]) == code
            assert time.perf_counter() - start < 1.0

    def test_additivity_atom_grid_is_charged(self, tmp_path, capsys):
        # 3 outer atoms times 3 atoms on each of 12 outcomes: 1,594,323 grid
        # probes, refused before the grid is enumerated
        dirac = [[1.0 if i == j else 0.0 for i in range(3)] for j in range(3)]
        doc = {
            "format": 1,
            "spaces": {"U": [f"u{i}" for i in range(12)], "V": ["a", "b", "c"]},
            "sets": {
                "A": {"space": ["U", "V"], "atoms": [{"weights": [1.0 / 36] * 36}]},
                "AU": {"space": "U", "atoms": [
                    {"weights": [1.0 if i == j else 0.0 for i in range(12)]}
                    for j in range(3)]},
            },
            "kernels": {"K": {"u_space": "U", "v_space": "V",
                              "penalty": [[{"weights": w} for w in dirac]] * 12}},
            "command": {"op": "check-penalty-additivity", "set": "A", "outer": "AU",
                        "kernel": "K", "random_probes": 0},
        }
        path = tmp_path / "grid.json"
        path.write_text(scenario_text(doc))
        start = time.perf_counter()
        assert self.run_cli(["run", str(path)]) == 4
        assert time.perf_counter() - start < 1.0
        assert "additivity probes exceed" in capsys.readouterr().err

    def test_huge_tree_horizon_is_4(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TREE))
        doc["trees"]["tr"]["horizon"] = 1_000_000_000
        path = tmp_path / "deep.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 4
        assert "tree exceeds" in capsys.readouterr().err

    def test_deep_gwalk_is_4(self, capsys):
        assert self.run_cli(["demo", "gwalk", "--param", "horizon=20"]) == 4
        assert "tree exceeds" in capsys.readouterr().err
        # demo loops count their cells against the generator budget, before any work
        for demo, param in (("continuity-failure", "n=1000"), ("diagonal", "n_payoffs=250001"),
                            ("diagonal", "n_payoffs=100000000")):
            assert self.run_cli(["demo", demo, "--param", param]) == 4
            assert "exceed" in capsys.readouterr().err

    def test_out_file_written(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(MINIMAL))
        out = tmp_path / "report.json"
        assert self.run_cli(["run", str(path), "--out", str(out)]) == 0
        assert '"value": 3.0' in out.read_text()

    def test_byte_identical_reports(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(TOWER))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert self.run_cli(["run", str(path), "--out", str(out1)]) == 0
        assert self.run_cli(["run", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    """``python -m credalkit *args`` in a child that imports the package from this
    checkout's ``src``, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "credalkit", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(MINIMAL))
        proc = run_module("run", str(path))
        assert proc.returncode == 0
        assert '"value": 3.0' in proc.stdout

    def test_list_demos(self):
        proc = run_module("list-demos")
        assert proc.returncode == 0
        for name in ("nonrectangular", "gwalk", "fubini-counterexample"):
            assert name in proc.stdout

    def test_demo_subcommand_with_param(self, tmp_path):
        out = tmp_path / "demo.json"
        proc = run_module("demo", "continuity-failure", "--param", "n=4", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["outputs"]["computed"]["composed_value"] == 1.0

    def test_in_process_params_do_not_leak_into_the_next_call(self, tmp_path):
        out = tmp_path / "demo.json"
        for extra, want in ((["--param", "n=4"], {"n": 4}), ([], {}),
                            (["--param", "n=3", "--param", "n=5"], {"n": 5})):
            assert main(["demo", "continuity-failure", "--out", str(out), *extra]) == 0
            assert json.loads(out.read_text())["command"]["args"] == want

    def test_every_demo_serializes_through_cli(self, tmp_path):
        from credalkit.demos import DEMOS

        for i, name in enumerate(DEMOS):
            out = tmp_path / f"demo{i}.json"
            assert main(["demo", name, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["outputs"]["passed"] is True

    def test_unknown_demo_is_2(self):
        proc = run_module("demo", "nope")
        assert proc.returncode == 2

    @pytest.mark.parametrize("case", ["5000-digit-label", "2000-deep-document",
                                      "600-deep-label", "800-deep-command-field",
                                      "5000-digit-param"])
    def test_malformed_documents_exit_2(self, tmp_path, case):
        # past CPython's 4,300-digit integer limit, or nested deeper than the
        # decoder or the renderer can recurse
        big = "9" * 5000
        text = scenario_text(edited(MINIMAL, ("spaces", "U", 1), "PLACEHOLDER"))
        extra = scenario_text(edited(MINIMAL, ("command", "extra"), "PLACEHOLDER"))
        path = tmp_path / "doc.json"
        path.write_text({
            "5000-digit-label": text.replace('"PLACEHOLDER"', big),
            "2000-deep-document": "[" * 2000 + "]" * 2000,
            "600-deep-label": text.replace('"PLACEHOLDER"', "[" * 600 + "]" * 600),
            "800-deep-command-field": extra.replace('"PLACEHOLDER"', "[" * 800 + "]" * 800),
        }.get(case, text))
        args = ["run", str(path)]
        if case == "5000-digit-param":
            args = ["demo", "gwalk", "--param", f"horizon={big}"]
        proc = run_module(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("validation error: ")
        assert "Traceback" not in proc.stderr
        # a long value is cut, so the refusal stays one short line
        assert len(proc.stderr) < 200 and proc.stderr.count("\n") == 1
        if case == "800-deep-command-field":
            assert "unknown command fields: ['extra']" in proc.stderr
        if case == "5000-digit-param":
            assert proc.stderr.endswith("got '" + "9" * 39 + "…\n")

    def test_unbounded_phase_one_exits_3(self, tmp_path):
        # at tol 1e-15 rounding leaves phase one of a dual-set hull program unbounded
        rng = np.random.default_rng(28)
        k, level = rng.integers(1, 4), rng.choice([0.1, 0.25, 0.3, 0.5])
        rows = rng.dirichlet(np.ones(6), size=k)
        doc = {"format": 1, "spaces": {"U": list("abcdef")},
               "sets": {"S": {"space": "U", "vertices": rows.tolist()}},
               "variables": {"X": {"space": "U", "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}},
               "command": {"op": "avar-dual", "set": "S", "variable": "X",
                           "level": float(level), "vertices": True}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # every digit: the report writer would round
        proc = run_module("run", str(path), "--tol", "1e-15")
        assert proc.returncode == 3
        assert proc.stderr.startswith("operation error: ")
        assert "Traceback" not in proc.stderr

    def test_underflowing_sig_hi_exits_2(self, tmp_path):
        # 2 sig_hi^2 underflows to zero below about 1e-162, and gwalk divides by it
        doc = {"format": 1, "command": {"op": "demo", "name": "gwalk",
                                        "args": {"sig_hi": 1e-170}}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for proc in (run_module("demo", "gwalk", "--param", "sig_hi=1e-170"),
                     run_module("run", str(path))):
            assert proc.returncode == 2
            assert proc.stderr.startswith("validation error: ") and "sig_hi" in proc.stderr
            assert "Traceback" not in proc.stderr
        assert main(["demo", "gwalk", "--param", "sig_hi=1e-160",
                     "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("sig_hi", ["1.7e308", "1e200"])
    def test_overflowing_gwalk_payoff_exits_2(self, sig_hi):
        proc = run_module("demo", "gwalk", "--param", f"sig_hi={sig_hi}")
        assert proc.returncode == 2
        assert proc.stderr == (f"validation error: step size {float(sig_hi)!r} over horizon 2 "
                               "overflows the payoff\n")

    @pytest.mark.parametrize("x", [9e307, 1.7e308])
    def test_oce_near_the_float_range_is_finite(self, tmp_path, x):
        # x - s overflows at some candidates; the value is the finite dual one
        doc = {"format": 1, "spaces": {"U": ["a", "b"]},
               "sets": {"S": {"space": "U", "vertices": [[0.5, 0.5], [0.1, 0.9]]}},
               "variables": {"X": {"space": "U", "values": [x, -x]}},
               "command": {"op": "oce", "set": "S", "variable": "X",
                           "loss": {"kind": "avar", "level": 0.5}}}
        tree = {"format": 1, "spaces": {"U": ["a", "b"]},
                "trees": {"T": {"step_space": "U", "horizon": 1,
                                "ambiguity": [[[[0.5, 0.5], [0.1, 0.9]]]]}},
                "variables": doc["variables"],
                "command": {"op": "tree-risk", "tree": "T", "variable": "X",
                            "loss": {"kind": "avar", "level": 0.5}}}
        path = tmp_path / "doc.json"
        for d, key in ((doc, "value"), (tree, "root_value")):
            path.write_text(json.dumps(d))
            proc = run_module("run", str(path))
            assert proc.returncode == 0 and "Traceback" not in proc.stderr
            assert json.loads(proc.stdout)["outputs"][key] == x

    def test_infeasible_avar_dual_program_exits_3(self, tmp_path):
        # at tol 1e-15 rounding makes the AVaR dual program, feasible by construction,
        # come back infeasible
        rows = np.random.default_rng(32).dirichlet(np.ones(6), size=2)
        doc = {"format": 1, "spaces": {"U": list("abcdef")},
               "sets": {"S": {"space": "U", "vertices": rows.tolist()}},
               "variables": {"X": {"space": "U", "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}},
               "command": {"op": "avar-dual", "set": "S", "variable": "X", "level": 0.25}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        proc = run_module("run", str(path), "--tol", "1e-15")
        assert proc.returncode == 3
        assert proc.stderr.startswith("operation error: ") and "AVaR dual program" in proc.stderr
        assert "Traceback" not in proc.stderr


AVAR_DUAL = edited(MINIMAL, ("command",),
                   {"op": "avar-dual", "set": "S", "variable": "X", "level": 0.5})
OCE = edited(MINIMAL, ("command",), {"op": "oce", "set": "S", "variable": "X",
                                     "loss": {"kind": "avar", "level": 0.5}})
PIECEWISE = edited(OCE, ("command", "loss"), {"kind": "piecewise-linear",
                                              "breakpoints": [0.0], "slopes": [0.0, 2.0]})
CONJUGATE = edited(MINIMAL, ("command",), {"op": "conjugate", "set": "S", "weights": [0.5, 0.5]})


class TestTypedFields:
    """Wrongly typed numbers exit 2 and name their field path."""

    @pytest.mark.parametrize("case, field", [
        pytest.param(edited(AVAR_DUAL, ("command", "level"), "abc"), "command.level",
                     id="avar-dual-level-string"),
        pytest.param(edited(OCE, ("command", "loss", "level"), [1]), "command.loss.level",
                     id="loss-level-list"),
        pytest.param(edited(MINIMAL, ("variables", "X", "values", 1), "abc"),
                     "variables.X.values[1]", id="variable-value-string"),
        pytest.param(edited(MINIMAL, ("variables", "X"), ["U", [2.0, 4.0]]), "variables.X",
                     id="variable-body-list"),
        pytest.param(edited(MINIMAL, ("sets", "S", "vertices"), 5), "sets.S.vertices",
                     id="vertices-number"),
        pytest.param(edited(MINIMAL, ("sets", "S", "vertices", 0, 1), "abc"),
                     "sets.S.vertices[0][1]", id="vertex-entry-string"),
        pytest.param(edited(CONJUGATE, ("command", "weights", 1), "abc"), "command.weights[1]",
                     id="weights-entry-string"),
        pytest.param(edited(PENALTY, ("sets", "A", "atoms", 0, "cost"), "z"),
                     "sets.A.atoms[0].cost", id="atom-cost-string"),
        pytest.param(edited(PIECEWISE, ("command", "loss", "breakpoints"), "ab"),
                     "command.loss.breakpoints", id="breakpoints-string"),
        pytest.param(["continuity-failure", "--param", "n=abc"], "command.args.n",
                     id="demo-n-string"),
        pytest.param(["gwalk", "--param", "horizon=abc"], "command.args.horizon",
                     id="demo-horizon-string"),
        # demo arguments go through the same readers as every other number
        pytest.param(["continuity-failure", "--param", "n=4.7"], "command.args.n",
                     id="demo-n-fraction"),
        pytest.param(["gwalk", "--param", "horizon=true"], "command.args.horizon",
                     id="demo-horizon-bool"),
        pytest.param(["gwalk", "--param", 'horizon="3"'], "command.args.horizon",
                     id="demo-horizon-numeric-string"),
        pytest.param(["gwalk", "--param", "payoff=call", "--param", "strike=[1]"],
                     "command.args.strike", id="demo-strike-list"),
        pytest.param({"format": 1, "command": {"op": "demo", "name": "gwalk",
                                               "args": {"sig_hi": "2"}}},
                     "command.args.sig_hi", id="demo-sig-hi-string"),
        # flags are JSON booleans
        pytest.param(edited(AVAR_DUAL, ("command", "vertices"), "no"), "command.vertices",
                     id="avar-dual-vertices-string"),
        pytest.param(edited(AVAR_DUAL, ("command", "vertices"), 1), "command.vertices",
                     id="avar-dual-vertices-number"),
        # JSON numbers only: no bools, no numeric strings
        pytest.param(edited(AVAR_DUAL, ("command", "level"), True), "command.level",
                     id="avar-dual-level-bool"),
        pytest.param(edited(AVAR_DUAL, ("command", "level"), "0.5"), "command.level",
                     id="avar-dual-level-numeric-string"),
    ])
    def test_wrongly_typed_field_exits_2(self, case, field, tmp_path, capsys):
        if isinstance(case, dict):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(case))
            argv = ["run", str(path)]
        else:
            argv = ["demo", *case, "--out", str(tmp_path / "demo.json")]
        assert main(argv) == 2
        assert f"validation error: {field}:" in capsys.readouterr().err


# tree nodes of 1, 2 and 3 rows: three vertex-count groups, the last node of
# level 1 holds an interior row its membership decision drops
LEVELS_OF_1_2_3_ROWS = [
    [[[0.5, 0.5]]],
    [[[0.25, 0.75], [0.5, 0.5]], [[0.75, 0.25], [0.5, 0.5], [0.0, 1.0]]],
]


def only_referenced(doc):
    """Drop the objects the command does not name (spaces stay)."""
    names = {v for v in doc["command"].values() if isinstance(v, str)}
    doc = json.loads(json.dumps(doc))
    for section in ("sets", "kernels", "variables", "trees"):
        if section in doc:
            doc[section] = {k: v for k, v in doc[section].items() if k in names}
    return doc


def valid_scenarios() -> dict:
    """One valid scenario per op, from the documents above."""
    base = TestDispatchCoverage.BASE
    docs = {
        "eval": MINIMAL,
        "eval-convex": PENALTY,
        "conditional": edited(base, ("command",),
                              {"op": "conditional", "kernel": "KP", "variable": "X"}),
        "compose": edited(base, ("command",),
                          {"op": "compose", "set": "SU", "kernel": "K", "variable": "X"}),
        "check-tower": TOWER,
        "check-penalty-additivity": edited(base, ("command",), {
            "op": "check-penalty-additivity", "set": "A", "outer": "AU", "kernel": "KP",
            "probes": [{"q": [0.5, 0.5], "r": [[1.0, 0.0], [0.0, 1.0]]}],
            "random_probes": 2,
        }),
        "check-fubini": edited(base, ("command",),
                               {"op": "check-fubini", "set_u": "SU", "set_v": "SV"}),
        "conjugate": CONJUGATE,
        "separate": edited(CONJUGATE, ("command",),
                           {"op": "separate", "set": "S", "weights": [1.0, 0.0]}),
        "oce": PIECEWISE,
        "avar-dual": edited(AVAR_DUAL, ("command", "vertices"), True),
        "tree-risk": TREE,
        "tree-sublinear": edited(edited(TREE, ("command",), {
            "op": "tree-sublinear", "tree": "tr", "variable": "X"}),
            ("trees", "tr", "ambiguity"), LEVELS_OF_1_2_3_ROWS),
        "demo": {"format": 1, "command": {"op": "demo", "name": "gwalk",
                                          "args": {"horizon": 2, "payoff": "abs", "sig_lo": 0.0,
                                                   "sig_hi": 1.0, "dt": 1.0}}},
    }
    return {op: only_referenced(doc) for op, doc in docs.items()}


def field_paths(doc, path=()):
    """Every map field of a document, and the first and last element of every list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = list(enumerate(doc))[:: max(1, len(doc) - 1)]
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# the last one is nested deeper than the renderer can recurse; a field that
# accepts it (a space label, say) must still end in a documented exit code
RETYPES = (DELETE, "abc", [1], {"k": 1}, True, None, nested(600))


def typed_fields(doc):
    """The fields of ``doc`` holding a JSON number or boolean, with their value."""
    for field in field_paths(doc):
        value = doc
        for key in field:
            value = value[key]
        if type(value) in (int, float, bool):
            yield field, value


class TestMutationFuzz:
    def test_every_op_has_a_valid_scenario(self, tmp_path):
        from credalkit.cli import OPS

        docs = valid_scenarios()
        assert set(docs) == set(OPS)
        path = tmp_path / "doc.json"
        for doc in docs.values():
            path.write_text(json.dumps(doc))
            assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("op", sorted(valid_scenarios()))
    def test_mutated_fields_exit_with_a_documented_code(self, op, tmp_path, capsys):
        doc = valid_scenarios()[op]
        path = tmp_path / "doc.json"
        out = tmp_path / "report.json"
        for field in field_paths(doc):
            for value in RETYPES:
                path.write_text(json.dumps(edited(doc, field, value)))
                code = main(["run", str(path), "--out", str(out)])
                assert code in (0, 2, 3, 4), (field, value)
        capsys.readouterr()

    EXTREMES = (0, -0.0, 1e-170, -1e-170, 8.9e307, 1.7e308, -1.7e308, 2**63, -(2**63))

    @pytest.mark.parametrize("op", sorted(valid_scenarios()))
    def test_numeric_extremes_exit_with_a_documented_code(self, op, tmp_path, capsys):
        doc = valid_scenarios()[op]
        path = tmp_path / "doc.json"
        fields = [field for field, valid in typed_fields(doc) if type(valid) is not bool]
        assert fields
        for field in fields:
            for value in self.EXTREMES:
                path.write_text(json.dumps(edited(doc, field, value)))
                code = main(["run", str(path), "--out", str(tmp_path / "r.json")])
                assert code in (0, 2, 3, 4), (field, value)
        capsys.readouterr()

    @pytest.mark.parametrize("op", sorted(valid_scenarios()))
    def test_retyped_numbers_and_flags_exit_2(self, op, tmp_path, capsys):
        doc = valid_scenarios()[op]
        path = tmp_path / "doc.json"
        fields = list(typed_fields(doc))
        assert fields  # every document has at least its "format"
        for field, valid in fields:
            other = 1 if type(valid) is bool else True
            for value in (other, "abc", [1], {"k": 1}):
                path.write_text(json.dumps(edited(doc, field, value)))
                assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2, \
                    (field, value)
        capsys.readouterr()
