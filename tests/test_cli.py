import json
import subprocess
import sys

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
        doc = json.loads(json.dumps(MINIMAL))
        doc["format"] = 2
        with pytest.raises(ValidationError):
            parse_scenario(scenario_text(doc))

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


class TestExitCodes:
    def run_cli(self, args):
        return main(args)

    def test_success(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(MINIMAL))
        assert self.run_cli(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"value": 3.0' in out

    def test_validation_error_is_2(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["sets"]["S"]["vertices"] = [[-0.1, 1.1]]
        path = tmp_path / "bad.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 2

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

    def test_operation_error_is_3(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["command"] = {"op": "separate", "set": "S", "weights": [0.5, 0.5]}
        path = tmp_path / "member.json"
        path.write_text(scenario_text(doc))
        assert self.run_cli(["run", str(path)]) == 3

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


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(scenario_text(MINIMAL))
        proc = subprocess.run(
            [sys.executable, "-m", "credalkit", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert '"value": 3.0' in proc.stdout

    def test_list_demos(self):
        proc = subprocess.run(
            [sys.executable, "-m", "credalkit", "list-demos"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("nonrectangular", "gwalk", "fubini-counterexample"):
            assert name in proc.stdout

    def test_demo_subcommand_with_param(self, tmp_path):
        out = tmp_path / "demo.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "credalkit",
                "demo",
                "continuity-failure",
                "--param",
                "n=4",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["outputs"]["computed"]["composed_value"] == 1.0

    def test_every_demo_serializes_through_cli(self, tmp_path):
        from credalkit.demos import DEMOS

        for i, name in enumerate(DEMOS):
            out = tmp_path / f"demo{i}.json"
            assert main(["demo", name, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["outputs"]["passed"] is True

    def test_unknown_demo_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "credalkit", "demo", "nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


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
        pytest.param(["continuity-failure", "--param", "n=abc"], "command.args",
                     id="demo-n-string"),
        pytest.param(["gwalk", "--param", "horizon=abc"], "command.args",
                     id="demo-horizon-string"),
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
        "tree-sublinear": edited(TREE, ("command",),
                                 {"op": "tree-sublinear", "tree": "tr", "variable": "X"}),
        "demo": {"format": 1, "command": {"op": "demo", "name": "gwalk",
                                          "args": {"horizon": 2, "payoff": "abs"}}},
    }
    return {op: only_referenced(doc) for op, doc in docs.items()}


def field_paths(doc, path=()):
    """Every map field of a document, and the first element of every list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = list(enumerate(doc))[:1]
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


RETYPES = (DELETE, "abc", [1], {"k": 1}, True, None)


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
