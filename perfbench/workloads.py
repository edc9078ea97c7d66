"""The three workloads: inputs, set-up, one op, and the check of its output.

Importing this module imports neither numpy nor credalkit; set-up does,
so that ``import credalkit`` is timed as part of ``setup_s``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# exit codes of the CLI contract; an exception escaping ``cli.main`` counts as 1
EXIT_OK, EXIT_CRASH, EXIT_VALIDATION = 0, 1, 2

OK, FAILED, WRONG = "ok", "failed", "wrong"


def import_credalkit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "credalkit" / "__init__.py").is_file():
        raise SystemExit(f"credalkit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import credalkit

    if Path(credalkit.__file__).resolve().parent != SRC / "credalkit":
        raise SystemExit(f"imported credalkit from {credalkit.__file__}, not {SRC}")
    return credalkit


def classify(expect: str, code: int, problem: str) -> str:
    """An op is ok when answered correctly or correctly refused.

    A wrong answer, or an answer where a refusal was expected, is also
    counted as wrong, which makes the run incorrect.
    """
    if expect == gen.REFUSE:
        if code == EXIT_VALIDATION:
            return OK
        return WRONG if code == EXIT_OK else FAILED
    if code != EXIT_OK:
        return FAILED
    return WRONG if problem else OK


class CliWorkload:
    """Scenario documents run through ``cli.main(["run", doc, "--out", report])``."""

    def __init__(self, name: str, make, pool: int, cycle_seconds: float, trace_cycles: int):
        self.name = name
        self._make = make
        self.pool = pool
        self.cycle_seconds = cycle_seconds
        self.trace_cycles = trace_cycles

    def inputs(self, seed: int, work: Path) -> list[list[gen.Op]]:
        """Write each document as it is drawn and keep only its path.

        Documents are read back for checking, so they never sit in the
        process's memory, which ``peak_rss_mb`` measures.
        """
        docs = work / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        cycles = []
        for c, cycle in enumerate(self._make(seed, self.pool)):
            for i, op in enumerate(cycle):
                op.meta["key"] = (c, i)
                op.meta["path"] = str(docs / f"{c}-{i}.json")
                op.meta["op"] = op.doc["command"]["op"]
                with open(op.meta["path"], "w") as fh:
                    fh.write(json.dumps(op.doc))
                op.doc = None
            cycles.append(cycle)
        return cycles

    def setup_inputs(self, seed: int):
        return None

    def setup(self, spec):
        import_credalkit()
        from credalkit import cli

        return cli

    def run(self, cli, op: gen.Op, out: Path):
        try:
            code = cli.main(["run", op.meta["path"], "--out", str(out)])
        except Exception:  # a traceback is the documented failure, exit 1
            return EXIT_CRASH, None
        return code, (out if code == EXIT_OK else None)

    @staticmethod
    def output(ref) -> str:
        with open(ref) as fh:
            return fh.read()

    def check(self, state, op: gen.Op, text: str) -> str:
        import check_cli

        with open(op.meta["path"]) as fh:
            doc = json.load(fh)
        return check_cli.check(op.kind, doc, op.meta, json.loads(text)["outputs"])


class TreeWorkload:
    """Library calls ``compose_risk`` / ``compose_sublinear`` on prebuilt trees."""

    name = "tree_eval"
    cycle_seconds = 4.2
    trace_cycles = 1

    def inputs(self, seed: int, work: Path):
        return gen.tree_cycles()

    def setup_inputs(self, seed: int):
        return gen.tree_eval(seed)

    def setup(self, spec):
        ck = import_credalkit()
        step = ck.OutcomeSpace(["down", "flat", "up"])
        h = spec["horizon"]
        trees = {
            "shared": ck.ScenarioTree.uniform(step, h, ck.CredalSet.from_rows(step, spec["shared"])),
            "distinct": ck.ScenarioTree(step, h, [
                [ck.CredalSet.from_rows(step, rows) for rows in level]
                for level in spec["distinct"]
            ]),
        }
        paths = ck.OutcomeSpace([f"p{i}" for i in range(3**h)])
        payoffs = [ck.RandomVariable(paths, values) for values in spec["payoffs"]]
        losses = []
        for m in spec["measures"]:
            if m["kind"] == "avar":
                losses.append(ck.LossSpec.avar(m["level"]))
            elif m["kind"] == "piecewise-linear":
                losses.append(ck.LossSpec.piecewise(m["breakpoints"], m["slopes"]))
            else:
                losses.append(None)
        return {"ck": ck, "spec": spec, "step": step, "trees": trees, "payoffs": payoffs,
                "losses": losses}

    def run(self, state, op: gen.Op, out):
        ck = state["ck"]
        tree = state["trees"][op.meta["tree"]]
        X = state["payoffs"][op.meta["payoff"]]
        loss = state["losses"][op.meta["measure"]]
        try:
            if loss is None:
                levels = ck.compose_sublinear(tree, X)
            else:
                levels = ck.compose_risk(tree, X, loss)
        except ck.SizeGuardError:
            return 4, None
        except ck.ValidationError:
            return EXIT_VALIDATION, None
        except ck.CredalkitError:
            return 3, None
        except Exception:
            return EXIT_CRASH, None
        return EXIT_OK, levels

    @staticmethod
    def output(ref):
        return ref

    def check(self, state, op: gen.Op, levels) -> str:
        import numpy as np

        import oracle

        spec = state["spec"]
        measure = spec["measures"][op.meta["measure"]]
        h = spec["horizon"]
        if op.meta["tree"] == "shared":
            rows = [spec["shared"]] * h
        else:
            rows = spec["distinct"]
        levels = [np.asarray(lvl) for lvl in levels]
        problem = oracle.tree_check(levels, rows, measure)
        if problem or measure["kind"] != "avar":
            return problem
        # the AVaR dual program at one seeded node per level
        ck = state["ck"]
        tree = state["trees"][op.meta["tree"]]
        for t, node in enumerate(spec["check_nodes"]):
            child = ck.RandomVariable(state["step"], levels[t + 1][3 * node: 3 * node + 3])
            dual = ck.avar_dual_evaluate(tree.ambiguity[t][node], measure["level"], child)
            if not oracle.close(dual, levels[t][node]):
                return f"level {t} node {node}: oce {levels[t][node]!r} vs dual {dual!r}"
        return ""


# ``cycle_seconds`` is a cycle's length at the reference speed (``speed.py``);
# a run of ``--seconds`` is that many seconds' worth of whole cycles.
WORKLOADS = {
    "rectangularity": CliWorkload("rectangularity", gen.rectangularity, pool=4,
                                  cycle_seconds=10.5, trace_cycles=1),
    "tree_eval": TreeWorkload(),
    "desk_cli": CliWorkload("desk_cli", gen.desk_cli, pool=24, cycle_seconds=1.5,
                            trace_cycles=3),
}


def same_output(a, b) -> bool:
    if isinstance(a, str):
        return a == b
    import numpy as np

    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
