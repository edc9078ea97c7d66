"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

They run three traced passes per workload-sized op list (about two minutes
on two cores), so the file is named outside pytest's default ``test_*``
pattern and stays out of the repository's unit-test run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import OK, WORKLOADS  # noqa: E402

REPEATED = ("lp.calls", "lp.pivots", "lp.pivot_flops", "credal.canon_calls",
            "credal.canon_generators_in", "credal.canon_dropped",
            "credal.canon_lp_calls", "risk.oce_calls", "risk.backward_nodes",
            "spaces.constructions", "serialize.parse_bytes", "serialize.render_bytes")


def _docs(cycles) -> str:
    return json.dumps([[(op.kind, op.expect, op.doc) for op in cycle] for cycle in cycles])


def test_seed_gives_identical_inputs():
    assert _docs(gen.rectangularity(7, 2)) == _docs(gen.rectangularity(7, 2))
    assert _docs(gen.desk_cli(7, 2)) == _docs(gen.desk_cli(7, 2))
    assert gen.tree_eval(7) == gen.tree_eval(7)
    assert _docs(gen.rectangularity(7, 1)) != _docs(gen.rectangularity(8, 1))
    assert _docs(gen.desk_cli(7, 1)) != _docs(gen.desk_cli(8, 1))
    assert gen.tree_eval(7) != gen.tree_eval(8)


@pytest.fixture
def work():
    path = run.BENCH_DIR / f"selftest-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat_and_tracing_changes_no_result(name, work):
    first = run.traced_run(name, 3, work / "a")
    second = run.traced_run(name, 3, work / "b")
    for result in (first, second):
        assert not result["tracing_changed_results"]
        assert all(outcome == OK or op.defect
                   for (outcome, _), (op, *_rest) in zip(result["outcomes"], result["ops"]))
    for key in REPEATED:
        assert first["metrics"][key][0] == second["metrics"][key][0], key
    assert first["metrics"]["lp.calls"][0] > 0
    assert first["metrics"]["spaces.constructions"][0] > 0
