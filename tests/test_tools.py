"""``tools/_ab.py``, the A/B harness the timing tools share."""

import argparse
import os
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# _ab pins one BLAS thread in os.environ on import; the suite's subprocess tests must not inherit it
_saved = os.environ.copy()
sys.path.insert(0, str(TOOLS))
try:
    import _ab
finally:
    sys.path.remove(str(TOOLS))
    os.environ.clear()
    os.environ.update(_saved)

WORKER = '''
import json, sys
from pathlib import Path

root = sys.argv[sys.argv.index("--worker") + 1]
log = Path(__file__).with_name("asked")
for n, _ in enumerate(sys.stdin, 1):
    with open(log, "a") as fh:
        fh.write(root + "\\n")
    print(json.dumps({"root": root, "pass": n, "extra": sys.argv[3:]}), flush=True)
'''


def test_alternate_asks_a_first_on_even_passes(tmp_path):
    script = tmp_path / "worker.py"
    script.write_text(WORKER)
    answers = list(_ab.alternate(script, ["A", "B"], 4, ["--seed", "1"]))
    assert answers == [[{"root": r, "pass": n, "extra": ["--seed", "1"]} for r in "AB"]
                       for n in range(1, 5)]
    assert (tmp_path / "asked").read_text().split() == list("ABBAABBA")


def test_table_reads_a_over_b(capsys):
    _ab.table("figure", [[1.0, 2.0, 3.0], [2.0, 1.0, 2.0]], 2)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# figure"
    assert out[1].split() == ["q1", "median", "q3"]
    assert out[2].split() == ["A", "1.50", "2.00", "2.50"]
    assert out[3].split() == ["B", "1.50", "2.00", "2.00"]
    assert out[4].split() == ["A/B", "1.000", "1.500", "1.750"]
    assert out[5:] == ["# A/B by pass: 0.500 2.000 1.500", "# B took less in 2 of 3 passes"]


def test_roots_needs_one_or_two_checkouts_with_the_file(tmp_path, capsys):
    a, b, bare = tmp_path / "a", tmp_path / "b", tmp_path / "bare"
    for root in (a, b):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "probe.py").write_text("")
    bare.mkdir()
    parser = argparse.ArgumentParser()
    assert _ab.roots(parser, [a], "perfbench/probe.py") == [a]
    assert _ab.roots(parser, [a, b], "perfbench/probe.py") == [a, b]
    for given, message in ((None, "give --root once or twice"),
                           ([a, b, a], "give --root once or twice"),
                           ([a, bare], f"no perfbench/probe.py under {bare}")):
        with pytest.raises(SystemExit):
            _ab.roots(parser, given, "perfbench/probe.py")
        assert message in capsys.readouterr().err
