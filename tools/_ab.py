"""The A/B harness the tools share; each tool imports it before anything else.

On import it pins one BLAS thread, as ``perfbench/run.py`` does, so that
timings and floating-point reductions do not depend on a thread count; the
tools' worker processes inherit the pin.  ``roots`` checks the checkouts a
tool is given, ``alternate`` asks one worker process per checkout for one
pass at a time, A first on even passes and B first on odd ones, and ``table``
prints one figure: each checkout's quartiles over the passes and, with two
checkouts, the quartiles of the per-pass ratios A/B (pass ``i`` of A over
pass ``i`` of B), the ratios themselves and the number of passes in which B
took less.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def roots(parser, given: list | None, needed: str) -> list[Path]:
    """The one or two checkouts ``--root`` gave, each holding the file ``needed``; any other
    count, or a checkout without it, is a ``parser.error``."""
    given = given or []
    if len(given) not in (1, 2):
        parser.error("give --root once or twice")
    for root in given:
        if not (root / needed).exists():
            parser.error(f"no {needed} under {root}")
    return given


def header(line: str, checkouts: list) -> None:
    """Print ``# line``, then which checkout is A and which is B."""
    print(f"# {line}")
    for label, root in zip("AB", checkouts):
        print(f"# {label} = {root}")


def alternate(script, checkouts: list, passes: int, extra=()):
    """Start ``script --worker <root> *extra`` once per checkout and yield, for each of
    ``passes`` passes, the workers' JSON answers in checkout order.  A worker answers each
    line on its stdin with one line; pass ``i`` asks A first when ``i`` is even, B first
    when odd."""
    workers = [subprocess.Popen([sys.executable, str(script), "--worker", str(root), *extra],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for root in checkouts]
    try:
        for i in range(passes):
            answers = [None] * len(workers)
            for w in range(len(workers))[:: 1 if i % 2 == 0 else -1]:
                workers[w].stdin.write("pass\n")
                workers[w].stdin.flush()
                line = workers[w].stdout.readline()
                if not line:
                    raise SystemExit(f"the worker for {checkouts[w]} stopped")
                answers[w] = json.loads(line)
            yield answers
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()


def figure(passes: list, key: str, scale: float = 1.0) -> list:
    """Each checkout's per-pass ``answer[key] * scale`` from the passes ``alternate`` yielded."""
    return [[answers[w][key] * scale for answers in passes] for w in range(len(passes[0]))]


def quartiles(values) -> list:
    """``[q1, median, q3]`` of ``values`` (inclusive method; one value repeats)."""
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def table(title: str, runs: list, digits: int) -> None:
    """Quartiles of each checkout's per-pass ``runs``; with two, those of the ratios A/B, the
    ratios, and in how many passes B took less."""
    print(f"# {title}")
    print(f"{'':<6} {'q1':>8} {'median':>8} {'q3':>8}")
    for label, values in zip("AB", runs):
        print(f"{label:<6} " + " ".join(f"{v:8.{digits}f}" for v in quartiles(values)))
    if len(runs) == 2:
        ratios = [a / b for a, b in zip(*runs)]
        print(f"{'A/B':<6} " + " ".join(f"{v:8.3f}" for v in quartiles(ratios)))
        print("# A/B by pass: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"# B took less in {sum(r > 1.0 for r in ratios)} of {len(ratios)} passes")
