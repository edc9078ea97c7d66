"""Print the CPU time of whole passes over a CLI corpus, in one checkout or two.

    python3 tools/corpus_passes.py --root <checkout> [--root <other>]
        [--workload rectangularity|desk_cli] [--passes 20] [--cycles N] [--op OP[:FIELD] ...]

Each checkout runs in its own worker process, which writes the seed-1
documents of the workload through ``<root>/perfbench/workloads.py``
(importing credalkit from ``<root>/src``) into a temporary directory, then,
in each pass, runs every document of the first ``--cycles`` cycles (all of
the workload's pool by default) through
``cli.main(["run", doc, "--out", report])``; with ``--op OP`` only the
documents whose ``command.op`` is ``OP`` run, so that one document class
can be timed alone, and with ``--op OP:FIELD`` only those whose
``command[FIELD]`` is also ``true``: ``--op avar-dual:vertices`` times the
dual-set enumeration documents alone.  ``--op`` repeats: ``--op separate
--op conjugate`` times both classes together, as one pass.  Each report
goes to a new file, as in ``perfbench/run.py`` (rewriting one file costs
several times as much), and a
pass's reports are removed after its timing ends.  A pass and each document in
it are timed with ``time.process_time``, so the figures are the CPU time of the
documents alone.  Passes alternate between the checkouts, each pass starting
with the other one, and every process uses one BLAS thread.

Two tables follow: the CPU seconds per pass, and each pass's tail, the
11th-largest per-document CPU time in milliseconds, as ``perfbench/run.py``
takes ``op_tail_ms`` (the percentile that keeps ten samples above it; the
largest when a pass has at most ten documents).  For each checkout a table
gives the median and the quartiles; with two checkouts it then gives the
quartiles of the per-pass ratios A/B (pass ``i`` of A over pass ``i`` of B),
the ratios themselves, and the number of passes in which B took less time.
The exit codes of one pass must agree between the checkouts, or the
comparison stops.
"""

from __future__ import annotations

import os

# One BLAS thread before numpy loads, as in perfbench/run.py; the workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("rectangularity", "desk_cli")
TAIL_BEYOND = 10  # as in perfbench/run.py: the tail percentile keeps this many samples above it


def quartiles(values) -> list:
    """``[q1, median, q3]`` of ``values`` (inclusive method; one value repeats)."""
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def table(title: str, runs: list, digits: int) -> None:
    """Quartiles of each checkout's per-pass ``runs``; with two, those of the ratios A/B too."""
    print(f"# {title}")
    print(f"{'':<6} {'q1':>8} {'median':>8} {'q3':>8}")
    for label, values in zip("AB", runs):
        print(f"{label:<6} " + " ".join(f"{v:8.{digits}f}" for v in quartiles(values)))
    if len(runs) == 2:
        ratios = [a / b for a, b in zip(*runs)]
        print(f"{'A/B':<6} " + " ".join(f"{v:8.3f}" for v in quartiles(ratios)))
        print("# A/B by pass: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"# B took less in {sum(r > 1.0 for r in ratios)} of {len(ratios)} passes")


def selected(meta: dict, ops: list | None) -> bool:
    """Whether the document of a workload op's ``meta`` matches an ``--op`` filter ``OP[:FIELD]``."""
    if ops is None:
        return True
    for op in ops:
        name, _, field = op.partition(":")
        if meta["op"] != name:
            continue
        if not field:
            return True
        with open(meta["path"]) as fh:
            if json.load(fh)["command"].get(field) is True:
                return True
    return False


def worker(root: Path, workload: str, cycles: int | None, ops: list | None,
           seed: int = 1) -> int:
    """Answer each line on stdin with one pass's
    ``{"cpu": seconds, "tail": seconds, "codes": [exit codes]}``."""
    sys.path.insert(0, str(root.resolve() / "perfbench"))
    from workloads import WORKLOADS as ALL

    wl = ALL[workload]
    cli = wl.setup(None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = [op.meta["path"] for cycle in wl.inputs(seed, work)[:cycles] for op in cycle
                 if selected(op.meta, ops)]
        if not paths:
            raise SystemExit(f"no {workload} document matches --op {' or '.join(ops)}")
        reports = work / "reports"
        protocol = sys.stdout
        for _ in sys.stdin:
            codes, times = [], []
            reports.mkdir()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t0 = time.process_time()
                for n, path in enumerate(paths):
                    t = time.process_time()
                    try:
                        codes.append(cli.main(["run", path, "--out", str(reports / f"{n}.json")]))
                    except Exception:  # an escaping exception is exit 1, as in the benchmark
                        codes.append(1)
                    times.append(time.process_time() - t)
                cpu = time.process_time() - t0
            shutil.rmtree(reports)
            times.sort()
            tail = times[len(times) - TAIL_BEYOND - 1 if len(times) > TAIL_BEYOND else -1]
            print(json.dumps({"cpu": cpu, "tail": tail, "codes": codes}), file=protocol, flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path, help="checkout (once or twice)")
    p.add_argument("--workload", choices=WORKLOADS, default="rectangularity")
    p.add_argument("--passes", type=int, default=20)
    p.add_argument("--cycles", type=int, default=None, help="cycles per pass (default: all)")
    p.add_argument("--op", action="append", help="run only the documents with this "
                   "command.op, and with command[FIELD] true for OP:FIELD (repeatable)")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.passes < 1 or (args.cycles is not None and args.cycles < 1):
        p.error("--passes and --cycles must be positive")
    if args.worker:
        return worker(args.worker, args.workload, args.cycles, args.op)
    roots = args.root or []
    if len(roots) not in (1, 2):
        p.error("give --root once or twice")
    for root in roots:
        if not (root / "perfbench" / "workloads.py").is_file():
            p.error(f"no perfbench/workloads.py under {root}")
    extra = ["--workload", args.workload] + (["--cycles", str(args.cycles)] if args.cycles else [])
    extra += [arg for op in args.op or [] for arg in ("--op", op)]
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(root), *extra],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for root in roots]
    cpu: list[list[float]] = [[] for _ in roots]
    tail: list[list[float]] = [[] for _ in roots]
    try:
        for i in range(args.passes):
            codes = []
            for w in (range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))):
                workers[w].stdin.write("pass\n")
                workers[w].stdin.flush()
                line = workers[w].stdout.readline()
                if not line:
                    raise SystemExit(f"the worker for {roots[w]} stopped")
                answer = json.loads(line)
                cpu[w].append(answer["cpu"])
                tail[w].append(answer["tail"] * 1e3)
                codes.append(answer["codes"])
            if any(c != codes[0] for c in codes):
                raise SystemExit(f"pass {i}: the checkouts' exit codes differ")
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    only = f", command.op {', '.join(args.op)}" if args.op else ""
    print(f"# {args.workload}{only}, seed 1, {args.passes} alternated passes, one BLAS thread")
    for label, root in zip("AB", roots):
        print(f"# {label} = {root}")
    table("CPU seconds per pass", cpu, 4)
    table("tail: 11th-largest document CPU ms per pass", tail, 2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
