"""Print the CPU time of whole passes over a CLI corpus, in one checkout or two.

    python3 tools/corpus_passes.py --root <checkout> [--root <other>]
        [--workload rectangularity|desk_cli] [--passes 20] [--cycles N] [--op OP[:FIELD] ...]

Each checkout's worker process (see ``_ab``) writes the seed-1 documents of
the workload through ``<root>/perfbench/workloads.py`` (importing credalkit
from ``<root>/src``) into a temporary directory, then, in each pass, runs
every document of the first ``--cycles`` cycles (all of the workload's pool
by default) through ``cli.main(["run", doc, "--out", report])``; with
``--op OP`` only the documents whose ``command.op`` is ``OP`` run, so that
one document class can be timed alone, and with ``--op OP:FIELD`` only
those whose ``command[FIELD]`` is also ``true``: ``--op avar-dual:vertices``
times the dual-set enumeration documents alone.  ``--op`` repeats: ``--op
separate --op conjugate`` times both classes together, as one pass.  Each
report goes to a new file, as in ``perfbench/run.py`` (rewriting one file
costs several times as much), and a pass's reports are removed after its
timing ends.  A pass and each document in it are timed with
``time.process_time``, so the figures are the CPU time of the documents
alone.  ``_ab`` pins one BLAS thread and alternates the passes.

``_ab.table`` prints two figures: the CPU seconds per pass, and each pass's
tail, the 11th-largest per-document CPU time in milliseconds, as
``perfbench/run.py`` takes ``op_tail_ms`` (the percentile that keeps ten
samples above it; the largest when a pass has at most ten documents).  The
exit codes of one pass must agree between the checkouts, or the comparison
stops.
"""

from __future__ import annotations

import _ab  # first: it pins one BLAS thread

import argparse
import io
import json
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("rectangularity", "desk_cli")
TAIL_BEYOND = 10  # as in perfbench/run.py: the tail percentile keeps this many samples above it


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
    roots = _ab.roots(p, args.root, "perfbench/workloads.py")
    extra = ["--workload", args.workload] + (["--cycles", str(args.cycles)] if args.cycles else [])
    extra += [arg for op in args.op or [] for arg in ("--op", op)]
    passes = []
    for i, answers in enumerate(_ab.alternate(__file__, roots, args.passes, extra)):
        if any(a["codes"] != answers[0]["codes"] for a in answers):
            raise SystemExit(f"pass {i}: the checkouts' exit codes differ")
        passes.append(answers)
    only = f", command.op {', '.join(args.op)}" if args.op else ""
    _ab.header(f"{args.workload}{only}, seed 1, {args.passes} alternated passes, one BLAS thread",
               roots)
    _ab.table("CPU seconds per pass", _ab.figure(passes, "cpu"), 4)
    _ab.table("tail: 11th-largest document CPU ms per pass", _ab.figure(passes, "tail", 1e3), 2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
