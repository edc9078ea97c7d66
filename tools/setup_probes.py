"""Time workload set-ups in fresh processes, one or two checkouts alternated.

    python3 tools/setup_probes.py --root <checkout> [--root <other>]
                                  [--workload tree_eval] [--seed 1] [--runs 12]

Each checkout's worker process (see ``_ab``) starts, for each run,
``<root>/perfbench/probe.py <workload> <seed>`` in a fresh process.  The
probe prints the raw set-up seconds and the seconds of the reference task
measured right after it; ``perfbench/run.py`` reports ``setup_s`` as raw
set-up times ``speed.NOMINAL_S`` over the reference (the rescaled figure).
The reference task takes under a millisecond, so the rescaling alone can
move ``setup_s`` by tens of percent; this tool prints the raw figures beside
it.  ``_ab`` pins one BLAS thread and alternates the runs.

``_ab.table`` prints three figures: the raw set-up seconds, the reference
milliseconds and the rescaled seconds.  Nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import _ab  # first: it pins one BLAS thread

import argparse
import json
import subprocess
import sys
from pathlib import Path


def worker(root: Path, workload: str, seed: int) -> int:
    """Answer each line on stdin with one fresh probe's
    ``{"raw": set-up seconds, "ref": reference ms, "rescaled": seconds}``."""
    root = root.resolve()
    sys.path.insert(0, str(root / "perfbench"))
    from speed import NOMINAL_S

    for _ in sys.stdin:
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "probe.py"), workload,
                               str(seed)], capture_output=True, text=True, timeout=300,
                              cwd=root, check=True)
        setup, ref = map(float, proc.stdout.split())
        print(json.dumps({"raw": setup, "ref": ref * 1e3, "rescaled": setup * NOMINAL_S / ref}),
              flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path, help="checkout (once or twice)")
    p.add_argument("--workload", default="tree_eval")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=12)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    if args.worker:
        return worker(args.worker, args.workload, args.seed)
    roots = _ab.roots(p, args.root, "perfbench/probe.py")
    extra = ["--workload", args.workload, "--seed", str(args.seed)]
    runs = list(_ab.alternate(__file__, roots, args.runs, extra))
    _ab.header(f"{args.workload} seed {args.seed}, {args.runs} fresh probe processes per "
               "checkout" + (", alternated" if len(roots) == 2 else "") + ", one BLAS thread",
               roots)
    for name, key in (("raw set-up s", "raw"), ("reference ms", "ref"), ("rescaled s", "rescaled")):
        _ab.table(name, _ab.figure(runs, key), 4)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
