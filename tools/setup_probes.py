"""Time workload set-ups in fresh processes, one or two checkouts alternated.

    python3 tools/setup_probes.py --root <checkout> [--root <other>]
                                  [--workload tree_eval] [--seed 1] [--runs 12]

Each run starts ``<root>/perfbench/probe.py <workload> <seed>`` in a fresh
process with one BLAS thread.  The probe prints the raw set-up seconds and the
seconds of the reference task measured right after it; ``perfbench/run.py``
reports ``setup_s`` as raw set-up times ``speed.NOMINAL_S`` over the reference
(the rescaled figure).  The reference task takes under a millisecond, so the
rescaling alone can move ``setup_s`` by tens of percent; this tool prints the
raw figures beside it.  With two checkouts, run ``i`` of each forms a pair,
started A first on even ``i`` and B first on odd ``i``.

Per checkout it prints the quartiles of the raw set-up seconds, the reference
milliseconds and the rescaled seconds; with two checkouts also each pair's
ratios B/A and the number of pairs B wins (a lower time).  Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def probe(root: Path, workload: str, seed: int) -> tuple[float, float]:
    """(raw set-up seconds, reference seconds) of one fresh probe process."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "probe.py"), workload,
                           str(seed)], capture_output=True, text=True, timeout=300, env=env,
                          cwd=root, check=True)
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


def nominal_seconds(root: Path) -> float:
    """``speed.NOMINAL_S`` as the checkout's ``perfbench/speed.py`` sets it."""
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import speed
    finally:
        sys.path.pop(0)
    return speed.NOMINAL_S


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path, help="checkout (once or twice)")
    p.add_argument("--workload", default="tree_eval")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=12)
    args = p.parse_args(argv)
    roots = [root.resolve() for root in args.root or []]
    if len(roots) not in (1, 2):
        p.error("give --root once or twice")
    if args.runs < 2:
        p.error("--runs must be at least 2")
    for root in roots:
        if not (root / "perfbench" / "probe.py").is_file():
            p.error(f"no perfbench/probe.py under {root}")
    nominal = nominal_seconds(roots[0])
    runs: list[list[tuple[float, float]]] = [[] for _ in roots]
    for i in range(args.runs):
        for r in (range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))):
            runs[r].append(probe(roots[r], args.workload, args.seed))
    figures = [{"raw set-up s": [s for s, _ in rs],
                "reference ms": [ref * 1e3 for _, ref in rs],
                "rescaled s": [s * nominal / ref for s, ref in rs]} for rs in runs]
    print(f"# {args.workload} seed {args.seed}, {args.runs} fresh probe processes per checkout"
          + (", alternated" if len(roots) == 2 else "") + ", one BLAS thread")
    for label, root in zip("AB", roots):
        print(f"# {label} = {root}")
    print(f"{'figure':<14} {'checkout':<8} {'q1':>9} {'median':>9} {'q3':>9}")
    for name in figures[0]:
        for label, fig in zip("AB", figures):
            q1, med, q3 = quartiles(fig[name])
            print(f"{name:<14} {label:<8} {q1:9.4f} {med:9.4f} {q3:9.4f}")
    if len(roots) == 2:
        for name in ("raw set-up s", "rescaled s"):
            ratios = [b / a for a, b in zip(figures[0][name], figures[1][name])]
            won = sum(r < 1.0 for r in ratios)
            q1, med, q3 = quartiles(ratios)
            print(f"# {name}: B/A per pair " + " ".join(f"{r:.3f}" for r in ratios))
            print(f"#   quartiles {q1:.3f} {med:.3f} {q3:.3f}; B won {won} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
