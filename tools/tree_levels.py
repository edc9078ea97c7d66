"""Print the CPU time of each tree level of the ``tree_eval`` backward induction.

    python3 tools/tree_levels.py --root <checkout> [--root <other>]

Each checkout runs in its own worker process, which builds the ``tree_eval``
trees, payoffs and measures of seed 1 through
``<root>/perfbench/workloads.py`` (importing credalkit from ``<root>/src``)
and then, in each of 10 passes, runs every op of the workload's cycles:
``compose_risk`` for the AVaR and four-segment losses, ``compose_sublinear``
for the worst-case expectation.  The step of each level is timed with
``time.process_time`` by wrapping the step function that ``risk._backward``
is given, so the figures are CPU time inside the level steps only.  Passes
alternate between the checkouts, each pass starting with the other one, and
every process uses one BLAS thread.

Per tree, measure and level the table gives the median over passes of the
mean CPU time of one level step, in ms, then the median over passes of the
mean time of a whole op (``all``), and with two checkouts the ratio of the
first median to the second, then the quartiles of the per-pass ratios (pass
``i`` of A over pass ``i`` of B), whose spread shows how far one invocation
can be trusted.
"""

from __future__ import annotations

import os

# One BLAS thread before numpy loads, as in perfbench/run.py; the workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

PASSES = 10


def measure_name(m: dict) -> str:
    if m["kind"] == "avar":
        return f"avar {m['level']}"
    if m["kind"] == "sublinear":
        return "sublinear"
    return f"piecewise {len(m['slopes'])} segments"


def timed_backward(backward, times: dict, key: str):
    """``backward`` with each level's step calls timed into ``times[key/level]``."""
    def run(tree, X, step_values):
        b, level = tree.step_space.size, [tree.horizon - 1, 0]  # level, nodes stepped in it

        def step(V, children):
            t0 = time.process_time()
            out = step_values(V, children)
            times[f"{key}/{level[0]}/{b ** level[0]}"] += time.process_time() - t0
            level[1] += len(children)
            if level[1] == b ** level[0]:
                level[:] = [level[0] - 1, 0]
            return out

        return backward(tree, X, step)

    return run


def worker(root: Path, seed: int = 1) -> int:
    """Answer each line on stdin with one pass's ``{"tree/measure/level": seconds}``."""
    sys.path.insert(0, str(root.resolve() / "perfbench"))
    from workloads import WORKLOADS

    wl = WORKLOADS["tree_eval"]
    state = wl.setup(wl.setup_inputs(seed))
    risk = state["ck"].risk
    backward = risk._backward
    names = [measure_name(m) for m in state["spec"]["measures"]]
    ops = [op for cycle in wl.inputs(seed, None) for op in cycle]
    for _ in sys.stdin:
        times: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        for op in ops:
            key = f"{op.meta['tree']}/{names[op.meta['measure']]}"
            risk._backward = timed_backward(backward, times, key)
            t0 = time.process_time()
            code, _ = wl.run(state, op, None)
            times[f"{key}/all/"] += time.process_time() - t0
            counts[key] += 1
            if code != 0:
                raise SystemExit(f"{key} exited {code}")
        risk._backward = backward
        mean = {k: s / counts[k.rsplit("/", 2)[0]] for k, s in times.items()}
        print(json.dumps(mean), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path, help="checkout (once or twice)")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    roots = args.root or []
    if len(roots) not in (1, 2):
        p.error("give --root once or twice")
    for root in roots:
        if not (root / "perfbench" / "workloads.py").is_file():
            p.error(f"no perfbench/workloads.py under {root}")
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(root)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for root in roots]
    passes: list[list[dict]] = [[] for _ in roots]
    try:
        for i in range(PASSES):
            for w in (range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))):
                workers[w].stdin.write("pass\n")
                workers[w].stdin.flush()
                line = workers[w].stdout.readline()
                if not line:
                    raise SystemExit(f"the worker for {roots[w]} stopped")
                passes[w].append(json.loads(line))
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    medians = [{k: statistics.median(run[k] for run in runs) * 1e3 for k in runs[0]}
               for runs in passes]
    print(f"# seed 1, {PASSES} alternated passes, one BLAS thread; "
          "median over passes of the mean CPU ms per level step (all: per op)"
          + ("; quartiles of the per-pass A/B ratios" if len(roots) == 2 else ""))
    for label, root in zip("AB", roots):
        print(f"# {label} = {root}")
    print(f"{'tree':<9} {'measure':<22} {'level':>5} {'nodes':>6} "
          + " ".join(f"{label + ' ms':>9}" for label in "AB"[:len(roots)])
          + ("    A/B  A/B q1  A/B q3" if len(roots) == 2 else ""))
    order = sorted(medians[0], key=lambda k: (k.rsplit("/", 2)[0], k.endswith("/all/"),
                                              int(k.split("/")[2]) if k[-1] != "/" else 0))
    for key in order:
        tree, measure, level, nodes = key.split("/")
        row = [m[key] for m in medians]
        ratios = [a[key] / b[key] for a, b in zip(*passes)] if len(row) == 2 else []
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if ratios else (0, 0, 0)
        print(f"{tree:<9} {measure:<22} {level:>5} {nodes:>6} "
              + " ".join(f"{v:9.3f}" for v in row)
              + (f" {row[0] / row[1]:6.2f} {q1:7.2f} {q3:7.2f}" if ratios else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
