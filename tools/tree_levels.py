"""Print the CPU time of each tree level of the ``tree_eval`` backward induction.

    python3 tools/tree_levels.py --root <checkout> [--root <other>]

Each checkout's worker process (see ``_ab``) builds the ``tree_eval`` trees,
payoffs and measures of seed 1 through ``<root>/perfbench/workloads.py``
(importing credalkit from ``<root>/src``) and then, in each of 10 passes,
runs every op of the workload's cycles: ``compose_risk`` for the AVaR and
four-segment losses, ``compose_sublinear`` for the worst-case expectation.
The step of each level is timed with ``time.process_time`` by wrapping the
step function that ``risk._backward`` is given, so the figures are CPU time
inside the level steps only.  ``_ab`` pins one BLAS thread and alternates
the passes.

Per tree, measure and level, ``_ab.table`` prints the mean CPU time of one
level step in each pass, in ms, and then per tree and measure the mean time
of a whole op (``all``); with two checkouts the spread of the per-pass
ratios shows how far one invocation can be trusted.
"""

from __future__ import annotations

import _ab  # first: it pins one BLAS thread

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

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
    roots = _ab.roots(p, args.root, "perfbench/workloads.py")
    passes = list(_ab.alternate(__file__, roots, PASSES))
    _ab.header(f"seed 1, {PASSES} alternated passes, one BLAS thread; "
               "mean CPU ms per level step (all: per op)", roots)
    order = sorted(passes[0][0], key=lambda k: (k.rsplit("/", 2)[0], k.endswith("/all/"),
                                                int(k.split("/")[2]) if k[-1] != "/" else 0))
    for key in order:
        tree, measure, level, nodes = key.split("/")
        where = f"level {level}, {nodes} nodes" if nodes else "all"
        _ab.table(f"{tree} {measure} {where}", _ab.figure(passes, key, 1e3), 3)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
