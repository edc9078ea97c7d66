"""Print a digest of every benchmark output of one checkout.

    python3 tools/report_digests.py --root <checkout> --seeds 0,1,2

The ``rectangularity`` and ``desk_cli`` scenario documents are generated
through ``<root>/perfbench/workloads.py`` and run in-process with
``cli.main(["run", doc, "--out", report])`` from ``<root>/src``; each prints
one ``workload seed key exit sha256`` line, the digest of the report, or of the
message a refused document writes to stderr when the exit code is not 0.  An
exit-0 document that holds a credal kernel or a tree then prints one ``workload
seed sets/key sha256`` line, the digest of the dtype, shape and bytes of every
credal kernel outcome's matrix (``K.table``), then of every tree node's
(``tree.ambiguity``), each in document order, as ``cli.parse_scenario`` reads
them at the default tolerance: it pins row order and dropped generators, which
reports need not show, and reads no level stack, so their form does not count.
For ``tree_eval`` each prebuilt tree first prints one
``tree_eval seed sets/tree sha256`` line, the digest of every node matrix and
of every level stack the scans read (``tree._groups``, ``:`` for the nodes of a
level that shares one set), so that a change to tree set-up shows; then every
level array that ``compose_risk`` / ``compose_sublinear`` returns prints one
line, keyed ``tree/measure/payoff/level`` (``-`` for a failed op).  Last, every
demo runs once at its default parameters through ``cli.main(["demo", name,
"--out", report])`` and prints one ``demo name exit sha256`` line; ``gwalk``
then runs twice more, with its call and its put payoff at strike 0.5 (``demo
gwalk payoff=call strike=0.5 exit sha256``).  Two checkouts give byte-identical
reports, set matrices, level arrays, demo reports and refusal messages exactly
when their outputs ``diff`` clean.
``_ab`` pins one BLAS thread, so that floating-point reductions do not depend
on a thread count.
"""

from __future__ import annotations

import _ab  # noqa: F401  (first: it pins one BLAS thread)

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path


def cli_digest(cli, argv, report: Path):
    """``(exit code, sha256)`` of ``cli.main([*argv, "--out", report])``: the digest of the
    report, or of what a refusal writes to stderr."""
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", str(report)])
        except Exception as exc:  # an escaping exception is exit 1, as in the benchmark
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    data = report.read_bytes() if code == 0 else err.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest()


def cli_lines(wl, seed: int, work: Path):
    cli = wl.setup(None)
    report = work / "report.json"
    for cycle in wl.inputs(seed, work):
        for op in cycle:
            code, digest = cli_digest(cli, ["run", op.meta["path"]], report)
            c, i = op.meta["key"]
            yield f"{wl.name} {seed} {c}-{i} {code} {digest}"
            if code == 0:
                with open(op.meta["path"], encoding="utf-8") as fh:
                    sc = cli.parse_scenario(fh.read())
                tables = [K.table for K in sc.kernels.values() if isinstance(K, cli.CredalKernel)]
                tables += [level for tree in sc.trees.values() for level in tree.ambiguity]
                if tables:
                    sets = digest_of(S.matrix for table in tables for S in table)
                    yield f"{wl.name} {seed} sets/{c}-{i} {sets}"


def digest_of(arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array of ``arrays``; ``None`` adds ``:``."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b":")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def tree_sets_digest(tree) -> str:
    """The digest of every node matrix of ``tree.ambiguity``, then of every level stack in
    ``tree._groups`` with its nodes (``:`` for the nodes of a level that shares one set)."""
    return digest_of([*(S.matrix for level in tree.ambiguity for S in level),
                      *(a for groups in tree._groups for nodes, V in groups
                        for a in (None if isinstance(nodes, slice) else nodes, V))])


def tree_lines(wl, seed: int, work: Path):
    import numpy as np

    state = wl.setup(wl.setup_inputs(seed))
    for name, tree in state["trees"].items():
        yield f"{wl.name} {seed} sets/{name} {tree_sets_digest(tree)}"
    seen = set()
    for cycle in wl.inputs(seed, work):
        for op in cycle:
            key = "/".join(map(str, op.meta["key"]))
            if key in seen:
                continue
            seen.add(key)
            code, levels = wl.run(state, op, None)
            for t, level in enumerate(levels or []):
                data = np.ascontiguousarray(level, dtype=float).tobytes()
                yield f"{wl.name} {seed} {key}/{t} {code} {hashlib.sha256(data).hexdigest()}"
            if code != 0:
                yield f"{wl.name} {seed} {key} {code} -"


# demo runs past the defaults: gwalk's payoffs that take a strike
STRIKE_RUNS = [("gwalk", "payoff=call", "strike=0.5"), ("gwalk", "payoff=put", "strike=0.5")]


def demo_lines(wl, work: Path):
    cli = wl.setup(None)
    for name, *params in [(name,) for name in cli.DEMOS] + STRIKE_RUNS:
        argv = ["demo", name, *(arg for p in params for arg in ("--param", p))]
        code, digest = cli_digest(cli, argv, work / "demo.json")
        yield f"demo {' '.join([name, *params])} {code} {digest}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", required=True, type=Path, help="checkout to digest")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    args = p.parse_args(argv)
    bench = args.root.resolve() / "perfbench"
    if not (bench / "workloads.py").is_file():
        print(f"no perfbench/workloads.py under {args.root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench))
    from workloads import WORKLOADS  # imports credalkit from <root>/src on set-up

    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        for seed in seeds:
            for name, lines in (("rectangularity", cli_lines), ("desk_cli", cli_lines),
                                ("tree_eval", tree_lines)):
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                with redirect_stderr(sink):
                    for line in lines(WORKLOADS[name], seed, work):
                        print(line, flush=True)
        with redirect_stderr(sink):
            for line in demo_lines(WORKLOADS["desk_cli"], Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
