"""Run one credalkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rectangularity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed, seeded op list twice, untraced and then traced, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before anything imports numpy;
# child processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK, ROOT, SRC, WORKLOADS, WRONG  # noqa: E402

BENCH_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # one in this process, the rest in fresh probe processes
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "credalkit" / "__init__.py").is_file():
        print(f"credalkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work = BENCH_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, result)
    return 0


# ---------------------------------------------------------------- runs


def timed_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    wl = WORKLOADS[name]
    cycles = wl.inputs(seed, work)
    spec = wl.setup_inputs(seed)
    if "numpy" in sys.modules:
        raise RuntimeError("input generation must not import numpy; set-up times its import")
    t0 = time.perf_counter()
    state = wl.setup(spec)
    setups = [(time.perf_counter() - t0, speed.reference(speed.SETUP_REPEAT))]
    setups += [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    # whole cycles, as many as take ``seconds`` at the reference speed, so
    # every run has the same op mix and the same number of ops
    n_cycles = max(1, round(seconds / wl.cycle_seconds))
    outdir = work / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    log = speed.SpeedLog()
    with open(os.devnull, "w") as sink, redirect_stderr(sink):
        wl.run(state, cycles[0][0], outdir / "warmup.json")
        gc.collect()
        done, wall = run_cycles(wl, state, [cycles[c % len(cycles)] for c in range(n_cycles)],
                                outdir, log=log)
    t0 = time.perf_counter()
    outcomes = verify(wl, state, done)
    verify_s = time.perf_counter() - t0

    n = len(done)
    ok = sum(1 for o, _ in outcomes if o == OK)
    wall_times = sorted(d for _, _, _, d, _ in done)
    times = sorted(d * log.scale(t) for _, _, _, d, t in done)
    # the highest percentile with TAIL_BEYOND samples above it; the maximum
    # when a run is too short to have one
    tail = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (times[tail] * 1e3, "ms"),
        "ok_frac": (ok / n, "frac"),
        "setup_s": (statistics.median(s * speed.NOMINAL_S / r for s, r in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "metrics": metrics,
        "outcomes": outcomes,
        "ops": done,
        "extra": {
            "tail_percentile": 100.0 * (tail + 1) / n,
            "tail_samples": n,
            "cycles": n_cycles,
            "wall": {
                "phase_s": wall,
                "ops_per_s": ok / wall,
                "op_p50_ms": statistics.median(wall_times) * 1e3,
                "op_tail_ms": wall_times[tail] * 1e3,
                "setup_s": statistics.median(s for s, _ in setups),
            },
            "reference_ms": {
                "during_ops": [statistics.median(log.seconds) * 1e3, len(log.seconds)],
                "setup_samples": [r * 1e3 for _, r in setups],
            },
            "setup_samples_s": [s for s, _ in setups],
            "verify_s": verify_s,
        },
    }


def traced_run(name: str, seed: int, work: Path) -> dict:
    """The first ``trace_cycles`` cycles, untraced and then traced.

    The op list is fixed by the seed, not by a clock, so every counter
    repeats exactly; set-up is traced too, since it builds objects ops reuse.
    """
    from tracing import Tracer

    wl = WORKLOADS[name]
    cycles = wl.inputs(seed, work)
    ops = cycles[: wl.trace_cycles]
    spec = wl.setup_inputs(seed)
    state = wl.setup(spec)
    tracer = Tracer()
    outdir = work / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(os.devnull, "w") as sink, redirect_stderr(sink):
        wl.run(state, ops[0][0], outdir / "warmup.json")
        gc.collect()
        plain, plain_wall = run_cycles(wl, state, ops, outdir / "plain")
        tracer.install()
        try:
            tracer.op = "setup"
            traced_state = wl.setup(spec)
            traced, traced_wall = run_cycles(wl, traced_state, ops, outdir / "traced",
                                             tracer=tracer)
        finally:
            tracer.uninstall()
    outcomes = verify(wl, state, plain)
    same = all(
        code_a == code_b
        and (ref_a is None or workloads.same_output(wl.output(ref_a), wl.output(ref_b)))
        for (_, code_a, ref_a, *_), (_, code_b, ref_b, *_) in zip(plain, traced)
    )
    metrics = tracer.layer_metrics()
    metrics["bench.tracing_overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = results / f"{name}-seed{seed}-spans.jsonl"
    tracer.dump(spans)
    return {
        "metrics": metrics,
        "outcomes": outcomes,
        "ops": plain,
        "tracing_changed_results": not same,
        "extra": {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.spans),
                  "plain_wall_s": plain_wall, "traced_wall_s": traced_wall},
    }


def run_cycles(wl, state, cycles, outdir: Path, tracer=None, log=None):
    """Run the ops of the cycles one after another: a closed loop."""
    outdir.mkdir(parents=True, exist_ok=True)
    done = []
    start = time.perf_counter()
    for cycle in cycles:
        for op in cycle:
            if tracer is not None:
                tracer.op = len(done)
            if log is not None:
                log.sample()
            t0 = time.perf_counter()
            code, ref = wl.run(state, op, outdir / f"{len(done)}.json")
            done.append((op, code, ref, time.perf_counter() - t0, t0))
    return done, time.perf_counter() - start


def verify(wl, state, done) -> list[tuple[str, str]]:
    """(outcome, reason) per op; repeats of one input must give the same output."""
    first: dict = {}
    outcomes = []
    for op, code, ref, *_ in done:
        problem = ""
        if code == workloads.EXIT_OK:
            output = wl.output(ref)
            key = op.meta["key"]
            if key not in first:
                first[key] = (output, wl.check(state, op, output))
            seen, problem = first[key]
            if not problem and not workloads.same_output(seen, output):
                problem = "output differs from an earlier run of the same input"
        outcomes.append((workloads.classify(op.expect, code, problem), problem))
    return outcomes


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, reference seconds) from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


# ---------------------------------------------------------------- report


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is optional
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "credalkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def report(args, result: dict) -> None:
    outcomes = result["outcomes"]
    failed = sum(1 for o, _ in outcomes if o in (FAILED, WRONG))
    correct = (all(o != WRONG for o, _ in outcomes)
               and not result.get("tracing_changed_results", False))
    failures = {}
    for (op, code, *_), (outcome, problem) in zip(result["ops"], outcomes):
        if outcome != OK:
            label = f"{outcome} {op.kind}:{op.meta.get('op', '')}"
            label += f" exit {code}" + (f" ({op.defect})" if op.defect else "")
            label += f": {problem}" if problem else ""
            failures[label] = failures.get(label, 0) + 1
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": len(outcomes),
        "failed": failed, "failures": failures, "metrics": metrics,
        "environment": environment(), **result["extra"],
    }
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {len(outcomes)}  failed {failed}  correct {correct}")
    for label, count in sorted(failures.items()):
        print(f"  not ok: {count} x {label}")
    if "tail_percentile" in result["extra"]:
        print(f"  op_tail_ms is p{result['extra']['tail_percentile']:.1f} "
              f"of {result['extra']['tail_samples']} ops")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    summary = {name: r for name, r in rows}
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}.{k}": v for name, r in rows for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
