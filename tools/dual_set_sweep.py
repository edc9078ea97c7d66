"""Tally what ``avar_dual_set`` answers and refuses over a seeded sweep, in one checkout or two.

    python3 tools/dual_set_sweep.py --root <checkout> [--root <other>] [--count 2000] [--seed 1]

Each checkout runs in its own worker process, which imports credalkit from
``<root>/src`` and draws ``--count`` inputs with ``numpy.random.default_rng(seed)``:
a set of 1-3 vertices on 2-6 outcomes and an AVaR level.  Six kinds take turns:

- ``plain``: Dirichlet vertices, level in [0.05, 0.5];
- ``tiny``: 30% of the coordinates scaled by 1e-9, then renormalized (ROADMAP D7);
- ``dirac``: one vertex a Dirac measure;
- ``collinear``: three vertices, the third within 1e-10 per coordinate of the midpoint of the
  first two;
- ``small-level``: plain vertices at a level drawn log-uniformly from [1e-300, 1e-9], where the
  caps ``vertex / level`` are huge but finite;
- ``overflow``: plain vertices at a level drawn log-uniformly from [1e-323, 1e-300], where the
  caps overflow for most draws (a level below about 1e-308) and the answer is the overflow face.

The worker prints one line per kind and outcome, ``kind answered N``,
``kind refused <error>: <message> N`` or ``kind input-refused <error>: <message> N``
(the input set's own construction refused; any other exception stops the
worker), and last one
``digest <sha256>`` of every answered vertex matrix, its input's index and its shape.
Two checkouts answer the same inputs with the same vertices, bit for bit, and refuse
the same inputs with the same messages exactly when they print the same lines; with
two, the tool prints the first checkout's lines and then either that the second
printed the same or a diff, and exits 1 on a diff.  Each worker's CPU seconds go
to stderr.  ``_ab`` pins one BLAS thread, so that floating-point reductions do
not depend on a thread count.
"""

from __future__ import annotations

import _ab  # first: it pins one BLAS thread

import argparse
import collections
import difflib
import hashlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

KINDS = ("plain", "tiny", "dirac", "collinear", "small-level", "overflow")


def draw(rng: np.random.Generator, kind: str):
    """One ``(rows, level)`` input of ``kind``."""
    n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    if kind == "collinear":
        k = 3
    V = rng.dirichlet(np.ones(n), size=k)
    if kind == "tiny":
        V[rng.random(V.shape) < 0.3] *= 1e-9
        V /= V.sum(axis=1, keepdims=True)
    elif kind == "dirac":
        V[int(rng.integers(k))] = np.eye(n)[int(rng.integers(n))]
    elif kind == "collinear":
        V[2] = 0.5 * (V[0] + V[1]) + 1e-10 * rng.uniform(-1.0, 1.0, size=n)
        V[2] = np.abs(V[2]) / np.abs(V[2]).sum()
    decades = {"small-level": (-300.0, -9.0), "overflow": (-323.0, -300.0)}.get(kind)
    level = rng.uniform(0.05, 0.5) if decades is None else 10.0 ** rng.uniform(*decades)
    return V, float(level)


def worker(root: Path, count: int, seed: int) -> int:
    """Print the tally lines and the digest of ``count`` inputs under the checkout ``root``."""
    sys.path.insert(0, str(root.resolve() / "src"))
    from credalkit import CredalkitError, CredalSet, OutcomeSpace, avar_dual_set

    rng = np.random.default_rng(seed)
    tally: collections.Counter = collections.Counter()
    digest = hashlib.sha256()
    t0 = time.process_time()
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        V, level = draw(rng, kind)
        try:
            S = CredalSet.from_rows(OutcomeSpace([f"w{j}" for j in range(V.shape[1])]), V)
        except CredalkitError as exc:
            tally[kind, f"input-refused {type(exc).__name__}: {exc}"] += 1
            continue
        try:
            D = avar_dual_set(S, level).matrix
        except CredalkitError as exc:
            tally[kind, f"refused {type(exc).__name__}: {exc}"] += 1
            continue
        tally[kind, "answered"] += 1
        digest.update(f"{i} {D.shape}".encode())
        digest.update(D.tobytes())
    print(f"# cpu_s {time.process_time() - t0:.2f}", file=sys.stderr)
    for kind in KINDS:
        for (k, outcome), n in sorted(tally.items()):
            if k == kind:
                print(f"{kind} {outcome} {n}")
    print(f"digest {digest.hexdigest()}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path, help="checkout (once or twice)")
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.count < 1:
        p.error("--count must be positive")
    if args.worker:
        return worker(args.worker, args.count, args.seed)
    roots = _ab.roots(p, args.root, "src/credalkit")
    outputs = []
    for label, root in zip("AB", roots):
        sys.stderr.write(f"# {label} = {root}\n")
        sys.stderr.flush()
        done = subprocess.run([sys.executable, __file__, "--worker", str(root),
                               "--count", str(args.count), "--seed", str(args.seed)],
                              stdout=subprocess.PIPE, text=True, check=True)
        outputs.append(done.stdout.splitlines())
    print(f"# {args.count} inputs, seed {args.seed}, one BLAS thread")
    print("\n".join(outputs[0]))
    if len(outputs) == 2:
        if outputs[0] == outputs[1]:
            print(f"# B prints the same {len(outputs[0])} lines")
        else:
            print("\n".join(difflib.unified_diff(outputs[0], outputs[1], "A", "B", lineterm="")))
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
