"""Time one set-up of a workload in a fresh process.

    python3 perfbench/probe.py <workload> <seed>

Inputs are generated first and are not timed; ``import credalkit`` and the
objects the workload's ops reuse are.  Prints the set-up seconds and then
the reference task's seconds measured right after it (see ``speed.py``).
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup_inputs(seed)
    t0 = time.perf_counter()
    wl.setup(inputs)
    setup = time.perf_counter() - t0
    print(setup, speed.reference(speed.SETUP_REPEAT))


if __name__ == "__main__":
    main()
