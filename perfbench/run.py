#!/usr/bin/env python3
"""ctalign benchmark: time, accuracy and trust of the estimators on three
workloads (fan-1024, cone-128, cli-256), and a traced run that breaks the
time down by layer.

    python3 perfbench/run.py --workload fan-1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from a source checkout: it imports ctalign from src/ next to this
directory, uses numpy and the standard library only, and runs as one process
on one CPU, with BLAS/OpenMP pinned to one thread.  The lines it prints name every
metric with its value, unit and sample count; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}, whose metrics are the
end-to-end ones (--trace 0) or the per-layer ones (--trace 1).  The run's
environment, every estimate and, when traced, every span are written to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.  See bench.py for
what is measured and checked.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main():
    if not (ROOT / "src" / "ctalign" / "__init__.py").is_file():
        print(f"error: no ctalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # must precede the first numpy import
    # One fixed CPU: on a shared host the CPUs can differ in speed (measured up
    # to a quarter apart on a 2-CPU host), and runs placed at random spread.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
