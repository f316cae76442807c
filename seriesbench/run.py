#!/usr/bin/env python3
"""Series benchmark: reuse vs. solve-from-scratch on generated MIP series.

Usage (from the repository root):

    python3 seriesbench/run.py --workload knap_rhs --seed 1 --seconds 50 --trace 0

One run generates the workload's series from --seed, then solves every
series through mipseries.harness.run_series on the deterministic clock in
two arms: `reuse` with every technique on, `scratch` with all five disabled
(the solve-from-scratch baseline).  Passes of every (series, arm) repeat
while --seconds allows; times are medians over the passes, the gated ones
in units of a reference kernel run before each solve (see bench.py).  Every
answer is checked against HiGHS (scipy) and check_feasibility, and the
passes must agree exactly.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and one traced pass and prints the per-layer metrics (spans around each
module's entry points, see tracing.py) with the tracing overhead.  The last
line of standard output is the JSON result; the full record, with the
environment and the batch-wise improvement table, goes to
seriesbench/out/.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads (OpenBLAS is multi-threaded by
# default); the setting is recorded in every result.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mipseries; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import mipseries in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mipseries" / "__init__.py").is_file():
        print(f"error: {SRC / 'mipseries'} not found; run from a mipseries checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from bench import run_benchmark
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_benchmark(WORKLOADS[args.workload], args, import_seconds, OUT, BLAS_ENV)


if __name__ == "__main__":
    sys.exit(main())
