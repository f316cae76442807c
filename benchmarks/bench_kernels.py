#!/usr/bin/env python3
"""Time the simplex kernel backends.

Times raw kernel operations, full LP solves and a branch-and-bound solve on
the numpy backend and, when the extension is built, on the compiled one.
Bit-identity of the backends is checked by tests/test_kernels.py; the series
benchmark (seriesbench/) gives end-to-end numbers.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from mipseries.kernels import HAVE_COMPILED, get_kernels
from mipseries.lp import LpProblem, solve_lp
from mipseries.model import LinearRow, MipInstance, Sense
from mipseries.solver import SolverConfig, solve


def _random_instance(rng, n, m, integer=True):
    c = rng.integers(-9, 10, n).astype(float)
    A = rng.integers(-4, 5, (m, n)).astype(float)
    A[rng.random((m, n)) < 0.2] = 0.0
    z = rng.integers(0, 3, n).astype(float)
    rows = []
    for i in range(m):
        act = float(A[i] @ z)
        rows.append(LinearRow(f"r{i}", tuple((j, A[i, j]) for j in range(n) if A[i, j]),
                              Sense.LE, act + float(rng.integers(1, 5))))
    ints = frozenset(range(n)) if integer else frozenset()
    return MipInstance("bench", tuple(f"x{j}" for j in range(n)), c,
                       np.zeros(n), np.full(n, 3.0), ints, tuple(rows))


def bench_eliminate(kernels, reps=200, m=60, ncol=200, seed=0):
    rng = np.random.default_rng(seed)
    tab0 = rng.standard_normal((m, ncol))
    rhs0 = rng.standard_normal(m)
    start = time.perf_counter()
    for rep in range(reps):
        kernels.eliminate(tab0.copy(), rhs0.copy(), rep % m, rep % ncol)
    return time.perf_counter() - start


def bench_lp(kernels, reps=60, seed=1):
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for rep in range(reps):
        solve_lp(LpProblem(_random_instance(rng, n=40, m=25, integer=False)),
                 kernels=kernels)
    return time.perf_counter() - start


def bench_bb(kernels_name, reps=8, seed=2):
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(det_work_per_second=1e9, kernels=kernels_name)
    start = time.perf_counter()
    for rep in range(reps):
        solve(_random_instance(rng, n=12, m=8), cfg, 1e6)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer repetitions")
    args = parser.parse_args()

    scale = 0.25 if args.quick else 1.0
    names = ["compiled", "python"] if HAVE_COMPILED else ["python"]
    if not HAVE_COMPILED:
        print("compiled kernels are not built; timing the numpy backend only")

    rows = [
        ("pivot elimination", lambda k: bench_eliminate(get_kernels(k), reps=int(200 * scale))),
        ("lp solves", lambda k: bench_lp(get_kernels(k), reps=int(60 * scale) or 1)),
        ("branch and bound", lambda k: bench_bb(k, reps=int(8 * scale) or 1)),
    ]
    print(f"{'benchmark':<22}" + "".join(f"{name:>12}" for name in names))
    for label, run in rows:
        print(f"{label:<22}" + "".join(f"{run(name):>11.4f}s" for name in names))


if __name__ == "__main__":
    main()
