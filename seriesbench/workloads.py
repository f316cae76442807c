"""Instance generators and the workload table of the series benchmark.

Every instance is derived from the benchmark seed: series s is centred on a
small seed-drawn perturbation of base instance s of a fixed family, and its
instances are further seed-drawn perturbations of that centre.  The program
under test only sees the written JSON files.

All series run on the deterministic clock (`det_work_per_second`), so the
scores, statuses and work counters repeat exactly; only wall times vary.
"""
from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mipseries.model import (Component, LinearRow, MipInstance, Sense,
                             generate_series_files, load_series, perturb_instance)

FAMILY_SEED = 2308
# Deterministic clock speed (work units per second) and perturbation size
# shared by every workload.  The centre of a series moves from the family
# base by a tenth of that, so each seed gets its own instance 0 while the
# difficulty of the family, and so the scores, stay steady between seeds.
WORK_PER_SECOND = 1e4
MAGNITUDE = 0.1
CENTRE_MAGNITUDE = 0.01


def knapsack(rng: np.random.Generator, n: int, m: int, name: str) -> MipInstance:
    """Binary multi-row knapsack, every row at half its total weight."""
    c = -rng.integers(5, 30, n).astype(float)
    A = rng.integers(1, 20, (m, n)).astype(float)
    b = (A.sum(axis=1) * 0.5).round()
    rows = tuple(LinearRow(f"r{i}", tuple((j, float(A[i, j])) for j in range(n)),
                           Sense.LE, float(b[i])) for i in range(m))
    return MipInstance(name, tuple(f"x{j}" for j in range(n)), c, np.zeros(n),
                       np.ones(n), frozenset(range(n)), rows)


def mixed_knapsack(rng: np.random.Generator, n: int, m: int, name: str) -> MipInstance:
    """Multi-row knapsack over variables in [0, 3], about 60% of them
    integer; each row's capacity is half its weight at mid-range."""
    upper = 3.0
    c = -rng.integers(5, 30, n).astype(float)
    A = rng.integers(1, 20, (m, n)).astype(float)
    A[rng.random((m, n)) < 0.3] = 0.0
    b = np.round(0.5 * A.sum(axis=1) * upper / 2)
    rows = tuple(LinearRow(f"r{i}", tuple((j, float(A[i, j])) for j in range(n) if A[i, j]),
                           Sense.LE, float(b[i])) for i in range(m))
    ints = frozenset(int(j) for j in np.nonzero(rng.random(n) < 0.6)[0])
    return MipInstance(name, tuple(f"x{j}" for j in range(n)), c, np.zeros(n),
                       np.full(n, upper), ints, rows)


@dataclass(frozen=True)
class Workload:
    """`series` series of `count` instances each, solved under `time_limit`
    deterministic seconds per instance."""

    name: str
    why: str
    make_base: Callable[[np.random.Generator, str], MipInstance]
    changing: tuple[str, ...]
    series: int
    count: int
    time_limit: float


# BENCHMARK.json lists knap_rhs and wide_long.  mixed_obj stays runnable by
# hand and in the self-checks: with a third workload, the runs a benchmark
# check makes (22 per workload at 50 seconds each) would no longer fit its
# time limit.
WORKLOADS = {
    "knap_rhs": Workload(
        name="knap_rhs",
        why="binary 25x5 knapsacks, RHS-only: many small node LPs and cut "
            "re-solves; pseudocost branching after instance 0, 10 hints per instance",
        make_base=lambda rng, name: knapsack(rng, 25, 5, name),
        changing=("RHS",), series=2, count=20, time_limit=0.06),
    "mixed_obj": Workload(
        name="mixed_obj",
        why="mixed-integer 28x14 tableau, objective-only: reliability branching "
            "keeps strong-branching LPs and the eliminate kernel busy; 5 hints",
        make_base=lambda rng, name: mixed_knapsack(rng, 28, 14, name),
        changing=("OBJECTIVE",), series=2, count=10, time_limit=0.12),
    "wide_long": Workload(
        name="wide_long",
        why="60 binaries x 2 rows over 40 instances: checkpoints, hint assembly, "
            "turn-off and tuner post-exploration, colsub kernel",
        make_base=lambda rng, name: knapsack(rng, 60, 2, name),
        changing=("RHS",), series=1, count=40, time_limit=0.06),
}


def _tag(workload: Workload) -> int:
    return sum(ord(ch) << (8 * (k % 4)) for k, ch in enumerate(workload.name))


def series_seed(seed: int, workload: Workload, index: int) -> int:
    """Independent non-negative seed per (benchmark seed, workload, series)."""
    return int(np.random.SeedSequence([seed, _tag(workload), index]).generate_state(1)[0])


def write_series(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Generate and write every series of the workload; returns the
    manifest paths.  `out_dir` is emptied first.

    Series s is centred on a perturbation of the family base instance s
    (drawn from FAMILY_SEED), so every instance depends on `seed` while the
    difficulty of the family stays put from seed to seed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    kinds = frozenset(Component(k) for k in workload.changing)
    manifests = []
    for s in range(workload.series):
        base = workload.make_base(
            np.random.default_rng([FAMILY_SEED, _tag(workload), s]), f"{workload.name}{s}")
        sub = series_seed(seed, workload, s)
        centre = perturb_instance(base, kinds, np.random.default_rng(sub),
                                  CENTRE_MAGNITUDE, base.name)
        manifests.append(generate_series_files(
            centre, kinds, workload.count, sub, MAGNITUDE,
            out_dir / f"series{s}", time_limit=workload.time_limit,
            series_name=f"{workload.name}_{s}"))
    return manifests


def load_manifests(paths):
    return [load_series(p) for p in paths]
