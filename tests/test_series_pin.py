"""Determinism pin: a small series run end to end through `run_series`.

Two arms (every technique on, and all five off) run a 10-instance RHS and
objective series of mixed-integer knapsacks with checkpoints, on the
deterministic clock and under a time limit that cuts some solves short.
The sha256 of `report.csv`, `summary.json` and the final checkpoint are
pinned, so a change that alters any pivot, node, cut, score or checkpoint
byte on this path fails here.  The digests depend on the platform's
floating-point arithmetic and were recorded on x86-64 Linux.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mipseries.harness import (RunConfig, run_series, write_report_csv,
                               write_report_summary)
from mipseries.model import (LinearRow, MipInstance, Sense, generate_series_files,
                             load_series)

ALL_OFF = frozenset({"hints", "history", "sb", "tuning", "turnoff"})

PINNED = {
    "reuse": {
        "report.csv": "e09db22c44c6b8daebcc5df068b7a9916fcf83efaeb2f22e762880174581c4a8",
        "summary.json": "b0223ca64e89794577307da31faee955a627ae478743a31f0538c8004464e44c",
        "checkpoint.json": "da4696657dae14d9ac442c516e1bfb198c2b76fe5b34c6ef95c23ab85cdcf735",
    },
    "scratch": {
        "report.csv": "a0bc78fe9bc8b502549ed85c9f6b827101465777f46ea4aa61c33f8825b4a4ef",
        "summary.json": "e3bcba1a4ebce963295076a160b0c59b54267a42173be73520d0d5e77f5367a6",
        "checkpoint.json": "dbd00273be1fbec553342fa4a99a7e2a870b0da45e75158f1deafdd330170805",
    },
}


def _mixed_knapsack(seed=3, n_int=14, n_cont=4, m=4):
    """Integer knapsack columns with bounds 0..3 plus a few continuous ones."""
    rng = np.random.default_rng(seed)
    n = n_int + n_cont
    c = -rng.integers(4, 25, n).astype(float)
    c[n_int:] = -rng.uniform(1.0, 6.0, n_cont).round(3)
    A = rng.integers(1, 15, (m, n)).astype(float)
    A[:, n_int:] = rng.uniform(0.5, 9.0, (m, n_cont)).round(3)
    upper = np.concatenate([rng.integers(1, 4, n_int), np.full(n_cont, 2.5)])
    b = (A @ upper * 0.4).round()
    rows = tuple(LinearRow(f"r{i}", tuple((j, A[i, j]) for j in range(n)),
                           Sense.LE, float(b[i])) for i in range(m))
    return MipInstance(f"mixknap{seed}", tuple(f"x{j}" for j in range(n)), c,
                       np.zeros(n), upper.astype(float), frozenset(range(n_int)), rows)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("arm", ["reuse", "scratch"])
def test_series_outputs_are_pinned(tmp_path, arm):
    manifest_path = generate_series_files(
        _mixed_knapsack(), {"RHS", "OBJECTIVE"}, 10, seed=7, magnitude=0.1,
        out_dir=tmp_path / "series", time_limit=0.06)
    manifest = load_series(manifest_path)
    ckpt = tmp_path / "checkpoint.json"
    report = run_series(manifest, RunConfig(
        seed=1, det_work_per_second=1e4, checkpoint_path=ckpt,
        disable=ALL_OFF if arm == "scratch" else frozenset()))
    write_report_csv(report, tmp_path / "report.csv")
    write_report_summary(report, tmp_path / "summary.json")
    got = {name: _digest(tmp_path / name)
           for name in ("report.csv", "summary.json", "checkpoint.json")}
    assert got == PINNED[arm]
