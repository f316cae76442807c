"""Determinism pin: a small series run end to end through `run_series`.

Two arms (every technique on, and all five off) run a 10-instance RHS and
objective series of mixed-integer knapsacks with checkpoints, on the
deterministic clock and under a time limit that cuts some solves short.
The sha256 of `report.csv`, `summary.json` and the checkpoint journal are
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
        "report.csv": "c0cfa079b52c0ac58c7afd48dfadd5989eff4bfca16463c1cbff0abbb689512c",
        "summary.json": "be293cc26e68052e00eb725e7945e9753aa0980e887b2010b885e32208ba979d",
        "checkpoint.json": "41673ed1ede259f3b87ebd76e52ea8c2d1a813fe37a26ea05b2a4b918e039308",
    },
    "scratch": {
        "report.csv": "7d258b67a7dfea9306cc85bf4291ca41da76de9c6beb622a613d221e22faf99b",
        "summary.json": "db6b8180bcd228548581d69a152d206d7d5b0cac0f592ddcf4562a11a37a65d6",
        "checkpoint.json": "d0f0eeae51cb7c7222d1286fcf61fde9650348c4fe9ece5333250f0458e76db0",
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
