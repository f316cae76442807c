"""Determinism pin: a small series run end to end through `run_series`.

Two arms (every technique on, and all five off) run a 10-instance RHS and
objective series of mixed-integer knapsacks with checkpoints, on the
deterministic clock and under a time limit that cuts some solves short.
The sha256 of `report.csv`, `summary.json` and the checkpoint journal are
pinned, so a change that alters any pivot, node, cut, score or checkpoint
byte on this path fails here.  The digests depend on the platform's
floating-point arithmetic and were recorded on x86-64 Linux.

`test_lp_and_cut_results_are_pinned` runs the same two arms and pins one
sha256 over every `solve_arrays` result (status, iterations, objective,
primal point, and the token's basis, statuses, tableau, rhs and age) and
every `generate_cuts` block, in call order.  A change that claims to alter
only how fast the LP or the cut round runs keeps it.

The checkpoint digests were last re-recorded when the journal went to
version 5: a line holds the capped histories the next instance starts from
in place of the raw ones with their source index, and null for the pool
entry, histories and ledger of a technique that is off, so the scratch
arm's journal holds records and nulls only.  The report and summary
digests, and the LP and cut digest, stayed byte-identical.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mipseries.harness import (RunConfig, run_series, write_report_csv,
                               write_report_summary)
from mipseries.model import (LinearRow, MipInstance, Sense, generate_series_files,
                             load_series)
from mipseries.solver import bb

ALL_OFF = frozenset({"hints", "history", "sb", "tuning", "turnoff"})

PINNED = {
    "reuse": {
        "report.csv": "b03d6918142f08d113220a9a1abb60afdf60ef99a602132fe164e18d7986407e",
        "summary.json": "b4818775f7e872d8835883cfda5d7820c905b11a2aedf4bd9d9885d6bdbe15c0",
        "checkpoint.json": "f3ac7a951875168f77bce7cbac85c77b2054eaf4a4a120d8491a1e110eee0703",
    },
    "scratch": {
        "report.csv": "bd19f0a2e81fb71ea6be876c5b2f9c8fbf39098648416f670289d303ebf45dfb",
        "summary.json": "a4a6e8ae28b7521f0e9ba94470c5e1775eadff317bb0fe8b446bb3f37df01a92",
        "checkpoint.json": "ea36ca65d8531d9ac3a10285c457e31197b7c16a07cfc5b028ada1f48fbbdb5c",
    },
}

PINNED_LP_AND_CUTS = "de3483158ddcdb479cd66bcacdb8763e9fe7021efba1071ee7b997531c28f987"


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


def _run_arm(tmp_path, arm):
    """Run one arm of the pinned series; the outputs go to `tmp_path`."""
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


@pytest.mark.parametrize("arm", ["reuse", "scratch"])
def test_series_outputs_are_pinned(tmp_path, arm):
    _run_arm(tmp_path, arm)
    got = {name: _digest(tmp_path / name)
           for name in ("report.csv", "summary.json", "checkpoint.json")}
    assert got == PINNED[arm]


def test_lp_and_cut_results_are_pinned(tmp_path, monkeypatch):
    h = hashlib.sha256()

    def feed(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())

    def solve_arrays(*args, **kwargs):
        res = real_solve_arrays(*args, **kwargs)
        tok = res.basis
        h.update(f"{res.status.value} {res.iterations} {tok.age}".encode())
        feed(np.float64(res.objective), res.primal, tok.basis, tok.stat, tok.tab, tok.rhs)
        return res

    def generate_cuts(*args, **kwargs):
        cuts = real_generate_cuts(*args, **kwargs)
        h.update(f"cuts {cuts.mat.shape}".encode())
        feed(cuts.mat, cuts.rhs)
        return cuts

    real_solve_arrays, real_generate_cuts = bb.solve_arrays, bb.generate_cuts
    monkeypatch.setattr(bb, "solve_arrays", solve_arrays)
    monkeypatch.setattr(bb, "generate_cuts", generate_cuts)
    for arm in ("reuse", "scratch"):
        _run_arm(tmp_path / arm, arm)
    assert h.hexdigest() == PINNED_LP_AND_CUTS
