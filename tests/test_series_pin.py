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

Every digest was re-recorded when branch and bound began to fix integer
columns by reduced cost at each node once an incumbent exists: the fixed
bounds change the node LPs, probes and cuts that follow, and so the work
units behind the times and scores in the reports and journals.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mipseries.harness import (RunConfig, run_series, write_report_csv,
                               write_report_summary)
from mipseries.model import generate_series_files, load_series
from mipseries.solver import bb

from conftest import mixed_knapsack

ALL_OFF = frozenset({"hints", "history", "sb", "tuning", "turnoff"})

PINNED = {
    "reuse": {
        "report.csv": "23db1b71019eda846241c969e898b2ccda6aab45f866a9d24a69c0c31d02629a",
        "summary.json": "c259324cad79c5ffce8dc9a48744da724a953ab7e916950b558bbb39ea1f53be",
        "checkpoint.json": "037a0ab1b581bb7105feb38369a44b7819592d4ea6487727845d8ca65038c442",
    },
    "scratch": {
        "report.csv": "0f048ef3d1a4887e1d8045479569601c2867db9a87be2b221f3c7bd87079c41e",
        "summary.json": "35bd774dcdf848e8115dbd136747009fe5c4c3de475a571d2637123e1c5c9ad1",
        "checkpoint.json": "d9ec1918eace5996e36e0299a324f3f1dd74bbd6a25754972c94a98c272981d1",
    },
}

PINNED_LP_AND_CUTS = "7fdbf9c75c3db2c46a68a8f1882efecd81f8227cf7f3b657731b58cb15899df3"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_arm(tmp_path, arm):
    """Run one arm of the pinned series; the outputs go to `tmp_path`."""
    manifest_path = generate_series_files(
        mixed_knapsack(), {"RHS", "OBJECTIVE"}, 10, seed=7, magnitude=0.1,
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
