"""Self-checks of the series benchmark: the same seed gives the same inputs,
scores and counters; tracing changes no behaviour; the gate catches wrong
answers.  Runs shortened copies of the workloads (one series, 3 instances).
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mipseries import harness, lp
from mipseries.model import Solution, SolutionStatus
from mipseries.solver import bb

from bench import END_TO_END, ArmPass, fingerprint, per_layer, run_passes, tail_percentile
from oracle import check_solve
from tracing import Tracer
from workloads import WORKLOADS, load_manifests, write_series

TINY = {name: replace(wl, series=1, count=3) for name, wl in WORKLOADS.items()}


def _measure(wl, seed, tmp_path, traced=False):
    manifests = load_manifests(write_series(wl, seed, tmp_path / "series"))
    if not traced:
        return run_passes(manifests, seed, tmp_path, "u", min_passes=2), None
    with Tracer() as tracer:
        return run_passes(manifests, seed, tmp_path, "t", tracer=tracer), tracer


def _scores(m):
    return {key: [r.total_score for r in run.report.records]
            for key, run in m.runs.items()}


def test_same_seed_writes_identical_files(tmp_path):
    wl = TINY["mixed_obj"]
    a = write_series(wl, 5, tmp_path / "a")
    b = write_series(wl, 5, tmp_path / "b")
    c = write_series(wl, 6, tmp_path / "c")
    files = sorted(p.name for p in a[0].parent.iterdir())
    assert files == sorted(p.name for p in b[0].parent.iterdir())
    for name in files:
        assert (a[0].parent / name).read_bytes() == (b[0].parent / name).read_bytes()
    assert any((a[0].parent / n).read_bytes() != (c[0].parent / n).read_bytes()
               for n in files if n != "manifest.json")


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_scores_and_counters(name, tmp_path):
    first, _ = _measure(TINY[name], 3, tmp_path / "1")
    second, _ = _measure(TINY[name], 3, tmp_path / "2")
    assert first.passes == 2
    assert all(run.agree and len(run.passes) == 2 for run in first.runs.values())
    assert fingerprint(first) == fingerprint(second)
    assert _scores(first) == _scores(second)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_matches_untraced(name, tmp_path):
    plain, _ = _measure(TINY[name], 4, tmp_path / "plain")
    traced, tracer = _measure(TINY[name], 4, tmp_path / "traced", traced=True)
    assert fingerprint(traced) == fingerprint(plain)
    again, tracer2 = _measure(TINY[name], 4, tmp_path / "again", traced=True)
    assert dict(tracer.counters) == dict(tracer2.counters)
    for key in ("bb.nodes", "lp.node.pivots", "cuts.generated", "lp.sb.solves"):
        assert key in tracer.counters
    spans = tracer.summary()["spans"]
    assert spans["harness.run_series"]["count"] == len(plain.runs)
    assert spans["bb.solve"]["count"] == sum(len(r.solves) for r in plain.runs.values())

    # the result carries exactly the metrics BENCHMARK.json declares
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer, _ = per_layer(tracer, traced, plain)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert [n for n, _ in END_TO_END] == [m["name"] for m in spec["end_to_end"]]


def test_tracer_restores_every_entry_point(tmp_path):
    before = (harness.solve, harness.run_series, bb.solve_arrays, bb.get_kernels,
              lp._Simplex.__dict__["warm_start"], bb._TreeSolver.__dict__["_cut_loop"])
    with Tracer():
        assert harness.run_series is not before[1]
    after = (harness.solve, harness.run_series, bb.solve_arrays, bb.get_kernels,
             lp._Simplex.__dict__["warm_start"], bb._TreeSolver.__dict__["_cut_loop"])
    assert after == before


def _record(status, pb, db):
    return SimpleNamespace(status=status, pb=pb, db=db, error=None)


def test_gate_flags_bounds_that_contradict_the_reference():
    inst = WORKLOADS["knap_rhs"].make_base(np.random.default_rng(0), "k")
    outcome = SimpleNamespace(best_solution=None)
    tol = 1e-6
    assert check_solve(inst, _record("OPTIMAL", -10.0, -10.0), outcome, -10.0, tol, tol, tol) is None
    assert check_solve(inst, _record("OPTIMAL", -9.0, -9.0), outcome, -10.0, tol, tol, tol)
    assert check_solve(inst, _record("TIME_LIMIT", -9.0, -9.5), outcome, -10.0, tol, tol, tol)
    assert check_solve(inst, _record("TIME_LIMIT", -11.0, -12.0), outcome, -10.0, tol, tol, tol)
    assert check_solve(inst, _record("TIME_LIMIT", math.inf, -12.0), outcome, -10.0,
                       tol, tol, tol) is None
    assert check_solve(inst, _record("ERROR", math.inf, -math.inf), outcome, -10.0, tol, tol, tol)
    bad = SimpleNamespace(best_solution=Solution(np.full(inst.num_vars, 2.0), -10.0,
                                                 SolutionStatus.FEASIBLE))
    assert "infeasible" in check_solve(inst, _record("OPTIMAL", -10.0, -10.0), bad, -10.0,
                                       tol, tol, tol)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(60))
    value, pct = tail_percentile(samples)
    assert pct == 83
    assert sum(s > value for s in samples) >= 10
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_ref_units_cancel_the_machine_speed():
    walls, refs = [0.2, 0.1, 0.3], [0.005, 0.004, 0.006]
    base = ArmPass(0.7, walls, refs)
    slow = ArmPass(0.7 * 1.8, [w * 1.8 for w in walls], [r * 1.8 for r in refs])
    assert slow.ref_wall == pytest.approx(base.ref_wall)
    assert slow.solve_refs == pytest.approx(base.solve_refs)
    # each solve over the mean reference time before and after it
    assert base.solve_refs[0] == pytest.approx(0.2 / 0.0045)
    assert base.solve_refs[-1] == pytest.approx(0.3 / 0.006)
