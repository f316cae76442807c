"""Series orchestration: wiring, ablations, determinism, checkpoint resume."""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict

import pytest

from mipseries import harness
from mipseries.harness import (RunConfig, ScoreRecord, _SeriesState, _error_record,
                               improvement_table, run_series, write_report_csv,
                               write_report_summary)
from mipseries.model import (Component, SeriesManifest, load_series,
                             generate_series_files, save_instance)

from conftest import DET_WPS, hard_knapsack

ALL_OFF = frozenset({"hints", "history", "sb", "tuning", "turnoff"})


def _identical_series(tmp_path, n=5, time_limit=50.0, changing=("RHS",)):
    inst = hard_knapsack()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "series_name": "copies", "time_limit": time_limit,
        "changing": list(changing), "instances": ["inst.json"] * n}))
    return load_series(manifest_path)


def _run_until(manifest, run_cfg, stop):
    """Run the series and stop it as Ctrl-C would, once `stop()` holds when
    an instance is about to be solved; returns the checkpoint left behind."""
    real_solve = harness.solve

    def solve(*args, **kwargs):
        if stop():
            raise KeyboardInterrupt
        return real_solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "solve", solve)
        with pytest.raises(KeyboardInterrupt):
            run_series(manifest, run_cfg)
    return json.loads(run_cfg.checkpoint_path.read_text())


def _stop_after(manifest, run_cfg, k):
    """Checkpoint of the run interrupted when instance k + 1 starts solving."""
    calls = itertools.count()
    return _run_until(manifest, run_cfg, lambda: next(calls) == k)


def _one_record_checkpoint(tmp_path):
    """A 3-instance series, its config, and the checkpoint after instance 0."""
    manifest = _identical_series(tmp_path, n=3)
    cfg = RunConfig(det_work_per_second=DET_WPS, checkpoint_path=tmp_path / "ckpt.json")
    return manifest, cfg, _stop_after(manifest, cfg, 1)


def _rejected(manifest, cfg, data, match):
    cfg.checkpoint_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=match):
        run_series(manifest, cfg)


def test_identical_series_receives_hints_and_histories(tmp_path):
    manifest = _identical_series(tmp_path, n=3)
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=frozenset({"tuning", "turnoff"})))
    assert len(report.records) == 3
    assert all(r.status == "OPTIMAL" for r in report.records)
    # instance 0 runs full strong branching per the first-instance policy
    assert report.records[0].rule == "FULLSTRONG"
    # RHS series switches to pure pseudocost afterwards
    assert report.records[1].rule == "PSEUDOCOST"
    assert not report.records[0].hints_provided
    assert report.records[1].hints_provided and report.records[1].hint_converted
    assert report.records[2].hints_provided and report.records[2].hint_converted
    pbs = [r.pb for r in report.records]
    assert pbs[0] == pytest.approx(pbs[1]) and pbs[1] == pytest.approx(pbs[2])


def test_base_ablation_is_independent_solving(tmp_path):
    manifest = _identical_series(tmp_path, n=3)
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=ALL_OFF))
    assert all(r.rule == "RELIABILITY" for r in report.records)
    assert not any(r.hints_provided for r in report.records)
    # identical instances solved identically from scratch
    times = [r.solve_time for r in report.records]
    assert times[0] == times[1] == times[2]
    assert report.tuner_summary == {} and report.turnoff_summary == []


def test_objective_series_uses_reliability_after_first(tmp_path):
    manifest = _identical_series(tmp_path, n=2, changing=("OBJECTIVE",))
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=frozenset({"tuning", "turnoff"})))
    assert report.records[0].rule == "FULLSTRONG"
    assert report.records[1].rule == "RELIABILITY"


def test_run_series_deterministic_within_process(tmp_path):
    manifest = _identical_series(tmp_path, n=4)
    cfg = RunConfig(seed=7, det_work_per_second=DET_WPS)
    a = run_series(manifest, cfg)
    b = run_series(manifest, cfg)
    assert [vars(r) for r in a.records] == [vars(r) for r in b.records]
    assert a.summary_dict() == b.summary_dict()


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    manifest = _identical_series(tmp_path, n=5)
    straight = run_series(manifest, RunConfig(seed=3, det_work_per_second=DET_WPS))

    cfg = RunConfig(seed=3, det_work_per_second=DET_WPS,
                    checkpoint_path=tmp_path / "ckpt.json")
    assert len(_stop_after(manifest, cfg, 2)["records"]) == 2
    resumed = run_series(manifest, cfg)
    assert len(resumed.records) == 5
    assert [vars(r) for r in resumed.records] == [vars(r) for r in straight.records]
    assert resumed.summary_dict() == straight.summary_dict()


def test_checkpoint_resume_after_tuner_draws_equals_uninterrupted(tmp_path):
    # RHS perturbations under a tight limit leave arms within the candidate
    # band after exploration, so the tuner draws; the resumed run must
    # rebuild its rng from the stored seed and draw count
    manifest = load_series(generate_series_files(
        hard_knapsack(n=20, m=4), {"RHS"}, 16, seed=1, magnitude=0.1,
        out_dir=tmp_path / "s", time_limit=0.06))
    straight = run_series(manifest, RunConfig(seed=1, det_work_per_second=1e4))

    ckpt = tmp_path / "ckpt.json"
    cfg = RunConfig(seed=1, det_work_per_second=1e4, checkpoint_path=ckpt)
    stopped = _run_until(manifest, cfg, lambda: ckpt.exists() and
                         json.loads(ckpt.read_text())["tuner"]["draws"] > 0)
    assert len(stopped["records"]) < 16
    resumed = run_series(manifest, cfg)
    assert json.loads(ckpt.read_text())["tuner"]["draws"] > stopped["tuner"]["draws"]
    assert [vars(r) for r in resumed.records] == [vars(r) for r in straight.records]
    assert resumed.summary_dict() == straight.summary_dict()


def test_checkpoint_mismatch_rejected(tmp_path):
    manifest, cfg, _ = _one_record_checkpoint(tmp_path)
    other = SeriesManifest("other", manifest.instance_paths,
                           manifest.time_limit_per_instance,
                           manifest.changing_components)
    with pytest.raises(ValueError, match="does not match"):
        run_series(other, cfg)


def test_checkpoint_of_unknown_version_rejected(tmp_path):
    manifest, cfg, data = _one_record_checkpoint(tmp_path)
    _rejected(manifest, cfg, {**data, "version": 3}, "version 3")
    # the version-1 layout: next_index and errors beside the records, each
    # record with its total, the tuner with C, variant and the rng state
    data.update(version=1, next_index=1, errors=[])
    data["records"][0]["total_score"] = 0.0
    data["tuner"].update(C=0.3, variant="LINEAR",
                         rng_state={"t": "seq", "v": [3, {"t": "seq", "v": []}, None]})
    del data["tuner"]["draws"]
    _rejected(manifest, cfg, data, "version 1")


@pytest.mark.parametrize("draws", ["3", -1, 4, True, None])
def test_checkpoint_with_bad_draws_rejected(tmp_path, draws):
    # one record stored: draws must be an int in 0..3
    manifest, cfg, data = _one_record_checkpoint(tmp_path)
    assert data["tuner"]["draws"] == 0
    data["tuner"]["draws"] = draws
    _rejected(manifest, cfg, data, "draws")


def test_checkpoint_with_more_records_than_instances_rejected(tmp_path):
    manifest, cfg, data = _one_record_checkpoint(tmp_path)
    data["records"] *= 4
    _rejected(manifest, cfg, data, "4 records for 3 instances")


@pytest.mark.parametrize("where, field, value", [
    ("record", "instance_index", True),    # int
    ("record", "time_score", "x"),         # float
    ("record", "pb", 1),
    ("record", "status", 5),               # str
    ("record", "hint_converted", 1),       # bool
    ("record", "error", 5),                # str or None
    ("record", "total_score", "x"),        # no longer a field
    ("tuner", "seed", "1"),
    ("tuner", "seed", False),
])
def test_checkpoint_with_wrong_typed_field_rejected(tmp_path, where, field, value):
    manifest, cfg, data = _one_record_checkpoint(tmp_path)
    if where == "record":
        data["records"][0][field] = value
        _rejected(manifest, cfg, data, f"'{field}'")
    else:
        data["tuner"][field] = value
        _rejected(manifest, cfg, data, f"tuner {field}")


def test_reports_and_improvement_table(tmp_path):
    manifest = _identical_series(tmp_path, n=4)
    full = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS))
    base = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                          disable=ALL_OFF))
    full_csv = tmp_path / "full.csv"
    base_csv = tmp_path / "base.csv"
    write_report_csv(full, full_csv)
    write_report_csv(base, base_csv)
    write_report_summary(full, tmp_path / "full.json")
    summary = json.loads((tmp_path / "full.json").read_text())
    assert summary["num_instances"] == 4
    assert "tuner" in summary and "turnoff" in summary

    table = improvement_table(full_csv, base_csv)
    assert "overall" in table and table["batches"]
    expected = 100.0 * (base.mean_total_score - full.mean_total_score) / base.mean_total_score
    assert table["overall"]["improvement_pct"] == pytest.approx(expected)


def test_unknown_disable_rejected():
    with pytest.raises(ValueError, match="unknown technique"):
        RunConfig(disable=frozenset({"everything"}))


def test_generated_rhs_series_runs_end_to_end(tmp_path):
    inst = hard_knapsack(seed=9, n=10, m=2)
    base_path = tmp_path / "base.json"
    save_instance(inst, base_path)
    manifest_path = generate_series_files(inst, {"RHS"}, 6, seed=5,
                                          magnitude=0.05, out_dir=tmp_path / "s",
                                          time_limit=50.0)
    manifest = load_series(manifest_path)
    assert manifest.changing_components == frozenset({Component.RHS})
    report = run_series(manifest, RunConfig(seed=1, det_work_per_second=DET_WPS))
    assert len(report.records) == 6
    assert all(r.status == "OPTIMAL" for r in report.records)
    assert report.shifted_geomean_time >= 0.0


def test_hint_exploration_pattern_with_tuning(tmp_path):
    # with tuning on, hints are provided only on ON slots during exploration
    manifest = _identical_series(tmp_path, n=6)
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=frozenset({"turnoff"})))
    # t = idx - 1: hints at odd t <-> even idx (idx 2, 4, ...)
    for r in report.records[1:]:
        t = r.instance_index - 1
        expected = "ON" if (t & 1) else "OFF"
        assert r.hint_value == expected
        assert r.hints_provided == (expected == "ON")


def test_time_limited_record_satisfies_score_invariants(tmp_path):
    # a deliberately tiny deterministic budget leaves the gap open: the time
    # score must then be 1 and the total stays within [0, 2]
    manifest = _identical_series(tmp_path, n=2, time_limit=2e-5)
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=ALL_OFF))
    assert any(r.status != "OPTIMAL" for r in report.records)
    for r in report.records:
        assert 0.0 <= r.time_score <= 1.0
        assert 0.0 <= r.gap_score <= 1.0
        assert 0.0 <= r.total_score <= 2.0
        if r.status == "OPTIMAL":
            assert r.gap_score == 0.0
        if r.gap_score > 0.0:
            assert r.time_score == 1.0


def test_turnoff_disables_idle_presolvers_in_series(tmp_path):
    # binary knapsack bounds are already tight and the row gcd is 1: both
    # presolve rules make zero changes and are shut off after 15 instances
    manifest = _identical_series(tmp_path, n=17)
    report = run_series(manifest, RunConfig(seed=0, det_work_per_second=DET_WPS,
                                            disable=frozenset({"tuning"})))
    by_name = {row["name"]: row for row in report.turnoff_summary}
    assert by_name["bound_tighten"]["disabled_at"] == 14
    assert by_name["coef_tighten"]["disabled_at"] == 14
    assert by_name["gomory"]["disabled_at"] is None
    assert all(r.status == "OPTIMAL" for r in report.records)


def test_instance_failure_recorded_and_series_continues(tmp_path):
    # second instance has an unbounded relaxation: its row is recorded as an
    # error and the remaining instances still run
    import json as _json
    from mipseries.model import save_instance as _save
    from conftest import make_instance as _make
    from mipseries.model import Sense as _S
    good = _make("g", [-1.0], [([1.0], _S.LE, 4.0)], [0], [9], ints=(0,))
    bad = _make("b", [-1.0], [([0.0], _S.LE, 1.0)], [0], [float("inf")], ints=(0,))
    _save(good, tmp_path / "g.json")
    _save(bad, tmp_path / "b.json")
    mpath = tmp_path / "m.json"
    mpath.write_text(_json.dumps({
        "series_name": "mixed", "time_limit": 10.0, "changing": ["RHS"],
        "instances": ["g.json", "b.json", "g.json"]}))
    report = run_series(load_series(mpath), RunConfig(seed=0, det_work_per_second=DET_WPS))
    assert [r.status for r in report.records] == ["OPTIMAL", "ERROR", "OPTIMAL"]
    assert report.records[1].total_score == 2.0
    assert report.summary_dict()["errors"] == [{"index": 1, "error": report.records[1].error}]
    # the failing instance is the first one tuned (all arms OFF under
    # exploration): each parameter credits its used arm with base score -2.0
    mpath.write_text(_json.dumps({
        "series_name": "mixed", "time_limit": 10.0, "changing": ["RHS"],
        "instances": ["g.json", "b.json"]}))
    upto_error = run_series(load_series(mpath), RunConfig(seed=0, det_work_per_second=DET_WPS))
    assert upto_error.records[1].status == "ERROR"
    for param in ("HINT", "CUTS", "ROOT_CUTS"):
        arm = upto_error.tuner_summary[param]
        assert (arm["n_on"], arm["n_off"], arm["q_off"]) == (0, 1, -2.0), param


def test_checkpoint_records_serialize_like_asdict(tmp_path):
    manifest = _identical_series(tmp_path, n=2)
    state = _SeriesState(RunConfig())
    state.records = [ScoreRecord(0, "OPTIMAL", 0.5, -3.0, -0.0, 0.1, 0.0, True,
                                 "FULLSTRONG", "ON", "OFF", "ON", True),
                     _error_record(1, "ValueError: boom")]
    data = state.to_json_dict(manifest)
    assert json.dumps(data["records"], sort_keys=True) == \
        json.dumps([asdict(r) for r in state.records], sort_keys=True)
    data["records"][0]["pb"] = 99.0   # the checkpoint dict is not the record
    assert state.records[0].pb == -3.0
