"""Series orchestration: wiring, ablations, determinism, checkpoint resume."""
from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import random
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipseries import harness
from mipseries.harness import (RunConfig, ScoreRecord, _SeriesState, _error_record,
                               _journal_line, improvement_table, run_series,
                               write_report_csv, write_report_summary)
from mipseries.lp import LpStatus
from mipseries.model import (Component, SeriesManifest, load_series,
                             generate_series_files, save_instance)
from mipseries.solver import HEUR_COMPLETESOL, SEP_GOMORY, SolverConfig
from mipseries.tuner import ON, PARAM_ORDER

from conftest import DET_WPS, hard_knapsack, older_journal, poison_lp, report_csv

ALL_OFF = frozenset({"hints", "history", "sb", "tuning", "turnoff"})
ALL_ON = dict.fromkeys(PARAM_ORDER, ON)


def _identical_series(tmp_path, n=5, time_limit=50.0, changing=("RHS",)):
    inst = hard_knapsack()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "series_name": "copies", "time_limit": time_limit,
        "changing": list(changing), "instances": ["inst.json"] * n}))
    return load_series(manifest_path)


def _journal(path) -> list:
    """The lines of a checkpoint journal, parsed: the header first."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_journal(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def _run_until(manifest, run_cfg, stop):
    """Run the series and stop it as Ctrl-C would, once `stop()` holds when
    an instance is about to be solved; returns the journal left behind."""
    real_solve = harness.solve

    def solve(*args, **kwargs):
        if stop():
            raise KeyboardInterrupt
        return real_solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "solve", solve)
        with pytest.raises(KeyboardInterrupt):
            run_series(manifest, run_cfg)
    return _journal(run_cfg.checkpoint_path)


def _stop_after(manifest, run_cfg, k):
    """Journal of the run interrupted when instance k + 1 starts solving."""
    calls = itertools.count()
    return _run_until(manifest, run_cfg, lambda: next(calls) == k)


def _one_record_checkpoint(tmp_path):
    """A 3-instance series, its config, and the journal after instance 0."""
    manifest = _identical_series(tmp_path, n=3)
    cfg = RunConfig(det_work_per_second=DET_WPS, checkpoint_path=tmp_path / "ckpt.json")
    return manifest, cfg, _stop_after(manifest, cfg, 1)


def _rejected(manifest, cfg, lines, match):
    _write_journal(cfg.checkpoint_path, lines)
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
    assert len(_stop_after(manifest, cfg, 2)) == 1 + 2     # the header and 2 records
    resumed = run_series(manifest, cfg)
    assert len(resumed.records) == 5
    assert [vars(r) for r in resumed.records] == [vars(r) for r in straight.records]
    assert resumed.summary_dict() == straight.summary_dict()
    assert [line["record"] for line in _journal(cfg.checkpoint_path)[1:]] == \
        [asdict(r) for r in straight.records]


def test_checkpoint_resume_after_tuner_draws_equals_uninterrupted(tmp_path):
    # RHS perturbations under a tight limit leave arms within the candidate
    # band after exploration, so the tuner draws from its rng; a resume
    # after k instances, with a torn line after them, must rebuild the
    # tuner and its rng by replaying the k records, before and after the
    # first instance that draws
    manifest = load_series(generate_series_files(
        hard_knapsack(n=20, m=4), {"RHS"}, 16, seed=1, magnitude=0.1,
        out_dir=tmp_path / "s", time_limit=0.06))
    choice, select = random.Random.choice, harness._SeriesState.select_values
    drawn, drawing = [], []

    def counted(self, seq):
        drawn.append(seq)
        return choice(self, seq)

    def noted(self, t):
        before = len(drawn)
        values = select(self, t)
        if len(drawn) > before:
            drawing.append(t)
        return values

    for disable in (frozenset(), ALL_OFF):     # the first arm finds `first`
        drawing.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(random.Random, "choice", counted)
            mp.setattr(harness._SeriesState, "select_values", noted)
            straight = run_series(manifest, RunConfig(seed=1, det_work_per_second=1e4,
                                                      disable=disable))
        if disable:
            assert not drawing     # tuning is off
        else:
            assert drawing, "the tuner never draws: the test checks no rng replay"
            first = drawing[0]
        # a run stopped after k instances has chosen the values of k + 1
        for k in sorted({1, first - 1, first, first + 1} & set(range(1, len(manifest)))):
            ckpt = tmp_path / f"ckpt{k}{len(disable)}.json"
            cfg = RunConfig(seed=1, det_work_per_second=1e4, disable=disable,
                            checkpoint_path=ckpt)
            drawn.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(random.Random, "choice", counted)
                assert len(_stop_after(manifest, cfg, k)) == 1 + k
            assert bool(drawn) == (k >= first and not disable)
            with ckpt.open("a") as fh:
                fh.write('{"record": {"instance_ind')
            resumed = run_series(manifest, cfg)
            assert [vars(r) for r in resumed.records] == \
                [vars(r) for r in straight.records], (k, disable)
            assert resumed.summary_dict() == straight.summary_dict(), (k, disable)
            assert len(_journal(ckpt)) == 1 + 16    # the torn line is gone


@pytest.mark.parametrize("disable", [frozenset(), ALL_OFF]
                         + [frozenset({tech}) for tech in harness.TECHNIQUES],
                         ids=lambda d: "+".join(sorted(d)) or "none")
def test_resume_after_any_line_equals_uninterrupted(tmp_path, disable):
    # the journal is append-only, so its first k lines are what a run
    # stopped after k instances leaves behind
    manifest = load_series(generate_series_files(
        hard_knapsack(n=20, m=4), {"RHS"}, 16, seed=1, magnitude=0.1,
        out_dir=tmp_path / "s", time_limit=0.06))
    cfg = RunConfig(seed=1, det_work_per_second=1e4, disable=disable,
                    checkpoint_path=tmp_path / "ckpt.json")
    straight = run_series(manifest, cfg)
    header, *lines = _journal(cfg.checkpoint_path)
    for k in range(len(lines)):
        _write_journal(cfg.checkpoint_path, [header] + lines[:k])
        resumed = run_series(manifest, cfg)
        assert [vars(r) for r in resumed.records] == \
            [vars(r) for r in straight.records], k
        assert resumed.summary_dict() == straight.summary_dict(), k
        assert _journal(cfg.checkpoint_path) == [header] + lines, k


@pytest.mark.parametrize("technique, part", [
    ("hints", "pool_entry"), ("history", "warm"), ("turnoff", "ledger")])
def test_journal_keeps_nothing_for_a_technique_that_is_off(tmp_path, technique, part):
    manifest = _identical_series(tmp_path, n=3)
    journals = {}
    for disable in (frozenset(), frozenset({technique})):
        cfg = RunConfig(det_work_per_second=DET_WPS, disable=disable,
                        checkpoint_path=tmp_path / f"ckpt{len(disable)}.json")
        assert all(r.status == "OPTIMAL" for r in run_series(manifest, cfg).records)
        journals[disable] = _journal(cfg.checkpoint_path)[1:]
    assert all(line[part] is not None for line in journals[frozenset()])
    assert all(line[part] is None for line in journals[frozenset({technique})])
    # a line that holds the part anyway is refused
    cfg = RunConfig(det_work_per_second=DET_WPS, disable={technique},
                    checkpoint_path=tmp_path / "mixed.json")
    header = {**_journal(tmp_path / "ckpt1.json")[0]}
    lines = journals[frozenset({technique})]
    lines[0][part] = journals[frozenset()][0][part]
    _rejected(manifest, cfg, [header] + lines,
              f"line 2 holds a {part}, but {technique} is off")


@pytest.mark.parametrize("content", [b"", b'{"alpha_pct": 90.0, "det_w'],
                         ids=["empty", "torn_header"])
def test_checkpoint_without_a_whole_line_starts_over(tmp_path, content):
    # a zero-byte file, or one whose header was torn, holds no checkpoint
    manifest = _identical_series(tmp_path, n=2)
    straight = run_series(manifest, RunConfig(det_work_per_second=DET_WPS))
    cfg = RunConfig(det_work_per_second=DET_WPS, checkpoint_path=tmp_path / "ckpt.json")
    cfg.checkpoint_path.write_bytes(content)
    report = run_series(manifest, cfg)
    assert [vars(r) for r in report.records] == [vars(r) for r in straight.records]
    header, *lines = _journal(cfg.checkpoint_path)
    assert header["version"] == harness.CHECKPOINT_VERSION and len(lines) == 2


def test_checkpoint_mismatch_rejected(tmp_path):
    manifest, cfg, _ = _one_record_checkpoint(tmp_path)
    other = SeriesManifest("other", manifest.instance_paths,
                           manifest.time_limit_per_instance,
                           manifest.changing_components)
    with pytest.raises(ValueError, match="does not match"):
        run_series(other, cfg)


@pytest.mark.parametrize("field, value", [
    ("series_name", "other"), ("num_instances", 2), ("seed", 5),
    ("disable", frozenset({"sb"})), ("alpha_pct", 50.0),
    ("det_work_per_second", 2 * DET_WPS)])
def test_checkpoint_of_another_run_rejected(tmp_path, field, value):
    manifest, cfg, _ = _one_record_checkpoint(tmp_path)
    if field == "series_name":
        manifest = replace(manifest, series_name=value)
    elif field == "num_instances":
        manifest = replace(manifest, instance_paths=manifest.instance_paths[:value])
    else:
        cfg = replace(cfg, **{field: value})
    with pytest.raises(ValueError, match=f"does not match this run: its {field} "):
        run_series(manifest, cfg)


def test_checkpoint_of_unknown_version_rejected(tmp_path):
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    _rejected(manifest, cfg, [{**lines[0], "version": 6}] + lines[1:], "version 6")
    # the version-4 layout held the raw histories in a history store, and
    # version 3's histories also held conflict and inference counts
    _rejected(manifest, cfg, older_journal(lines, 4), "version 4")
    _rejected(manifest, cfg, older_journal(lines, 3), "version 3")
    # the version-2 layout: one JSON object, the whole state, no newline
    state = {"version": 2, "series_name": "copies", "num_instances": 3,
             "records": [lines[1]["record"]], "pool": {}, "history_store": {},
             "ledger": {}, "tuner": {"seed": 0, "draws": 0, "params": {}}}
    cfg.checkpoint_path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="version 2"):
        run_series(manifest, cfg)
    # the version-1 layout: next_index and errors beside the records
    state.update(version=1, next_index=1, errors=[])
    _rejected(manifest, cfg, [state], "version 1")


def test_checkpoint_with_more_records_than_instances_rejected(tmp_path):
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    _rejected(manifest, cfg, lines[:1] + lines[1:] * 4, "4 records for 3 instances")


def test_checkpoint_line_out_of_order_rejected(tmp_path):
    manifest = _identical_series(tmp_path, n=3)
    cfg = RunConfig(det_work_per_second=DET_WPS, checkpoint_path=tmp_path / "ckpt.json")
    header, first, second = _stop_after(manifest, cfg, 2)
    _rejected(manifest, cfg, [header, second, first], "line 2 holds instance 1, expected 0")


@pytest.mark.parametrize("field", ["hint_value", "cuts_value", "root_cuts_value"])
def test_checkpoint_record_the_tuner_did_not_choose_rejected(tmp_path, field):
    # instance 0 is never tuned, so all three values were ON
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    lines[1]["record"][field] = "OFF"
    _rejected(manifest, cfg, lines, "line 2: the replayed tuner values differ")


@pytest.mark.parametrize("where, field, value", [
    ("record", "instance_index", True),    # int
    ("record", "time_score", "x"),         # float
    ("record", "pb", 1),
    ("record", "status", 5),               # str
    ("record", "hint_converted", 1),       # bool
    ("record", "error", 5),                # str or None
    ("record", "total_score", "x"),        # no longer a field
    ("record", "status", "a"),             # a SolveStatus value or ERROR
    ("record", "status", "optimal"),
    ("record", "rule", "a"),               # a BranchingRule value or -
    ("record", "error", "a"),              # a message only with status ERROR
    ("record", "status", "ERROR"),         # ... and always with it
    ("tuner", "seed", "1"),                # the header's seed seeds the tuner
    ("tuner", "seed", False),
])
def test_checkpoint_with_wrong_typed_field_rejected(tmp_path, where, field, value):
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    if where == "record":
        lines[1]["record"][field] = value
        _rejected(manifest, cfg, lines, f"'{field}'" if field == "total_score"
                  else f"line 2: record field .*'{field}'")
    else:
        lines[0][field] = value
        _rejected(manifest, cfg, lines, f"its {field} is {value!r}")


def _set(line, path, value):
    """Set the leaf of a parsed journal line at `path` (a key tuple);
    `...` as the value deletes it."""
    *parents, leaf = path
    for key in parents:
        line = line[key]
    if value is ...:
        del line[leaf]
    else:
        line[leaf] = value


BAD_PARTS = {
    # pool entries
    "value-str": ("pool_entry", ("values", "x0"), "a",
                  "line 2: pool entry value 'x0' is 'a', expected a finite number"),
    "value-nan": ("pool_entry", ("values", "x0"), math.nan, "pool entry value 'x0' is nan"),
    "value-null": ("pool_entry", ("values", "x0"), None, "pool entry value 'x0' is None"),
    "value-bool": ("pool_entry", ("values", "x0"), True, "pool entry value 'x0' is True"),
    "value-unknown-name": ("pool_entry", ("values", "zz"), 1.0,
                           "line 2: the pool entry's values do not name"),
    "value-missing-name": ("pool_entry", ("values", "x13"), ...,
                           "line 2: the pool entry's values do not name"),
    "values-list": ("pool_entry", ("values",), [1.0],
                    "line 2: the pool entry's values do not name"),
    "objective-str": ("pool_entry", ("objective",), "a", "line 2: pool entry objective is 'a'"),
    "objective-inf": ("pool_entry", ("objective",), math.inf, "pool entry objective is inf"),
    # histories
    "sum-str": ("warm", ("histories", "x0", "pscost_up_sum"), "zz",
                "line 2: history of 'x0' field 'pscost_up_sum' is 'zz', "
                "expected a finite number"),
    "sum-inf": ("warm", ("histories", "x0", "pscost_up_sum"), math.inf,
                "field 'pscost_up_sum' is inf"),
    "count-negative": ("warm", ("histories", "x0", "pscost_down_count"), -1.0,
                       "history of 'x0' field 'pscost_down_count' is -1.0, "
                       "expected a finite non-negative"),
    "global-null": ("warm", ("global_history", "pscost_up_count"), None,
                    "line 2: global history field 'pscost_up_count' is None"),
    "global-list": ("warm", ("global_history", "pscost_down_sum"), [],
                    "global history field 'pscost_down_sum' is []"),
    "global-dict": ("warm", ("global_history", "pscost_down_sum"), {},
                    "global history field 'pscost_down_sum' is {}"),
    # ledger records
    "ledger-count-str": ("ledger", ("gomory", "instances_enabled"), "a",
                         "line 2: ledger record 'gomory' field 'instances_enabled' is 'a', "
                         "expected a non-negative integer"),
    "ledger-count-float": ("ledger", ("gomory", "instances_observed"), 2.0,
                           "field 'instances_observed' is 2.0"),
    "ledger-count-negative": ("ledger", ("gomory", "instances_observed"), -1,
                              "field 'instances_observed' is -1"),
    "ledger-count-bool": ("ledger", ("gomory", "instances_observed"), True,
                          "field 'instances_observed' is True"),
    "ledger-disabled-at-str": ("ledger", ("gomory", "disabled_at"), "a",
                               "field 'disabled_at' is 'a'"),
    "ledger-amount-str": ("ledger", ("gomory", "cuts"), "a",
                          "line 2: ledger record 'gomory' field 'cuts' is 'a', "
                          "expected a finite non-negative"),
    "ledger-amount-negative": ("ledger", ("gomory", "cuts"), -1.0, "field 'cuts' is -1.0"),
    "ledger-amount-nan": ("ledger", ("gomory", "time"), math.nan, "field 'time' is nan"),
    "ledger-kind": ("ledger", ("rounding", "kind"), "separator",
                    "line 2: ledger record 'rounding' has name 'rounding' and kind 'separator'"),
    "ledger-name": ("ledger", ("rounding", "name"), "gomory",
                    "ledger record 'rounding' has name 'gomory'"),
    "ledger-unknown": ("ledger", ("zz",), {"name": "zz", "kind": "heuristic"},
                       "line 2: the ledger holds"),
    "ledger-missing": ("ledger", ("rounding",), ..., "line 2: the ledger holds"),
}


@pytest.mark.parametrize("part, path, value, match", BAD_PARTS.values(), ids=BAD_PARTS.keys())
def test_checkpoint_with_a_bad_part_rejected(tmp_path, part, path, value, match):
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    _set(lines[1][part], path, value)
    _rejected(manifest, cfg, lines, re.escape(match))


def test_checkpoint_numbers_of_the_right_kind_resume(tmp_path):
    # integral JSON numbers in float fields and a zero count read as floats
    manifest, cfg, lines = _one_record_checkpoint(tmp_path)
    uninterrupted = run_series(manifest, RunConfig(det_work_per_second=DET_WPS))
    _set(lines[1]["pool_entry"], ("values", "x0"), int(lines[1]["pool_entry"]["values"]["x0"]))
    _set(lines[1]["ledger"], ("gomory", "time"), 0)
    _write_journal(cfg.checkpoint_path, lines)
    report = run_series(manifest, cfg)
    assert [vars(r) for r in report.records] == [vars(r) for r in uninterrupted.records]


# What a damaged leaf of a journal may hold instead of its value.
DAMAGE = ["a", -1, 1e308, -1e308, None, [], {}, True, 2.5]


def _leaves(obj, path=()):
    """The paths to the leaves of a parsed JSON value: its scalars and its
    empty lists and objects."""
    if isinstance(obj, (dict, list)) and obj:
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _is_number(value) -> bool:
    return type(value) in (int, float)


@pytest.fixture(scope="module")
def cut_journal(tmp_path_factory):
    """A 3-instance series, its config, the journal left when instance 2
    starts and the records of the uninterrupted run."""
    tmp_path = tmp_path_factory.mktemp("damaged")
    manifest = _identical_series(tmp_path, n=3)
    uninterrupted = run_series(manifest, RunConfig(det_work_per_second=DET_WPS))
    cfg = RunConfig(det_work_per_second=DET_WPS, checkpoint_path=tmp_path / "ckpt.json")
    return manifest, cfg, _stop_after(manifest, cfg, 2), [vars(r) for r in uninterrupted.records]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_journal_with_one_damaged_leaf_resumes_or_refuses(cut_journal, data):
    # One leaf of the journal, header included, is replaced.  The resume
    # gives the uninterrupted records or raises ValueError (exit 2), and no
    # other exception.  A number replacing a number is an edit of the right
    # type, which a journal cannot tell from the real value: its records
    # may differ.
    manifest, cfg, lines, uninterrupted = cut_journal
    path = data.draw(st.sampled_from(
        [(k,) + leaf for k, line in enumerate(lines) for leaf in _leaves(line)]))
    value = data.draw(st.sampled_from(DAMAGE))
    damaged = copy.deepcopy(lines)
    old = functools.reduce(lambda node, key: node[key], path, damaged)
    _set(damaged, path, value)
    _write_journal(cfg.checkpoint_path, damaged)
    try:
        report = run_series(manifest, cfg)
    except ValueError:
        return
    if not (_is_number(old) and _is_number(value)):
        assert [vars(r) for r in report.records] == uninterrupted


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


def test_improvement_table_over_the_same_instances(tmp_path):
    new = report_csv(tmp_path / "new.csv", [0.5] * 12)
    base = report_csv(tmp_path / "base.csv", [1.0] * 10 + [0.5] * 2)
    table = improvement_table(new, base)
    assert [b["batch"] for b in table["batches"]] == ["1-10", "11-12"]
    assert [b["improvement_pct"] for b in table["batches"]] == [50.0, 0.0]
    assert table["overall"]["baseline"] == pytest.approx(11.0 / 12.0)


@pytest.mark.parametrize("index", [range(40), range(10), [1, 0] + list(range(2, 20))],
                         ids=["longer", "shorter", "reordered"])
def test_improvement_table_rejects_reports_of_other_instances(tmp_path, index):
    # a longer report used to be cut to the baseline's batches, while its
    # overall mean ran over instances the baseline never solved
    new = report_csv(tmp_path / "new.csv", [0.5] * len(index), index=index)
    base = report_csv(tmp_path / "base.csv", [1.0] * 20)
    with pytest.raises(ValueError, match="are not those of the baseline") as info:
        improvement_table(new, base)
    assert str(info.value).startswith(str(new))


@pytest.mark.parametrize("column", ["index", "total_score"])
@pytest.mark.parametrize("side", ["report", "baseline"])
def test_improvement_table_rejects_a_csv_without_a_needed_column(tmp_path, column, side):
    paths = {name: report_csv(tmp_path / f"{name}.csv", [1.0] * 3)
             for name in ("report", "baseline")}
    report_csv(paths[side], [1.0] * 3,
               columns=tuple(c for c in harness.CSV_COLUMNS if c != column))
    with pytest.raises(ValueError, match=f"not a report: no {column} column") as info:
        improvement_table(paths["report"], paths["baseline"])
    assert str(info.value).startswith(str(paths[side]))


def test_improvement_table_rejects_a_total_that_is_not_a_number(tmp_path):
    new = report_csv(tmp_path / "new.csv", [1.0] * 3)
    new.write_text(new.read_text().replace("1.0", "abc", 1))
    base = report_csv(tmp_path / "base.csv", [1.0] * 3)
    with pytest.raises(ValueError, match="total_score is not a number") as info:
        improvement_table(new, base)
    assert str(info.value).startswith(str(new))


def test_unknown_disable_rejected():
    with pytest.raises(ValueError, match="unknown technique"):
        RunConfig(disable=frozenset({"everything"}))


@pytest.mark.parametrize("clock", [0.0, -5.0, math.nan, math.inf])
def test_bad_deterministic_clock_rejected(clock):
    for config in (RunConfig, SolverConfig):
        with pytest.raises(ValueError, match="det_work_per_second"):
            config(det_work_per_second=clock)


@pytest.mark.parametrize("field", ["completesol_node_limit", "completesol_max_improving",
                                   "node_limit"])
def test_negative_solver_limits_rejected(field):
    # a negative cap used to turn hint completion off without a word
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        SolverConfig(**{field: -1})
    SolverConfig(**{field: 0})


@pytest.mark.parametrize("alpha", [-1.0, 100.5, math.nan, math.inf])
def test_bad_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha_pct"):
        RunConfig(alpha_pct=alpha)


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


@pytest.mark.parametrize("off", [(), (HEUR_COMPLETESOL, SEP_GOMORY)])
def test_components_the_ledger_turned_off_get_no_hints_and_no_cuts(tmp_path, monkeypatch, off):
    # hint completion is the only reader of hints and Gomory the only
    # separator: with them off, no hints are assembled and the cut toggles
    # are off, while the records still report the tuner's values
    class Ledger(harness.ComponentLedger):
        def __init__(self):
            super().__init__()
            for name in off:
                self.records[name].disabled_at = 0

    real_assemble, real_solve = harness.assemble_hints, harness.solve
    assembled, configs = [], []
    monkeypatch.setattr(harness, "ComponentLedger", Ledger)
    monkeypatch.setattr(harness, "assemble_hints",
                        lambda *a, **k: assembled.append(a[1]) or real_assemble(*a, **k))
    monkeypatch.setattr(harness, "solve",
                        lambda inst, cfg, *a, **k: configs.append(cfg) or real_solve(inst, cfg, *a, **k))
    report = run_series(_identical_series(tmp_path, n=3),
                        RunConfig(seed=0, det_work_per_second=DET_WPS, disable={"tuning"}))
    assert len(assembled) == (0 if off else 2)
    assert [r.hints_provided for r in report.records] == [False] + [not off] * 2
    assert [(c.use_cuts_root, c.use_cuts_tree) for c in configs] == [(not off, not off)] * 3
    assert all((r.hint_value, r.cuts_value, r.root_cuts_value) == (ON, ON, ON)
               for r in report.records)


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


def test_a_non_finite_lp_point_fails_only_its_instance(tmp_path, monkeypatch):
    manifest = _identical_series(tmp_path, n=3)
    run_cfg = RunConfig(seed=0, det_work_per_second=DET_WPS)
    real_solve = harness.solve

    def run_failing(fail):
        """The series run with `fail(mp)` called as instance 1 starts."""
        calls = []

        def solve(*args, **kwargs):
            calls.append(None)
            with pytest.MonkeyPatch.context() as mp:
                if len(calls) == 2:
                    fail(mp)
                return real_solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", solve)
        return run_series(manifest, run_cfg)

    def boom(mp):
        raise RuntimeError("boom")

    # instance 1's simplex loops all end at NaN points
    report = run_failing(lambda mp: poison_lp(mp, LpStatus.OPTIMAL))
    assert [r.status for r in report.records] == ["OPTIMAL", "ERROR", "OPTIMAL"]
    assert report.records[1].error.startswith("NonFiniteLpError: OPTIMAL solve")
    # instance 0 is solved as with no failure, instance 2 as after any
    # other failure of instance 1
    assert report.records[0] == run_failing(lambda mp: None).records[0]
    other = run_failing(boom)
    assert other.records[1].error == "RuntimeError: boom"
    assert report.records[2] == other.records[2]


def test_checkpoint_records_serialize_like_asdict():
    state = _SeriesState(RunConfig())
    state.records = [ScoreRecord(0, "OPTIMAL", 0.5, -3.0, -0.0, 0.1, 0.0, True,
                                 "FULLSTRONG", "ON", "OFF", "ON", True),
                     _error_record(1, "ValueError: boom", ALL_ON)]
    lines = [_journal_line(state, r) for r in state.records]
    assert json.dumps([line["record"] for line in lines], sort_keys=True) == \
        json.dumps([asdict(r) for r in state.records], sort_keys=True)
    assert lines[0]["pool_entry"] is None
    lines[0]["record"]["pb"] = 99.0   # the journal line is not the record
    assert state.records[0].pb == -3.0
