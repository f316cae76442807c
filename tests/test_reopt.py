"""Hint construction, history transfer and the branching-rule policy."""
from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from mipseries.harness import (RunConfig, _error_record, _journal_line,
                               _load_checkpoint, _write_checkpoint)
from mipseries.model import Component, Sense, SeriesManifest
from mipseries.reopt import (PoolEntry, SolutionPool, assemble_hints,
                             branching_policy, build_common_hint, clip_and_strip,
                             completesol_params, record_outcome,
                             transfer_histories)
from mipseries.solver import (BranchingRule, SolveOutcome, SolverConfig, SolveStatus,
                              VariableHistory, fresh_stats, solve)
from mipseries.tuner import ON, PARAM_ORDER

from mipseries.solver.bb import _TreeSolver

from conftest import DET_WPS, make_instance, validate_hint_set


def _target(u0=5.0):
    return make_instance("t", [1.0, 1.0, 1.0],
                         [([1.0, 1.0, 1.0], Sense.LE, 100.0)],
                         [0, 0, 0], [u0, 10, 10], ints=(0, 1))


def test_clip_above_upper_bound():
    target = _target(u0=5.0)
    out = clip_and_strip({"x0": 7.0, "x1": 3.0, "x2": 2.5}, target)
    assert out == {"x0": 5.0, "x1": 3.0}     # clipped, unchanged, stripped


def test_clip_within_bounds_unchanged():
    target = _target()
    assert clip_and_strip({"x1": 3.0}, target) == {"x1": 3.0}


def test_continuous_values_stripped():
    target = _target()
    assert clip_and_strip({"x2": 2.5}, target) == {}


def test_clip_unknown_name_raises():
    target = _target()
    with pytest.raises(KeyError):
        clip_and_strip({"zz": 1.0}, target)


def _pool_with(values_list):
    pool = SolutionPool()
    for i, vals in enumerate(values_list):
        pool.set(i, PoolEntry(i, 0.0, vals))
    return pool


def test_common_hint_membership_rules():
    target = _target()
    # pair (x0, 1) in first solution and 9 of 10 pooled -> included at alpha 90
    values = [{"x0": 1.0, "x1": 5.0}]
    values += [{"x0": 1.0, "x1": float(i)} for i in range(2, 10)]  # 8 more with x0=1
    values += [{"x0": 0.0, "x1": 99.0}]
    pool = _pool_with(values)
    assert len(pool) == 10
    hint = build_common_hint(pool, target, alpha_pct=90.0)
    assert hint == {"x0": 1.0}

    # pair present in 10/10 but differing in the first solution -> excluded
    values = [{"x0": 1.0}] + [{"x0": 0.0}] * 9
    hint = build_common_hint(_pool_with(values), target, 90.0)
    assert hint == {}

    # pair in first but only 8/10 -> excluded
    values = [{"x0": 1.0}] * 8 + [{"x0": 0.0}] * 2
    hint = build_common_hint(_pool_with(values), target, 90.0)
    assert hint == {}


def test_common_hint_empty_pool():
    assert build_common_hint(SolutionPool(), _target(), 90.0) == {}


def test_common_hint_values_clipped_after_membership():
    # archived value 7 matches in every solution; clipping to u=5 happens last
    target = _target(u0=5.0)
    values = [{"x0": 7.0}] * 10
    hint = build_common_hint(_pool_with(values), target, 90.0)
    assert hint == {"x0": 5.0}


def test_assemble_hint_counts():
    target = _target()
    pool = _pool_with([{"x0": 1.0, "x1": 1.0}] * 8)
    objective_only = assemble_hints(pool, target, {Component.OBJECTIVE})
    assert len(objective_only) == 5        # 1 common + 4 clipped
    rhs_series = assemble_hints(pool, target, {Component.RHS})
    assert len(rhs_series) == 9            # 1 common + 8 available clipped
    pool20 = _pool_with([{"x0": 1.0, "x1": 1.0}] * 20)
    assert len(assemble_hints(pool20, target, {Component.RHS})) == 10
    assert len(assemble_hints(SolutionPool(), target, {Component.RHS})) == 0


def test_assemble_hints_validate_and_order():
    target = _target()
    pool = _pool_with([{"x0": 1.0, "x1": 2.0}] * 12)
    hints = assemble_hints(pool, target, {Component.RHS})
    validate_hint_set(hints, target)
    assert hints[0].provenance == "COMMON"
    assert hints[1].provenance == "CLIPPED_PREV(11)"   # most recent first


def _outcome(histories, global_history=None) -> SolveOutcome:
    """A finished solve that left these histories, and nothing else."""
    return SolveOutcome(SolveStatus.OPTIMAL, 0.0, 0.0, None, fresh_stats(), histories,
                        VariableHistory() if global_history is None else global_history,
                        0.0)


def test_transfer_caps_counts_and_preserves_averages():
    hist = {"x0": VariableHistory(pscost_up_sum=30.0, pscost_up_count=10.0,
                                  pscost_down_sum=3.0, pscost_down_count=3.0)}
    out, g = transfer_histories(_outcome(hist, VariableHistory(
        pscost_up_sum=100.0, pscost_up_count=50.0)))
    h = out["x0"]
    assert h.pscost_up_count == 4.0
    assert h.pscost_up_sum == pytest.approx(12.0)
    assert h.avg_pseudocost("up") == 3.0                   # preserved exactly
    assert h.pscost_down_count == 3.0                      # below cap: unchanged
    assert h.pscost_down_sum == 3.0
    assert g.pscost_up_count == 4.0
    assert g.pscost_up_sum == pytest.approx(8.0)


def test_transfer_average_exact_on_random_histories():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s, c = float(rng.uniform(0, 100)), float(rng.uniform(4.01, 60))
        out, _ = transfer_histories(_outcome({"x0": VariableHistory(
            pscost_up_sum=s, pscost_up_count=c)}))
        assert out["x0"].pscost_up_count == 4.0
        assert abs(out["x0"].avg_pseudocost("up") - s / c) <= 1e-12


def test_transfer_unknown_name_raises():
    # the solve that starts from the histories checks their names
    warm = transfer_histories(_outcome({"nope": VariableHistory()}))
    with pytest.raises(KeyError):
        _TreeSolver(_target(), SolverConfig(), 1e6, warm_histories=warm)


def test_branching_policy_table():
    assert branching_policy(0, {Component.RHS}) is BranchingRule.FULLSTRONG
    assert branching_policy(0, {Component.OBJECTIVE}) is BranchingRule.FULLSTRONG
    assert branching_policy(3, {Component.RHS}) is BranchingRule.PSEUDOCOST
    assert branching_policy(3, {Component.MATRIX, Component.RHS}) is BranchingRule.PSEUDOCOST
    assert branching_policy(3, {Component.OBJECTIVE}) is BranchingRule.RELIABILITY
    assert branching_policy(1, {Component.BOUNDS}) is BranchingRule.RELIABILITY
    assert branching_policy(5, {Component.RHS, Component.OBJECTIVE}) is BranchingRule.RELIABILITY


def test_completesol_params_policy():
    assert completesol_params({Component.OBJECTIVE}) == (500, 5)
    assert completesol_params({Component.RHS}) == (5000, None)
    assert completesol_params({Component.OBJECTIVE, Component.RHS}) == (5000, None)


def test_record_outcome_idempotent_and_pool_growth():
    inst = make_instance("r", [-1.0], [([1.0], Sense.LE, 3.0)], [0], [5], ints=(0,))
    cfg = SolverConfig(det_work_per_second=DET_WPS)
    out = solve(inst, cfg, 1e6)
    assert out.status is SolveStatus.OPTIMAL
    pool = SolutionPool()
    record_outcome(pool, out, 0, inst.var_names)
    assert len(pool) == 1
    record_outcome(pool, out, 0, inst.var_names)
    assert len(pool) == 1                                  # overwrite, not append

    # outcome without a feasible solution leaves the pool unchanged
    inf = make_instance("i", [1.0], [([1.0], Sense.GE, 9.0)], [0], [5], ints=(0,))
    out_inf = solve(inf, cfg, 1e6)
    assert out_inf.best_solution is None
    record_outcome(pool, out_inf, 1, inf.var_names)
    assert len(pool) == 1 and pool.get(1) is None


def test_hint_set_invariants_on_random_series():
    rng = np.random.default_rng(77)
    target = _target()
    for _ in range(30):
        entries = []
        for i in range(int(rng.integers(1, 12))):
            entries.append({"x0": float(rng.integers(-2, 9)),
                            "x1": float(rng.integers(-2, 9)),
                            "x2": float(rng.uniform(0, 10))})
        pool = _pool_with(entries)
        hints = assemble_hints(pool, target, {Component.BOUNDS})
        validate_hint_set(hints, target)
        assert len(hints) <= 10


def _journal_roundtrip(tmp_path, warm):
    """The histories a resume reads back from a journal line written with
    `warm` as the state's capped histories."""
    manifest = SeriesManifest("s", (tmp_path / "i.json",), 1.0, frozenset({Component.RHS}))
    cfg = RunConfig(disable=frozenset({"tuning"}), checkpoint_path=tmp_path / "ck.json")
    state = _load_checkpoint(cfg.checkpoint_path, manifest, cfg)   # writes the header
    state.warm = warm
    line = _journal_line(state, _error_record(0, "E: x", dict.fromkeys(PARAM_ORDER, ON)))
    _write_checkpoint(cfg.checkpoint_path, line)
    return line["warm"], _load_checkpoint(cfg.checkpoint_path, manifest, cfg).warm


def test_transferred_histories_journal_roundtrip(tmp_path):
    hist = {"x0": VariableHistory(pscost_up_sum=1.5, pscost_up_count=9.0),
            "x1": VariableHistory(pscost_down_sum=0.1, pscost_down_count=3.0)}
    warm = transfer_histories(_outcome(hist, VariableHistory(pscost_down_sum=4.0,
                                                             pscost_down_count=8.0)))
    _, (by_name, g) = _journal_roundtrip(tmp_path, warm)
    assert {name: vars(h) for name, h in by_name.items()} == \
        {name: vars(h) for name, h in warm[0].items()}
    assert vars(g) == vars(warm[1])
    # read back capped, with the exact average
    assert by_name["x0"].pscost_up_count == 4.0 and by_name["x0"].avg_pseudocost("up") == 1.5 / 9.0
    assert g.pscost_down_count == 4.0 and g.pscost_down_sum == 2.0


def _random_history(rng, nan=True):
    """Some fields zero or -0.0, others fractional, one sometimes NaN (never
    without `nan`)."""
    vals = []
    for _ in fields(VariableHistory):
        u = rng.random()
        vals.append(0.0 if u < 0.4 else -0.0 if u < 0.5 else float("nan") if nan and u < 0.52
                    else float(rng.uniform(0, 50)))
    return VariableHistory(*vals)


def _reprs(hist):
    return [repr(v) for v in asdict(hist).values()]


def test_history_copy_and_is_empty_match_asdict_versions():
    rng = np.random.default_rng(51)
    empties = 0
    for trial in range(400):
        h = _random_history(rng)
        if trial % 4 == 0:   # all zeros, some of them -0.0
            h = VariableHistory(*[-0.0 if rng.random() < 0.3 else 0.0
                                  for _ in fields(VariableHistory)])
        c = h.copy()
        assert type(c) is VariableHistory and c is not h
        assert _reprs(c) == _reprs(VariableHistory(**asdict(h)))
        assert h.is_empty() == all(v == 0.0 for v in asdict(h).values())
        empties += h.is_empty()
        assert list(h.to_dict()) == list(asdict(h))
        assert [repr(v) for v in h.to_dict().values()] == _reprs(h)
        before = _reprs(h)
        for f in fields(VariableHistory):   # a copy shares no state with its original
            setattr(c, f.name, 7.0)
        assert _reprs(h) == before
    assert 100 <= empties < 400


def test_history_copies_share_nothing():
    g = VariableHistory(pscost_up_sum=9.0, pscost_up_count=6.0)
    x0 = VariableHistory(pscost_down_sum=2.0)
    out, g2 = transfer_histories(_outcome({"x0": x0}, g))
    assert g2 is not g and out["x0"] is not x0
    assert g2.pscost_up_count == 4.0 and g.pscost_up_count == 6.0
    tree = _TreeSolver(_target(), SolverConfig(), 1e6, warm_histories=(out, g2))
    assert tree.global_hist is not g2
    assert tree.global_hist.to_dict() == g2.to_dict()
    assert tree.histories[0] is not out["x0"]
    tree.global_hist.pscost_up_sum += 1.0
    tree.histories[0].pscost_down_sum += 1.0
    assert g2.pscost_up_sum == 6.0 and out["x0"].pscost_down_sum == 2.0


def test_journal_histories_match_asdict_form(tmp_path):
    # finite fields only: a journal history with a NaN is refused
    # (test_harness.py::test_checkpoint_with_a_bad_history_rejected)
    rng = np.random.default_rng(52)
    warm = ({f"x{j}": _random_history(rng, nan=False) for j in range(5)},
            _random_history(rng, nan=False))
    written, (by_name, g) = _journal_roundtrip(tmp_path, warm)
    old = {"histories": {name: asdict(h) for name, h in warm[0].items()},
           "global_history": asdict(warm[1])}
    assert json.dumps(written, sort_keys=True) == json.dumps(old, sort_keys=True)
    assert type(g) is VariableHistory
    assert {name: _reprs(h) for name, h in by_name.items()} == \
        {name: _reprs(h) for name, h in warm[0].items()}
    assert _reprs(g) == _reprs(warm[1])
