"""Hint construction, history transfer and the branching-rule policy."""
from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from mipseries.model import Component, Sense
from mipseries.reopt import (HistoryStore, PoolEntry, SolutionPool,
                             assemble_hints, branching_policy,
                             build_common_hint, clip_and_strip,
                             completesol_params, record_outcome,
                             transfer_histories)
from mipseries.solver import (BranchingRule, SolverConfig, SolveStatus,
                              VariableHistory, solve)

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


def test_transfer_caps_counts_and_preserves_averages():
    hist = {"x0": VariableHistory(pscost_up_sum=30.0, pscost_up_count=10.0,
                                  pscost_down_sum=3.0, pscost_down_count=3.0)}
    store = HistoryStore(histories=hist, global_history=VariableHistory(
        pscost_up_sum=100.0, pscost_up_count=50.0), source_index=0)
    out, g = transfer_histories(store, _target())
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
    target = _target()
    for _ in range(50):
        s, c = float(rng.uniform(0, 100)), float(rng.uniform(4.01, 60))
        store = HistoryStore(histories={"x0": VariableHistory(
            pscost_up_sum=s, pscost_up_count=c)}, global_history=VariableHistory())
        out, _ = transfer_histories(store, target)
        assert out["x0"].pscost_up_count == 4.0
        assert abs(out["x0"].avg_pseudocost("up") - s / c) <= 1e-12


def test_transfer_unknown_name_raises():
    store = HistoryStore(histories={"nope": VariableHistory()},
                         global_history=VariableHistory())
    with pytest.raises(KeyError):
        transfer_histories(store, _target())


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
    pool, store = SolutionPool(), HistoryStore()
    record_outcome(pool, store, out, 0, inst.var_names)
    assert len(pool) == 1 and store.source_index == 0
    record_outcome(pool, store, out, 0, inst.var_names)
    assert len(pool) == 1                                  # overwrite, not append

    # outcome without a feasible solution leaves the pool unchanged
    inf = make_instance("i", [1.0], [([1.0], Sense.GE, 9.0)], [0], [5], ints=(0,))
    out_inf = solve(inf, cfg, 1e6)
    assert out_inf.best_solution is None
    record_outcome(pool, store, out_inf, 1, inf.var_names)
    assert len(pool) == 1 and store.source_index == 1


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


def test_history_store_serialization_roundtrip():
    store = HistoryStore(histories={"x0": VariableHistory(pscost_up_sum=1.5,
                                                          pscost_up_count=2.0)},
                         global_history=VariableHistory(pscost_down_sum=4.0,
                                                      pscost_down_count=8.0),
                         source_index=3)
    again = HistoryStore.from_json_dict(store.to_json_dict())
    assert vars(again.histories["x0"]) == vars(store.histories["x0"])
    assert vars(again.global_history) == vars(store.global_history)
    assert again.source_index == 3


def _random_history(rng):
    """Some fields zero or -0.0, others fractional, one sometimes NaN."""
    vals = []
    for _ in fields(VariableHistory):
        u = rng.random()
        vals.append(0.0 if u < 0.4 else -0.0 if u < 0.5 else float("nan") if u < 0.52
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
    store = HistoryStore(histories={"x0": VariableHistory(pscost_down_sum=2.0)},
                         global_history=g, source_index=0)
    out, g2 = transfer_histories(store, _target())
    assert g2 is not g
    assert g2.pscost_up_count == 4.0 and g.pscost_up_count == 6.0
    tree = _TreeSolver(_target(), SolverConfig(), 1e6, warm_histories=(out, g2))
    assert tree.global_hist is not g2
    assert tree.global_hist.to_dict() == g2.to_dict()
    assert tree.histories[0] is not out["x0"]
    tree.global_hist.pscost_up_sum += 1.0
    tree.histories[0].pscost_down_sum += 1.0
    assert g2.pscost_up_sum == 6.0 and out["x0"].pscost_down_sum == 2.0


def test_history_store_json_matches_asdict_form():
    rng = np.random.default_rng(52)
    store = HistoryStore(
        histories={f"x{j}": _random_history(rng) for j in range(5)},
        global_history=_random_history(rng), source_index=3)
    old = {"source_index": 3,
           "histories": {name: asdict(h) for name, h in store.histories.items()},
           "global_history": asdict(store.global_history)}
    assert json.dumps(store.to_json_dict(), sort_keys=True) == \
        json.dumps(old, sort_keys=True)
    back = HistoryStore.from_json_dict(json.loads(json.dumps(store.to_json_dict())))
    assert type(back.global_history) is VariableHistory
