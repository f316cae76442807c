"""Branching rules: strong-branch accounting, pseudocost updates, scoring."""
from __future__ import annotations

import math

import pytest

from mipseries.lp import LpResult, LpStatus, NonFiniteLpError
from mipseries.solver import (BranchingRule, Candidate, SolverConfig,
                              SolverStats, VariableHistory,
                              select_branch_variable, solve, update_pseudocost)
from mipseries.solver import branching
from mipseries.solver.bb import STRONG_BRANCH_ITER_LIMIT

from conftest import DET_WPS, hard_knapsack, poison_lp


def test_update_pseudocost_examples():
    h = VariableHistory()
    update_pseudocost(h, "up", 2.0, 0.5)
    assert h.avg_pseudocost("up") == pytest.approx(4.0)
    assert h.pscost_up_count == 1.0
    update_pseudocost(h, "up", 0.0, 0.5)
    assert h.avg_pseudocost("up") == pytest.approx(2.0)
    assert h.pscost_up_count == 2.0
    with pytest.raises(ValueError):
        update_pseudocost(h, "up", 1.0, 0.0)
    with pytest.raises(ValueError):
        update_pseudocost(h, "up", -1.0, 0.5)


def _fake_child_solver(objectives):
    """objectives: dict (var, direction) -> objective or 'infeasible'."""
    calls = []

    def solve_child(j, direction, bound):
        calls.append((j, direction, bound))
        val = objectives[(j, direction)]
        if val == "infeasible":
            return LpResult(LpStatus.INFEASIBLE, None, math.inf, None, 1, None)
        return LpResult(LpStatus.OPTIMAL, None, val, None, 1, None)

    return solve_child, calls


def _hist_with_counts(up, down, up_avg=1.0, down_avg=1.0):
    return VariableHistory(pscost_up_sum=up_avg * up, pscost_down_sum=down_avg * down,
                           pscost_up_count=up, pscost_down_count=down)


def test_reliability_skips_reliable_candidates():
    cfg = SolverConfig(branching_rule=BranchingRule.RELIABILITY)
    stats = SolverStats()
    histories = {0: _hist_with_counts(5, 5), 1: _hist_with_counts(6, 7)}
    solve_child, calls = _fake_child_solver({})
    j, _ = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], 0.0, -1.0, histories,
        VariableHistory(), cfg, solve_child, stats)
    assert stats.sb_lp_solves == 0
    assert calls == []
    assert j in (0, 1)


def test_reliability_probes_unreliable_candidate():
    cfg = SolverConfig(branching_rule=BranchingRule.RELIABILITY)
    stats = SolverStats()
    histories = {0: _hist_with_counts(5, 5), 1: VariableHistory()}
    solve_child, calls = _fake_child_solver({(1, "down"): 1.0, (1, "up"): 2.0})
    select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], 0.0, -1.0, histories,
        VariableHistory(), cfg, solve_child, stats)
    assert stats.sb_lp_solves == 2
    assert [c[0] for c in calls] == [1, 1]
    assert histories[1].pscost_up_count == 1.0
    assert histories[1].pscost_down_count == 1.0
    # gain 2.0 over frac 0.5 -> per-unit 4.0
    assert histories[1].avg_pseudocost("up") == pytest.approx(4.0)


def test_fullstrong_probes_all_candidates():
    cfg = SolverConfig(branching_rule=BranchingRule.FULLSTRONG)
    stats = SolverStats()
    cands = [Candidate(j, 0.5) for j in range(4)]
    histories = {j: _hist_with_counts(9, 9) for j in range(4)}
    objs = {}
    for j in range(4):
        objs[(j, "down")] = 1.0 + j
        objs[(j, "up")] = 2.0 + j
    solve_child, calls = _fake_child_solver(objs)
    j, _ = select_branch_variable(cands, 0.0, -1.0, histories, VariableHistory(),
                                  cfg, solve_child, stats)
    assert stats.sb_lp_solves == 8
    assert len(calls) == 8
    assert j == 3   # largest product of measured gains


def test_pseudocost_never_probes_and_uses_global_fallback():
    cfg = SolverConfig(branching_rule=BranchingRule.PSEUDOCOST)
    stats = SolverStats()
    histories = {0: VariableHistory(), 1: _hist_with_counts(2, 2, up_avg=10.0, down_avg=10.0)}
    global_hist = VariableHistory(pscost_up_sum=2.0, pscost_down_sum=2.0,
                                  pscost_up_count=2.0, pscost_down_count=2.0)
    solve_child, calls = _fake_child_solver({})
    j, _ = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], 0.0, -1.0, histories,
        global_hist, cfg, solve_child, stats)
    assert stats.sb_lp_solves == 0 and calls == []
    # var 1 has a real average of 10 > global fallback 1 for var 0
    assert j == 1


def test_tie_breaks_to_lowest_index():
    cfg = SolverConfig(branching_rule=BranchingRule.PSEUDOCOST)
    stats = SolverStats()
    histories = {2: _hist_with_counts(3, 3), 5: _hist_with_counts(3, 3)}
    solve_child, _ = _fake_child_solver({})
    j, _ = select_branch_variable(
        [Candidate(2, 0.5), Candidate(5, 0.5)], 0.0, -1.0, histories,
        VariableHistory(), cfg, solve_child, stats)
    assert j == 2


def test_infeasible_child_scores_large_gain_without_history_update():
    cfg = SolverConfig(branching_rule=BranchingRule.FULLSTRONG)
    stats = SolverStats()
    histories = {0: VariableHistory(), 1: VariableHistory()}
    global_hist = VariableHistory()
    objs = {(0, "down"): 0.1, (0, "up"): "infeasible",
            (1, "down"): 0.2, (1, "up"): 0.3}
    solve_child, _ = _fake_child_solver(objs)
    j, _ = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], 0.0, -5.0, histories,
        global_hist, cfg, solve_child, stats)
    # infeasible up child contributes gain 1e6 * |db|, dwarfing candidate 1
    assert j == 0
    # the infeasible direction leaves every history as the three optimal
    # probes alone make it
    expected = {0: VariableHistory(), 1: VariableHistory()}
    expected_global = VariableHistory()
    for (k, direction), obj in objs.items():
        if obj != "infeasible":
            update_pseudocost(expected[k], direction, obj, 0.5)
            update_pseudocost(expected_global, direction, obj, 0.5)
    assert histories == expected and global_hist == expected_global
    assert histories[0].pscost_up_count == 0.0


def test_no_fractional_candidate_is_contract_violation():
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        select_branch_variable([], 0.0, -1.0, {}, VariableHistory(), cfg,
                               lambda *a: None, SolverStats())


def test_a_probe_that_ends_at_a_non_finite_point_updates_no_pseudocost(monkeypatch):
    updates = []
    real_update = branching.update_pseudocost
    monkeypatch.setattr(branching, "update_pseudocost",
                        lambda *args: updates.append(args) or real_update(*args))
    cfg = SolverConfig(branching_rule=BranchingRule.FULLSTRONG, use_cuts_root=False,
                       use_cuts_tree=False, enabled_heuristics=frozenset(),
                       det_work_per_second=DET_WPS)
    solve(hard_knapsack(), cfg, 1e9)
    assert updates   # the probes update pseudocosts when they end finite
    updates.clear()
    # every strong-branching probe ends at NaN points
    poisoned = poison_lp(monkeypatch, LpStatus.OPTIMAL,
                         when=lambda iter_limit: iter_limit == STRONG_BRANCH_ITER_LIMIT)
    with pytest.raises(NonFiniteLpError):
        solve(hard_knapsack(), cfg, 1e9)
    assert poisoned == [STRONG_BRANCH_ITER_LIMIT] and updates == []
