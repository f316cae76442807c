"""Branching: selection with fake probes, and the tree's probes and what they
teach the pseudocosts."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from mipseries.lp import LpStatus, NonFiniteLpError
from mipseries.model import Sense
from mipseries.solver import (BranchingRule, Candidate, SolverConfig,
                              VariableHistory, select_branch_variable, solve,
                              update_pseudocost)
from mipseries.solver import bb
from mipseries.solver.bb import (INFEASIBLE_GAIN_SCALE, STRONG_BRANCH_ITER_LIMIT,
                                 _TreeSolver)

from conftest import DET_WPS, hard_knapsack, make_instance, poison_lp


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


# -- selection, with fake probes -----------------------------------------------

def _fake_probe(gains):
    """gains: candidate index -> (gain_down, gain_up).  Returns the probe and
    the list of the indices it was called with, in call order."""
    calls = []

    def solve_child(cand):
        calls.append(cand.index)
        return gains[cand.index]

    return solve_child, calls


def _hist_with_counts(up, down, up_avg=1.0, down_avg=1.0):
    return VariableHistory(pscost_up_sum=up_avg * up, pscost_down_sum=down_avg * down,
                           pscost_up_count=up, pscost_down_count=down)


def test_reliability_skips_reliable_candidates():
    histories = {0: _hist_with_counts(5, 5), 1: _hist_with_counts(6, 7)}
    solve_child, calls = _fake_probe({})
    j, _ = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], histories, VariableHistory(),
        BranchingRule.RELIABILITY, solve_child)
    assert calls == []
    assert j in (0, 1)


def test_reliability_probes_unreliable_candidate():
    # var 0 is reliable and estimated at 1.0 * 0.5 each way; var 1 is probed
    # and wins on its measured gains, which the selection does not record
    histories = {0: _hist_with_counts(5, 5), 1: _hist_with_counts(4, 9)}
    before = {j: h.copy() for j, h in histories.items()}
    solve_child, calls = _fake_probe({1: (1.0, 2.0)})
    j, xj = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.25)], histories, VariableHistory(),
        BranchingRule.RELIABILITY, solve_child)
    assert calls == [1]
    assert (j, xj) == (1, 0.25)
    assert histories == before


def test_fullstrong_probes_all_candidates():
    cands = [Candidate(j, 0.5) for j in range(4)]
    histories = {j: _hist_with_counts(9, 9) for j in range(4)}
    solve_child, calls = _fake_probe({j: (1.0 + j, 2.0 + j) for j in range(4)})
    j, _ = select_branch_variable(cands, histories, VariableHistory(),
                                  BranchingRule.FULLSTRONG, solve_child)
    assert calls == [0, 1, 2, 3]
    assert j == 3   # largest product of measured gains


def test_pseudocost_never_probes_and_uses_global_fallback():
    histories = {0: VariableHistory(), 1: _hist_with_counts(2, 2, up_avg=10.0, down_avg=10.0)}
    global_hist = VariableHistory(pscost_up_sum=2.0, pscost_down_sum=2.0,
                                  pscost_up_count=2.0, pscost_down_count=2.0)
    solve_child, calls = _fake_probe({})
    j, _ = select_branch_variable(
        [Candidate(0, 0.5), Candidate(1, 0.5)], histories, global_hist,
        BranchingRule.PSEUDOCOST, solve_child)
    assert calls == []
    # var 1 has a real average of 10 > global fallback 1 for var 0
    assert j == 1


def test_tie_breaks_to_lowest_index():
    histories = {2: _hist_with_counts(3, 3), 5: _hist_with_counts(3, 3)}
    solve_child, _ = _fake_probe({})
    j, _ = select_branch_variable(
        [Candidate(2, 0.5), Candidate(5, 0.5)], histories, VariableHistory(),
        BranchingRule.PSEUDOCOST, solve_child)
    assert j == 2
    # measured gains tie the same way
    solve_child, _ = _fake_probe({2: (1.0, 3.0), 5: (3.0, 1.0)})
    j, _ = select_branch_variable(
        [Candidate(2, 0.5), Candidate(5, 0.5)], histories, VariableHistory(),
        BranchingRule.FULLSTRONG, solve_child)
    assert j == 2


def test_no_fractional_candidate_is_contract_violation():
    with pytest.raises(ValueError):
        select_branch_variable([], {}, VariableHistory(), BranchingRule.FULLSTRONG,
                               lambda cand: (0.0, 0.0))


# -- the tree's probes ----------------------------------------------------------

# min -x0 - 2 x1 - 3 x2 - 4 x3 over binaries with 2 x0 + 2 x1 <= 1 and
# 2 x2 + 2 x3 <= 3: the root LP is x = (0, 0.5, 0.5, 1), objective -6.5.
# Probing x1 up is infeasible; x1 down gains 0.5, x2 down 1.5, x2 up 0.5.
def _two_candidate_mip():
    return make_instance("sb", [-1.0, -2.0, -3.0, -4.0],
                         [([2.0, 2.0, 0.0, 0.0], Sense.LE, 1.0),
                          ([0.0, 0.0, 2.0, 2.0], Sense.LE, 3.0)],
                         np.zeros(4), np.ones(4), ints=range(4))


def _root_probes(monkeypatch, db=None):
    """Process the root of `_two_candidate_mip` under full strong branching,
    with neither presolve, cuts nor heuristics, and with the dual bound `db`
    when given.  Returns the tree; the root's "bound", LP point "x" and
    "chosen" branching column; each probe as (column, direction, LP result);
    and each candidate's gains as `solve_child` returned them."""
    probes, gains, root = [], {}, {}

    class Spy(_TreeSolver):
        def _process_node(self, node):
            if db is not None:
                self.db_final = db
            return super()._process_node(node)

        def _lp(self, rows, lo, hi, *args, **kwargs):
            res = super()._lp(rows, lo, hi, *args, **kwargs)
            if sys._getframe(1).f_code.co_name == "solve_child":
                (j,) = np.flatnonzero((lo != self.inst.lower) | (hi != self.inst.upper))
                probes.append((int(j), "up" if lo[j] > self.inst.lower[j] else "down", res))
            else:
                root.setdefault("x", res.primal)
            return res

        def _push(self, node):
            if node.nid:
                root["bound"] = node.bound
            super()._push(node)

    real_select = bb.select_branch_variable

    def select(candidates, histories, global_hist, rule, solve_child):
        def probe(cand):
            gains[cand.index] = solve_child(cand)
            return gains[cand.index]
        choice = real_select(candidates, histories, global_hist, rule, probe)
        root["chosen"] = choice[0]
        return choice

    monkeypatch.setattr(bb, "select_branch_variable", select)
    cfg = SolverConfig(branching_rule=BranchingRule.FULLSTRONG, use_cuts_root=False,
                       use_cuts_tree=False, enabled_heuristics=frozenset(),
                       enabled_presolvers=frozenset(), node_limit=1,
                       det_work_per_second=DET_WPS)
    tree = Spy(_two_candidate_mip(), cfg, 1e6)
    tree.solve()
    return tree, root, probes, gains


def test_optimal_probes_teach_the_variable_and_global_histories(monkeypatch):
    tree, root, probes, gains = _root_probes(monkeypatch)
    bound, x = root["bound"], root["x"]
    assert bound == pytest.approx(-6.5)
    assert [(j, d) for j, d, _ in probes] == [(1, "down"), (1, "up"), (2, "down"), (2, "up")]
    assert tree.stats.sb_lp_solves == len(probes)
    expected = {j: VariableHistory() for j in range(4)}
    expected_global = VariableHistory()
    for j, direction, res in probes:
        if res.status is LpStatus.OPTIMAL:
            frac = x[j] - np.floor(x[j]) if direction == "down" else np.ceil(x[j]) - x[j]
            update_pseudocost(expected[j], direction, res.objective - bound, frac)
            update_pseudocost(expected_global, direction, res.objective - bound, frac)
    assert tree.histories == expected and tree.global_hist == expected_global
    assert expected[2].avg_pseudocost("down") == pytest.approx(3.0)
    assert expected[2].avg_pseudocost("up") == pytest.approx(1.0)
    assert gains[2] == pytest.approx((1.5, 0.5))


def test_probes_that_end_at_the_iteration_limit_teach_nothing(monkeypatch):
    monkeypatch.setattr(bb, "STRONG_BRANCH_ITER_LIMIT", 0)
    tree, root, probes, gains = _root_probes(monkeypatch)
    stopped = [(j, d, res) for j, d, res in probes if res.status is LpStatus.ITER_LIMIT]
    assert stopped
    for j, direction, res in stopped:
        gain = max(res.objective - root["bound"], 0.0)
        assert gains[j][direction == "up"] == gain
    assert all(res.status is not LpStatus.OPTIMAL for _, _, res in probes)
    assert tree.global_hist.is_empty()
    assert all(h.is_empty() for h in tree.histories.values())


def _check_infeasible_child(monkeypatch, db, scale):
    tree, root, probes, gains = _root_probes(monkeypatch, db)
    statuses = {(j, d): res.status for j, d, res in probes}
    assert statuses[(1, "up")] is LpStatus.INFEASIBLE
    assert gains[1][1] == INFEASIBLE_GAIN_SCALE * scale
    assert gains[1][0] == pytest.approx(0.5)
    assert root["chosen"] == 1   # the large gain outscores x2's 1.5 * 0.5
    # the infeasible direction is in no history; the down probe of x1 is
    assert tree.histories[1].pscost_up_count == 0.0
    assert tree.histories[1].pscost_down_count == 1.0
    assert tree.global_hist.pscost_up_count == 1.0   # x2 up only
    assert tree.global_hist.pscost_down_count == 2.0


def test_infeasible_child_scores_large_gain_without_history_update(monkeypatch):
    _check_infeasible_child(monkeypatch, -5.0, 5.0)


@pytest.mark.parametrize("db", [None, -0.5])
def test_infeasible_gain_scale_is_one_without_a_large_dual_bound(monkeypatch, db):
    # with no dual bound yet (-inf at the root) or |db| < 1 the scale is 1
    _check_infeasible_child(monkeypatch, db, 1.0)


def test_a_probe_that_ends_at_a_non_finite_point_updates_no_pseudocost(monkeypatch):
    updates = []
    real_update = bb.update_pseudocost
    monkeypatch.setattr(bb, "update_pseudocost",
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
