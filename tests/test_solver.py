"""Branch-and-bound: oracle equivalence, limits, determinism, invariants."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from mipseries.model import Sense, check_feasibility
from mipseries.solver import BranchingRule, SolverConfig, SolveStatus, solve

from conftest import (DET_WPS, enumerate_mip, hard_knapsack, make_instance,
                      random_feasible_mip)


def _cfg(**kw):
    kw.setdefault("det_work_per_second", DET_WPS)
    return SolverConfig(**kw)


def test_integral_root_solves_in_one_node():
    inst = make_instance("a", [1.0], [([1.0], Sense.GE, 2.0)], [0], [10], ints=(0,))
    out = solve(inst, _cfg(), 1e6)
    assert out.status is SolveStatus.OPTIMAL
    assert out.stats.nodes == 1
    assert out.primal_bound == pytest.approx(2.0)


def test_binary_knapsack_matches_enumeration():
    rng = np.random.default_rng(8)
    c = -rng.integers(1, 20, 10).astype(float)
    w = rng.integers(1, 15, 10).astype(float)
    inst = make_instance("knap", c, [(w, Sense.LE, float(w.sum() // 2))],
                         np.zeros(10), np.ones(10), ints=range(10))
    _, ref = enumerate_mip(inst)
    out = solve(inst, _cfg(), 1e6)
    assert out.status is SolveStatus.OPTIMAL
    assert out.primal_bound == pytest.approx(ref, abs=1e-6)


def test_zero_time_limit():
    inst = hard_knapsack()
    out = solve(inst, _cfg(), 0.0)
    assert out.status is SolveStatus.TIME_LIMIT
    assert out.primal_bound == np.inf
    assert out.dual_bound == -np.inf


def test_node_limit_status():
    inst = hard_knapsack()
    out = solve(inst, _cfg(branching_rule=BranchingRule.PSEUDOCOST,
                     use_cuts_root=False, use_cuts_tree=False, node_limit=3), 1e6)
    assert out.status is SolveStatus.NODE_LIMIT
    assert out.stats.nodes == 3
    assert out.dual_bound <= out.primal_bound + 1e-6


def test_infeasible_instance():
    inst = make_instance("inf", [1.0], [([1.0], Sense.GE, 5.0), ([1.0], Sense.LE, 2.0)],
                         [0], [10], ints=(0,))
    out = solve(inst, _cfg(), 1e6)
    assert out.status is SolveStatus.INFEASIBLE
    assert out.best_solution is None


def test_oracle_equivalence_across_rules_and_toggles():
    rng = np.random.default_rng(14)
    for _ in range(10):
        inst = random_feasible_mip(rng, max_vars=8, max_rows=6)
        feasible, ref = enumerate_mip(inst)
        assert feasible
        for rule in BranchingRule:
            for root, tree in ((True, True), (False, False)):
                out = solve(inst, _cfg(branching_rule=rule, use_cuts_root=root,
                                 use_cuts_tree=tree), 1e6)
                assert out.status is SolveStatus.OPTIMAL
                assert out.primal_bound == pytest.approx(ref, abs=1e-6), \
                    f"{inst.name} {rule} cuts=({root},{tree})"


def test_mixed_integer_against_scipy_completion():
    # enumerate integer assignments, complete the continuous part with scipy
    rng = np.random.default_rng(4)
    for _ in range(6):
        n_int, n_cont = 4, 2
        n = n_int + n_cont
        c = rng.integers(-5, 6, n).astype(float)
        A = rng.integers(-3, 4, (3, n)).astype(float)
        z = rng.integers(0, 3, n).astype(float)
        rows = [(A[i], Sense.LE, float(A[i] @ z) + 2.0) for i in range(3)]
        inst = make_instance("mix", c, rows, np.zeros(n), np.full(n, 2.0),
                             ints=range(n_int))
        best = None
        for assignment in np.ndindex(*(3,) * n_int):
            xint = np.array(assignment, dtype=float)
            res = linprog(c[n_int:],
                          A_ub=A[:, n_int:],
                          b_ub=np.array([r[2] for r in rows]) - A[:, :n_int] @ xint,
                          bounds=[(0, 2)] * n_cont, method="highs")
            if res.status == 0:
                val = float(c[:n_int] @ xint + res.fun)
                best = val if best is None else min(best, val)
        out = solve(inst, _cfg(), 1e6)
        assert out.status is SolveStatus.OPTIMAL
        assert best is not None
        assert out.primal_bound == pytest.approx(best, abs=1e-6)


def test_pseudocost_rule_makes_zero_sb_solves():
    inst = hard_knapsack()
    out = solve(inst, _cfg(branching_rule=BranchingRule.PSEUDOCOST), 1e6)
    assert out.stats.sb_lp_solves == 0
    assert out.status is SolveStatus.OPTIMAL


def test_fullstrong_produces_histories():
    inst = hard_knapsack()
    out = solve(inst, _cfg(branching_rule=BranchingRule.FULLSTRONG), 1e6)
    assert out.stats.sb_lp_solves > 0
    assert out.histories, "full strong branching must populate histories"
    g = out.global_history
    assert g.pscost_up_count > 0 and g.pscost_down_count > 0


def test_incumbents_pass_feasibility_check():
    rng = np.random.default_rng(25)
    for _ in range(8):
        inst = random_feasible_mip(rng, max_vars=9, max_rows=7)
        out = solve(inst, _cfg(), 1e6)
        if out.best_solution is not None:
            assert check_feasibility(inst, out.best_solution.values).feasible
            assert out.best_solution.objective == pytest.approx(
                float(inst.objective @ out.best_solution.values), abs=1e-9)


def test_bounds_invariant_db_le_pb():
    inst = hard_knapsack()
    for limit_nodes in (1, 5, 20, None):
        out = solve(inst, _cfg(node_limit=limit_nodes, use_cuts_root=False,
                         use_cuts_tree=False), 1e6)
        assert out.dual_bound <= out.primal_bound + 1e-6
        if out.status is SolveStatus.OPTIMAL:
            assert abs(out.primal_bound - out.dual_bound) <= 1e-6 * max(1, abs(out.primal_bound))


def test_bit_identical_outcome_on_repeat():
    inst = hard_knapsack()
    a = solve(inst, _cfg(), 1e6)
    b = solve(inst, _cfg(), 1e6)
    assert a.primal_bound == b.primal_bound
    assert a.dual_bound == b.dual_bound
    assert a.solve_time == b.solve_time
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.sb_lp_solves == b.stats.sb_lp_solves
    assert a.stats.lp_iterations == b.stats.lp_iterations
    assert np.array_equal(a.best_solution.values, b.best_solution.values)
    sa = {k: vars(v) for k, v in a.histories.items()}
    sb = {k: vars(v) for k, v in b.histories.items()}
    assert sa == sb


def test_warm_histories_affect_initial_branching():
    inst = hard_knapsack()
    cfg = _cfg(branching_rule=BranchingRule.RELIABILITY)
    first = solve(inst, cfg, 1e6)
    assert first.stats.sb_lp_solves > 0
    from mipseries.reopt import transfer_histories
    warm = transfer_histories(first, inst)
    second = solve(inst, cfg, 1e6, warm_histories=warm)
    assert second.stats.sb_lp_solves < first.stats.sb_lp_solves
    assert second.primal_bound == pytest.approx(first.primal_bound, abs=1e-9)


def test_child_node_lp_objective_monotone(monkeypatch):
    # every child node's LP optimum is >= its parent's (minimization)
    from mipseries.lp import LpStatus
    from mipseries.solver import bb as bb_mod
    violations = []
    orig = bb_mod._TreeSolver._process_node

    def wrapper(self, node):
        if np.isfinite(node.bound):   # node.bound carries the parent objective
            res = self._lp(node.rows, node.lower, node.upper, node.basis)
            if res.status is LpStatus.OPTIMAL and res.objective < node.bound - 1e-8:
                violations.append((node.bound, res.objective))
        return orig(self, node)

    monkeypatch.setattr(bb_mod._TreeSolver, "_process_node", wrapper)
    out = solve(hard_knapsack(), _cfg(), 1e9)
    assert out.status is SolveStatus.OPTIMAL
    assert violations == []


def test_bound_trajectories_monotone(monkeypatch):
    # db never decreases and pb never increases over the run
    from mipseries.solver import bb as bb_mod
    traj = []
    orig = bb_mod._TreeSolver._process_node

    def wrapper(self, node):
        children = orig(self, node)
        traj.append((self.db_final, self.pb))
        return children

    monkeypatch.setattr(bb_mod._TreeSolver, "_process_node", wrapper)
    out = solve(hard_knapsack(), _cfg(), 1e9)
    assert out.status is SolveStatus.OPTIMAL
    assert len(traj) > 10
    for (db0, pb0), (db1, pb1) in zip(traj, traj[1:]):
        assert db1 >= db0 - 1e-12
        assert pb1 <= pb0 + 1e-12
        assert db1 <= pb1 + 1e-6


def test_wall_clock_mode_default():
    inst = make_instance("w", [1.0], [([1.0], Sense.GE, 2.0)], [0], [10], ints=(0,))
    out = solve(inst, SolverConfig(), 60.0)
    assert out.status is SolveStatus.OPTIMAL
    assert out.solve_time >= 0.0


def test_full_stats_bit_identical_on_repeat():
    inst = hard_knapsack()
    a = solve(inst, _cfg(), 1e9)
    b = solve(inst, _cfg(), 1e9)
    assert repr(a.stats) == repr(b.stats)
