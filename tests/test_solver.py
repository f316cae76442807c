"""Branch-and-bound: oracle equivalence, limits, determinism, invariants."""
from __future__ import annotations

import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from mipseries.lp import LpStatus
from mipseries.model import INF, Sense, check_feasibility
from mipseries.solver import (BranchingRule, Candidate, SolverConfig, SolveStatus,
                              solve)
from mipseries.solver import bb
from mipseries.solver.bb import _TreeSolver

from conftest import (DET_WPS, awkward_values, enumerate_integer_points,
                      enumerate_mip, hard_knapsack, lp_solve, make_instance,
                      pinned_mips, random_feasible_mip, relaxation)


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


@pytest.mark.parametrize("limit", [-1.0, math.nan])
def test_time_limit_below_zero_or_nan_rejected(limit):
    with pytest.raises(ValueError, match="time_limit"):
        solve(hard_knapsack(), _cfg(), limit)


def test_infinite_time_limit_means_no_limit():
    out = solve(hard_knapsack(), _cfg(), math.inf)
    assert out.status is SolveStatus.OPTIMAL


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


# ---------------------------------------------------------------------------
# Integer scans against the per-variable loops they replaced
# ---------------------------------------------------------------------------

def loop_fractional(int_indices, x, int_tol):
    out = []
    for j in int_indices:
        f = x[j] - math.floor(x[j])
        if int_tol < f < 1.0 - int_tol:
            out.append(Candidate(j, float(x[j])))
    return out


def loop_rounded(int_indices, point):
    point = np.array(point, dtype=float)
    for j in int_indices:
        point[j] = round(point[j])
    return point


def test_integer_scans_match_loops():
    # finite points only: a node LP never reports another
    # (test_lp.py::test_non_finite_lp_point_raises)
    rng = np.random.default_rng(43)
    found = 0
    for trial in range(500):
        n = int(rng.integers(1, 15))
        ints = sorted(j for j in range(n) if rng.random() < 0.7)
        inst = make_instance("s", np.zeros(n), [], np.full(n, -1e301),
                             np.full(n, 1e301), ints)
        tree = _TreeSolver(inst, SolverConfig(), 1e6)
        x = awkward_values(rng, n)

        got = tree._fractional(x)
        assert got == loop_fractional(ints, x, tree.cfg.int_tol)
        assert all(type(c.index) is int and type(c.value) is float for c in got)
        found += len(got)

        got = tree._rounded(x)
        want = loop_rounded(ints, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert found > 500


def test_fractional_band_edges_match_the_loop():
    # fractional parts at, a hair inside and a hair outside int_tol and
    # 1 - int_tol, and a few int_tol further in, on both signs
    tol = SolverConfig().int_tol
    parts = [tol, 1.0 - tol, 2.0 * tol, 5.0 * tol, 1.0 - 5.0 * tol, 0.5]
    parts += [float(np.nextafter(p, side)) for p in (tol, 1.0 - tol) for side in (0.0, 1.0)]
    x = np.array([k + p for k in (-3.0, 0.0, 2.0) for p in parts])
    n = len(x)
    inst = make_instance("band", np.zeros(n), [], np.full(n, -10.0), np.full(n, 10.0),
                         range(n))
    got = _TreeSolver(inst, SolverConfig(), 1e6)._fractional(x)
    want = loop_fractional(list(range(n)), x, tol)
    assert got == want and 0 < len(got) < n


def test_incumbent_rounding_turns_negative_zero_positive():
    inst = make_instance("z", [1.0, 1.0], [([1.0, 1.0], Sense.GE, 0.0)],
                         [-1, -1], [1, 1], ints=(0, 1))
    tree = _TreeSolver(inst, _cfg(), 1e6)
    assert tree._try_incumbent(np.array([-0.0, -0.4]))
    assert tree.incumbent.values.tolist() == [0.0, 0.0]
    assert not np.signbit(tree.incumbent.values).any()


def test_rounding_checks_its_point_once_and_keeps_the_incumbents(monkeypatch):
    # round_to_feasible has checked the point _run_rounding hands to
    # _try_incumbent, with the same tolerances; skipping the second check
    # must give the incumbent sequence the double check gave
    class CheckTwice(_TreeSolver):
        def _try_incumbent(self, point, checked=False):
            return super()._try_incumbent(point)

    calls = []
    real_check = bb.check_feasibility
    monkeypatch.setattr(bb, "check_feasibility",
                        lambda *args: calls.append(1) or real_check(*args))
    rng = np.random.default_rng(41)
    counts = {_TreeSolver: 0, CheckTwice: 0}
    accepted = 0
    for _ in range(40):
        inst = random_feasible_mip(rng, max_vars=10, max_rows=6)
        points = []
        for _ in range(15):
            lo = np.array(inst.lower, dtype=float)
            hi = np.array(inst.upper, dtype=float)
            j = int(rng.integers(inst.num_vars))
            lo[j] = hi[j] = float(rng.integers(lo[j], hi[j] + 1))
            rows, _, _, cost = relaxation(inst)
            res = lp_solve(rows, lo, hi, cost)
            if res.status is LpStatus.OPTIMAL:
                points.append(res.primal)
            points.append(inst.lower + rng.random(inst.num_vars) * (inst.upper - inst.lower))
        node = SimpleNamespace(lower=inst.lower, upper=inst.upper)
        seqs = {}
        for cls in counts:
            tree = cls(inst, _cfg(), 1e6)
            seq = []
            calls.clear()
            for x in points:
                tree._run_rounding(x, node)
                seq.append((tree.pb, None if tree.incumbent is None
                            else tree.incumbent.values.tobytes()))
            counts[cls] += len(calls)
            seqs[cls] = (seq, repr(tree.stats.heuristics))
        assert seqs[_TreeSolver] == seqs[CheckTwice]
        accepted += len({pb for pb, _ in seqs[_TreeSolver][0]}) - 1
    assert accepted >= 20
    assert counts[_TreeSolver] < counts[CheckTwice]


def test_hint_completion_checks_each_point_once_and_keeps_the_incumbents(monkeypatch):
    # both paths of _complete_one_hint have checked the point that
    # _run_completesol hands to _try_incumbent, with the same tolerances:
    # the all-fixed LP checks its rounded point, a sub-MIP's incumbent passed
    # the sub-solver's check; skipping the second check must give the
    # incumbent sequence and the completesol stats the double check gave
    class CheckOnce(_TreeSolver):
        def _try_incumbent(self, point, checked=False):
            took = super()._try_incumbent(point, checked)
            self.seq.append((took, self.pb, None if self.incumbent is None
                             else self.incumbent.values.tobytes()))
            return took

    class CheckTwice(CheckOnce):
        def _try_incumbent(self, point, checked=False):
            return super()._try_incumbent(point)

    calls = []
    real_check = bb.check_feasibility
    monkeypatch.setattr(bb, "check_feasibility",
                        lambda *args: calls.append(1) or real_check(*args))
    rng = np.random.default_rng(43)
    cfg = _cfg(node_limit=3, completesol_max_improving=None)
    counts = {CheckOnce: 0, CheckTwice: 0}
    completed = 0
    for _ in range(25):
        inst = random_feasible_mip(rng, max_vars=8, max_rows=6)
        feasible = enumerate_integer_points(inst)
        lattice = inst.lower + np.floor(rng.random((2, inst.num_vars))
                                        * (inst.upper - inst.lower + 1))
        points = [*feasible[rng.integers(len(feasible), size=4)], *lattice]
        hints = []
        for k, x in enumerate(points):
            # full assignments complete with one LP, partial ones with a sub-MIP
            keep = np.ones(inst.num_vars, dtype=bool) if k % 2 == 0 \
                else rng.random(inst.num_vars) < 0.5
            hints.append({inst.var_names[j]: float(x[j]) for j in np.flatnonzero(keep)})
        runs = {}
        for cls in counts:
            tree = cls(inst, cfg, 1e6, hints=hints)
            tree.seq = []
            calls.clear()
            out = tree.solve()
            counts[cls] += len(calls)
            runs[cls] = (tree.seq, out.primal_bound, out.status,
                         repr(out.stats.heuristics["completesol"]))
        assert runs[CheckOnce] == runs[CheckTwice]
        completed += tree.stats.heuristics["completesol"].solutions_found
    assert completed >= 100
    assert counts[CheckOnce] < counts[CheckTwice]


# ---------------------------------------------------------------------------
# The objective cutoff of node LPs and cut re-solves
# ---------------------------------------------------------------------------

def _record_lp_calls(monkeypatch, force_inf=False):
    """Replace bb.solve_arrays by a spy that records, per call, the function
    that called `_TreeSolver._lp`, the cutoff passed, the tree's pruning
    bound, whether the call is the cold retry and the status; with
    `force_inf` every solve runs without a cutoff."""
    calls = []
    real = bb.solve_arrays

    def spy(rows, lo, hi, cost, warm, iter_limit, kernels, bland_after, cutoff=INF):
        lp_frame = sys._getframe(1)   # _TreeSolver._lp
        res = real(rows, lo, hi, cost, warm, iter_limit, kernels, bland_after,
                   INF if force_inf else cutoff)
        calls.append(SimpleNamespace(
            caller=lp_frame.f_back.f_code.co_name, cutoff=cutoff,
            prune=lp_frame.f_locals["self"]._cutoff,
            retry=warm is None and bland_after == 0, status=res.status))
        return res

    monkeypatch.setattr(bb, "solve_arrays", spy)
    return calls


def test_only_node_lps_and_cut_resolves_pass_the_cutoff(monkeypatch):
    calls = _record_lp_calls(monkeypatch)
    for _, inst, rule in pinned_mips():
        start = len(calls)
        out = solve(inst, _cfg(branching_rule=rule), 1e6)
        stopped = sum(c.status is LpStatus.CUTOFF for c in calls[start:])
        assert out.stats.lp_cutoffs == stopped
    # two full hints (the all-fixed LP, the second under an incumbent) and a
    # partial one (a sub-MIP, whose nodes prune on its own incumbent)
    inst = hard_knapsack()
    best = solve(inst, _cfg(), 1e6).best_solution.values
    full = {name: float(v) for name, v in zip(inst.var_names, best)}
    half = dict(list(full.items())[::2])
    solve(inst, _cfg(), 1e6, hints=[full, full, half])

    assert {c.caller for c in calls} == {"_node_lp", "solve_child", "_complete_one_hint"}
    for c in calls:
        if c.caller == "_node_lp" and not c.retry:
            assert c.cutoff == c.prune
        else:   # strong-branching probes, the all-fixed hint LP, cold retries
            assert c.cutoff == INF
            assert c.status is not LpStatus.CUTOFF
    for c, after in zip(calls, calls[1:]):
        if c.status is LpStatus.CUTOFF:
            assert not after.retry
    assert any(c.status is LpStatus.CUTOFF for c in calls)
    for caller in ("solve_child", "_complete_one_hint"):
        assert any(c.caller == caller and c.prune < INF for c in calls), caller


def test_cutoff_saves_pivots_and_changes_nothing_else_on_the_pinned_mips(monkeypatch):
    def run(inst, rule):
        out = solve(inst, _cfg(branching_rule=rule), 1e6)
        s = out.stats
        return (out.status, s.nodes, s.sb_lp_solves, s.separators["gomory"].cuts_generated,
                out.primal_bound, out.best_solution.values.tobytes()), s

    with_cutoff = [run(inst, rule) for _, inst, rule in pinned_mips()]
    _record_lp_calls(monkeypatch, force_inf=True)
    without = [run(inst, rule) for _, inst, rule in pinned_mips()]
    for (same, s), (same_inf, s_inf) in zip(with_cutoff, without):
        assert same == same_inf
        assert s_inf.lp_cutoffs == 0
        assert s_inf.lp_iterations >= s.lp_iterations
    assert sum(s.lp_iterations for _, s in with_cutoff) \
        < sum(s.lp_iterations for _, s in without)


# -- the objective step ----------------------------------------------------

def _with_objective(inst, cost):
    return replace(inst, objective=np.asarray(cost, dtype=float))


@pytest.mark.parametrize("cost, ints, step", [
    ([4.0, -6.0, 10.0], (0, 1, 2), 2.0),
    ([-23.0, -26.0, -7.0], (0, 1, 2), 1.0),
    ([-69.0, -78.0, -21.0], (0, 1, 2), 3.0),
    ([3.0, -6.0, 0.5], (0, 1, 2), 0.0),
    ([3.0, -6.0, 1.0], (0, 1), 0.0),
    ([0.0, 0.0, 0.0], (0, 1, 2), 0.0),
    ([6.0, -9.0, 0.0], (0, 1), 3.0),
    ([2.0 ** 54, 4.0, 0.0], (0, 1), 0.0),
])
def test_objective_step(cost, ints, step):
    inst = make_instance("s", cost, [([1.0, 1.0, 1.0], Sense.LE, 2.0)],
                         np.zeros(3), np.full(3, 2.0), ints=ints)
    assert bb.objective_step(inst) == step


@pytest.mark.parametrize("scale, shift", [(3.0, 0.0), (1.0, 0.5)])
def test_oracle_equivalence_with_a_step_and_without_one(scale, shift):
    """Costs x3 give a step of 3; one cost +0.5 gives no step."""
    rng = np.random.default_rng(31)
    for _ in range(6):
        inst = random_feasible_mip(rng, max_vars=8, max_rows=6)
        cost = scale * inst.objective
        cost[0] += shift
        inst = _with_objective(inst, cost)
        step = bb.objective_step(inst)
        if shift:
            assert step == 0.0
        else:
            assert step > 0.0 and step % 3.0 == 0.0
        _, ref = enumerate_mip(inst)
        for rule in BranchingRule:
            for root in (True, False):
                for tree in (True, False):
                    out = solve(inst, _cfg(branching_rule=rule, use_cuts_root=root,
                                           use_cuts_tree=tree), 1e6)
                    assert out.status is SolveStatus.OPTIMAL
                    assert out.primal_bound == pytest.approx(ref, abs=1e-6), \
                        f"{inst.name} {rule} cuts=({root},{tree})"


def test_time_limited_dual_bound_is_a_rounded_up_step_multiple():
    inst = hard_knapsack()
    inst = _with_objective(inst, 3.0 * inst.objective)
    opt = solve(inst, _cfg(), 1e6).primal_bound
    rounded = 0
    for limit in (3e-4, 5e-4, 7e-4, 9e-4):
        tree = bb._TreeSolver(inst, _cfg(), limit)
        out = tree.solve()
        assert out.status is SolveStatus.TIME_LIMIT and tree.step == 3.0
        raw = tree._min_open_bound()
        db = out.dual_bound
        assert db % 3.0 == 0.0
        assert raw <= db <= opt
        rounded += db > raw
    assert rounded
