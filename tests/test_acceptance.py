"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from mipseries.harness import (RunConfig, gap_score, run_series, shifted_geomean,
                               time_score, write_report_csv, read_report_csv)
from mipseries.model import Component, load_series, save_instance
from mipseries.reopt import (PoolEntry, SolutionPool, assemble_hints,
                             build_common_hint, record_outcome, transfer_histories)
from mipseries.solver import BranchingRule, SolverConfig, SolveStatus, solve
from mipseries.tuner import OFF, ON, Param, ParamArm, TunerState, Variant, arm_score
from mipseries.turnoff import ComponentLedger
from mipseries.solver import fresh_stats, HEUR_ROUNDING, PRE_BOUND_TIGHTEN, SEP_GOMORY

from conftest import DET_WPS, enumerate_mip, hard_knapsack, random_feasible_mip

# Display tolerance: table cells are printed to 3 decimals (half-up), so a
# computed value may sit half a unit in the last place away.
TABLE_TOL = 5e-4 + 1e-12


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: convergence-table reproduction ---------------------------

CONVERGENCE_TABLE = {
    # N: ((C/N, C/sqrt(N)) for C = 0.2, 0.3, 0.4)
    1:   ((0.200, 0.200), (0.300, 0.300), (0.400, 0.400)),
    5:   ((0.040, 0.089), (0.060, 0.134), (0.080, 0.179)),
    10:  ((0.020, 0.063), (0.030, 0.095), (0.040, 0.126)),
    20:  ((0.010, 0.045), (0.015, 0.067), (0.020, 0.089)),
    30:  ((0.007, 0.037), (0.010, 0.055), (0.013, 0.073)),
    40:  ((0.005, 0.032), (0.008, 0.047), (0.010, 0.063)),
    50:  ((0.004, 0.028), (0.006, 0.042), (0.008, 0.057)),
    100: ((0.002, 0.020), (0.003, 0.030), (0.004, 0.040)),
    200: ((0.001, 0.014), (0.002, 0.021), (0.002, 0.028)),
    500: ((0.000, 0.009), (0.001, 0.013), (0.001, 0.018)),
}


def test_criterion_1_convergence_table():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n, cells in CONVERGENCE_TABLE.items():
        for c, (lin_cell, sqrt_cell) in zip((0.2, 0.3, 0.4), cells):
            arm = ParamArm(ON, Q=0.0, N=n)
            lin = arm_score(arm, c, Variant.LINEAR)
            sq = arm_score(arm, c, Variant.SQRT)
            if abs(lin - lin_cell) > TABLE_TOL or abs(sq - sqrt_cell) > TABLE_TOL:
                ok = False
                detail = f"N={n} C={c}: got ({lin:.6f}, {sq:.6f})"
    elapsed = time.perf_counter() - start
    _report(1, "score-bonus table (linear and sqrt)", ok and elapsed < 1.0, detail)


# -- criterion 2: deterministic exploration table ---------------------------

EXPLORATION_TABLE = [
    (OFF, OFF, OFF), (ON, OFF, OFF), (OFF, ON, OFF), (ON, ON, OFF),
    (OFF, OFF, ON), (ON, OFF, ON), (OFF, ON, ON), (ON, ON, ON)]


def test_criterion_2_exploration_table():
    start = time.perf_counter()
    state = TunerState(seed=0)
    ok = True
    for t, row in enumerate(EXPLORATION_TABLE):
        vals = state.select_values(t + 1)
        got = (vals[Param.HINT], vals[Param.CUTS], vals[Param.ROOT_CUTS])
        ok = ok and got == row
    elapsed = time.perf_counter() - start
    _report(2, "deterministic exploration rows 0..7", ok and elapsed < 1.0)


# -- criterion 3: solver oracle equivalence ---------------------------------

def test_criterion_3_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for k in range(100):
        inst = random_feasible_mip(rng, max_vars=12, max_rows=10)
        feasible, ref = enumerate_mip(inst)
        assert feasible, "generator must produce feasible instances"
        for rule in BranchingRule:
            for root in (True, False):
                for tree in (True, False):
                    cfg = SolverConfig(branching_rule=rule, use_cuts_root=root,
                                       use_cuts_tree=tree,
                                       det_work_per_second=DET_WPS)
                    out = solve(inst, cfg, 1e9)
                    if out.status is not SolveStatus.OPTIMAL or \
                            abs(out.primal_bound - ref) > 1e-6:
                        failures.append((k, rule.name, root, tree,
                                         out.status.name, out.primal_bound, ref))
    elapsed = time.perf_counter() - start
    _report(3, f"oracle equivalence, 100 instances x 12 configs ({elapsed:.1f}s)",
            not failures and elapsed < 300.0, str(failures[:3]))


# -- criterion 4: scoring formulas -------------------------------------------

def test_criterion_4_scoring_formulas():
    checks = [
        time_score(200.0, 400.0, True) == 0.5,
        time_score(123.0, 400.0, False) == 1.0,
        time_score(0.0, 400.0, True) == 0.0,
        gap_score(10.0, -2.0) == 1.0,
        gap_score(7.0, 7.0) == 0.0,
        abs(gap_score(110.0, 100.0) - 10.0 / 110.0) < 1e-15,
        gap_score(math.inf, 100.0) == 1.0,
        gap_score(100.0, -math.inf) == 1.0,
        gap_score(0.0, 0.0) == 0.0,
        abs(shifted_geomean([10.0, 40.0]) - 21.623) <= 1e-3,
        abs(shifted_geomean([0.0, 0.0, 0.0])) <= 1e-9,        # exp/log round-trip
        abs(shifted_geomean([90.0]) - 90.0) <= 1e-9,
    ]
    _report(4, "time/gap/total/shifted-geomean formulas", all(checks))


# -- criteria 5 and 6: reuse pipeline on a 5-copy series ---------------------

def _run_copy_series(with_hints: bool, with_history: bool):
    """Five identical copies, reliability branching; returns the outcomes."""
    inst = hard_knapsack()
    cfg = SolverConfig(branching_rule=BranchingRule.RELIABILITY,
                       det_work_per_second=DET_WPS,
                       completesol_node_limit=5000,
                       completesol_max_improving=None)
    pool = SolutionPool()
    warm = None
    outcomes = []
    for t in range(5):
        hints = assemble_hints(pool, inst, {Component.RHS}) \
            if (with_hints and t >= 1) else ()
        out = solve(inst, cfg, 1e9, hints=[h.assignment for h in hints],
                    warm_histories=warm)
        record_outcome(pool, out, t, inst.var_names)
        if with_history:
            warm = transfer_histories(out)
        outcomes.append(out)
    return outcomes


def test_criterion_5_history_transfer_effect():
    outcomes = _run_copy_series(with_hints=False, with_history=True)
    nodes1 = outcomes[0].stats.nodes
    sb = [o.stats.sb_lp_solves for o in outcomes]
    ok_sb = nodes1 >= 20 and sb[1] < sb[0]

    # transfer invariants on the first outcome's histories
    capped, g = transfer_histories(outcomes[0])
    ok_caps = True
    for name, h in outcomes[0].histories.items():
        th = capped[name]
        for direction in ("up", "down"):
            count = h.count(direction)
            tcount = th.count(direction)
            if count > 4.0 and tcount != 4.0:
                ok_caps = False
            if count <= 4.0 and tcount != count:
                ok_caps = False
            if count > 0:
                if abs(th.avg_pseudocost(direction) - h.avg_pseudocost(direction)) > 1e-12:
                    ok_caps = False
    any_capped = any(h.count(d) > 4.0 for h in outcomes[0].histories.values()
                     for d in ("up", "down"))
    _report(5, f"history transfer (nodes1={nodes1}, sb={sb})",
            ok_sb and ok_caps and any_capped)


def test_criterion_6_hint_pipeline_effect():
    outcomes = _run_copy_series(with_hints=True, with_history=False)
    converted = [o.stats.hint_converted for o in outcomes]
    t_first = [o.stats.time_to_first_incumbent for o in outcomes]
    ok_runs = (not converted[0] and all(converted[1:])
               and all(t is not None for t in t_first)
               and all(t_first[i] <= t_first[0] for i in range(1, 5)))

    # hand-built 10-solution pool: exact membership under the 90% + first rule
    target = hard_knapsack()
    pool = SolutionPool()
    values = []
    # x0: in first solution, present in 9/10          -> included
    # x1: in first solution, present in 8/10          -> excluded
    # x2: differs in first solution, present in 10/10 -> excluded
    for i in range(10):
        values.append({
            "x0": 1.0 if i != 3 else 0.0,
            "x1": 1.0 if i not in (3, 7) else 0.0,
            "x2": 0.0 if i == 0 else 1.0,
        })
    for i, vals in enumerate(values):
        pool.set(i, PoolEntry(i, 0.0, vals))
    hint = build_common_hint(pool, target, alpha_pct=90.0)
    ok_common = hint == {"x0": 1.0}
    _report(6, f"hint pipeline (converted={converted}, t_first={t_first})",
            ok_runs and ok_common)


# -- criterion 7: tuner convergence -------------------------------------------

def test_criterion_7_tuner_convergence():
    ok = True
    detail = ""
    for seed in range(20):
        state = TunerState(seed=seed)
        picks_after = []
        for idx in range(1, 50):
            vals = state.select_values(idx)
            exploring = state.params[Param.CUTS].under_exploration()
            total = 0.5 if vals[Param.CUTS] == ON else 0.3
            base = -total
            state.update(Param.CUTS, vals[Param.CUTS], base)
            state.update(Param.HINT, vals[Param.HINT], base,
                         hints_provided=vals[Param.HINT] == ON,
                         hint_converted=vals[Param.HINT] == ON)
            state.update(Param.ROOT_CUTS, vals[Param.ROOT_CUTS], base)
            if not exploring:
                picks_after.append(vals[Param.CUTS])
        off_count = state.params[Param.CUTS].off.N
        if not picks_after or any(v != OFF for v in picks_after):
            ok = False
            detail = f"seed {seed}: post-exploration picks {picks_after[:5]}"
        if off_count < 41:
            ok = False
            detail = f"seed {seed}: OFF count {off_count} < 41"
    _report(7, "tuner convergence over 20 seeds", ok, detail)


# -- criterion 8: turn-off thresholds ----------------------------------------

def test_criterion_8_turnoff_thresholds():
    limit = 100.0

    def stats(changes, cuts, best, heur_time):
        s = fresh_stats()
        s.presolvers[PRE_BOUND_TIGHTEN].changes = changes
        s.presolvers["coef_tighten"].changes = 1
        s.separators[SEP_GOMORY].cuts_generated = cuts
        s.heuristics[HEUR_ROUNDING].best_solutions_found = best
        s.heuristics[HEUR_ROUNDING].time = heur_time
        s.heuristics["completesol"].best_solutions_found = 1
        return s

    enabled = {PRE_BOUND_TIGHTEN, "coef_tighten", SEP_GOMORY, HEUR_ROUNDING,
               "completesol"}
    ok = True

    # presolver: exactly at 15 enabled instances, never at 14
    ledger = ComponentLedger()
    for i in range(14):
        ledger.accumulate(stats(0, 1, 1, 0.0), enabled)
        ok = ok and ledger.evaluate(limit, i) == set()
    ledger.accumulate(stats(0, 1, 1, 0.0), enabled)
    ok = ok and ledger.evaluate(limit, 14) == {PRE_BOUND_TIGHTEN}

    # separator: exactly at 25, never at 24
    ledger = ComponentLedger()
    for i in range(24):
        ledger.accumulate(stats(1, 0, 1, 0.0), enabled)
        ok = ok and ledger.evaluate(limit, i) == set()
    ledger.accumulate(stats(1, 0, 1, 0.0), enabled)
    ok = ok and ledger.evaluate(limit, 24) == {SEP_GOMORY}

    # heuristic: time per best 0.25 x limit at 25 instances, never at 24
    ledger = ComponentLedger()
    for i in range(24):
        ledger.accumulate(stats(1, 1, 0, 1.0), enabled)
        ok = ok and ledger.evaluate(limit, i) == set()
    ledger.accumulate(stats(1, 1, 1, 1.0), enabled)
    ok = ok and ledger.evaluate(limit, 24) == {HEUR_ROUNDING}
    _report(8, "turn-off thresholds at exactly 15/25/25", ok)


# -- criterion 9: end-to-end determinism --------------------------------------

ALLOWED_TO_DIFFER = {"time", "time_score", "total_score", "hint_converted",
                     "rule", "hint", "cuts", "rootcuts"}


def test_criterion_9_end_to_end_determinism(tmp_path):
    base = hard_knapsack(seed=9, n=10, m=2)
    save_instance(base, tmp_path / "base.json")
    from mipseries.model import generate_series_files
    manifest_path = generate_series_files(base, {"RHS"}, 20, seed=6,
                                          magnitude=0.05,
                                          out_dir=tmp_path / "series",
                                          time_limit=50.0)
    manifest = load_series(manifest_path)

    cfg = RunConfig(seed=5, det_work_per_second=DET_WPS)
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    write_report_csv(run_series(manifest, cfg), csv_a)
    write_report_csv(run_series(manifest, cfg), csv_b)
    ok_bytes = csv_a.read_bytes() == csv_b.read_bytes()

    base_cfg = RunConfig(seed=5, det_work_per_second=DET_WPS,
                         disable=frozenset({"hints", "history", "sb",
                                            "tuning", "turnoff"}))
    csv_base = tmp_path / "base.csv"
    write_report_csv(run_series(manifest, base_cfg), csv_base)
    full_rows = read_report_csv(csv_a)
    base_rows = read_report_csv(csv_base)
    ok_len = len(full_rows) == len(base_rows) == 20
    differing = set()
    for fr, br in zip(full_rows, base_rows):
        for col in fr:
            if fr[col] != br[col]:
                differing.add(col)
    ok_cols = differing <= ALLOWED_TO_DIFFER
    all_solved = all(r["status"] == "OPTIMAL" for r in full_rows + base_rows)
    _report(9, f"byte-identical reports; ablation diff columns {sorted(differing)}",
            ok_bytes and ok_len and ok_cols and all_solved)
