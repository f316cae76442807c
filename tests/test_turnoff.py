"""Turn-off thresholds, permanence and additivity."""
from __future__ import annotations

from mipseries.solver import (HEUR_COMPLETESOL, HEUR_ROUNDING,
                              PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN, SEP_GOMORY,
                              fresh_stats)
from mipseries.turnoff import ComponentLedger

ALL = {PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN, SEP_GOMORY, HEUR_ROUNDING, HEUR_COMPLETESOL}


def _stats(changes=0, cuts=0, solutions=0, best=0, heur_time=0.0):
    stats = fresh_stats()
    stats.presolvers[PRE_BOUND_TIGHTEN].changes = changes
    stats.separators[SEP_GOMORY].cuts_generated = cuts
    stats.heuristics[HEUR_ROUNDING].solutions_found = solutions
    stats.heuristics[HEUR_ROUNDING].best_solutions_found = best
    stats.heuristics[HEUR_ROUNDING].time = heur_time
    # keep the other components trivially successful
    stats.presolvers[PRE_COEF_TIGHTEN].changes = 1
    stats.heuristics[HEUR_COMPLETESOL].best_solutions_found = 1
    return stats


def test_presolver_disabled_at_exactly_15():
    ledger = ComponentLedger()
    for i in range(14):
        ledger.accumulate(_stats(changes=0, cuts=1, best=1), ALL)
        assert ledger.evaluate(100.0, i) == set()
    ledger.accumulate(_stats(changes=0, cuts=1, best=1), ALL)
    assert ledger.evaluate(100.0, 14) == {PRE_BOUND_TIGHTEN}
    assert ledger.records[PRE_BOUND_TIGHTEN].disabled_at == 14


def test_presolver_with_changes_kept():
    ledger = ComponentLedger()
    for i in range(30):
        ledger.accumulate(_stats(changes=1, cuts=1, best=1), ALL)
        assert PRE_BOUND_TIGHTEN not in ledger.evaluate(100.0, i)


def test_separator_disabled_at_exactly_25():
    ledger = ComponentLedger()
    for i in range(24):
        ledger.accumulate(_stats(changes=1, cuts=0, best=1), ALL)
        assert ledger.evaluate(100.0, i) == set()
    ledger.accumulate(_stats(changes=1, cuts=0, best=1), ALL)
    assert ledger.evaluate(100.0, 24) == {SEP_GOMORY}


def test_heuristic_time_per_best_rule():
    # 25 instances, 1 best solution total, time 0.25 x limit per best -> disabled
    limit = 100.0
    ledger = ComponentLedger()
    for i in range(24):
        ledger.accumulate(_stats(changes=1, cuts=1, best=0, heur_time=1.0), ALL)
        assert ledger.evaluate(limit, i) == set()
    stats = _stats(changes=1, cuts=1, best=1, heur_time=1.0)
    ledger.accumulate(stats, ALL)
    # total heuristic time 25.0 over 1 best solution = 0.25 x limit > 0.20 x limit
    assert ledger.evaluate(limit, 24) == {HEUR_ROUNDING}


def test_heuristic_at_exactly_20_percent_kept():
    limit = 100.0
    ledger = ComponentLedger()
    for i in range(25):
        ledger.accumulate(_stats(changes=1, cuts=1, best=1, heur_time=0.8), ALL)
    # 25 best solutions, 20.0 time -> 0.8 per best = 0.008 x limit: kept
    assert ledger.evaluate(limit, 24) == set()

    ledger2 = ComponentLedger()
    stats = _stats(changes=1, cuts=1, best=1, heur_time=20.0)
    ledger2.accumulate(stats, ALL)
    for i in range(1, 25):
        ledger2.accumulate(_stats(changes=1, cuts=1, best=0, heur_time=0.0), ALL)
    # 20.0 time over 1 best = exactly 0.20 x limit: not strictly greater -> kept
    assert ledger2.evaluate(limit, 24) == set()


def test_heuristic_no_best_solutions_disabled():
    ledger = ComponentLedger()
    for i in range(25):
        ledger.accumulate(_stats(changes=1, cuts=1, solutions=3, best=0), ALL)
    assert ledger.evaluate(100.0, 24) == {HEUR_ROUNDING}


def test_tuner_disabled_instances_do_not_count():
    ledger = ComponentLedger()
    enabled_without_sep = ALL - {SEP_GOMORY}
    for i in range(40):
        ledger.accumulate(_stats(changes=1, cuts=0, best=1), enabled_without_sep)
        assert ledger.evaluate(100.0, i) == set()
    assert ledger.records[SEP_GOMORY].instances_enabled == 0
    assert ledger.records[SEP_GOMORY].instances_observed == 40


def test_disabling_is_permanent_and_evaluate_idempotent():
    ledger = ComponentLedger()
    for i in range(15):
        ledger.accumulate(_stats(changes=0, cuts=1, best=1), ALL)
    first = ledger.evaluate(100.0, 14)
    assert first == {PRE_BOUND_TIGHTEN}
    # further success cannot re-enable
    ledger.accumulate(_stats(changes=100, cuts=1, best=1), ALL)
    assert ledger.evaluate(100.0, 15) == set()
    assert ledger.records[PRE_BOUND_TIGHTEN].disabled
    assert ledger.records[PRE_BOUND_TIGHTEN].disabled_at == 14


def test_accumulation_additivity():
    a, b = ComponentLedger(), ComponentLedger()
    s1 = _stats(changes=2, cuts=3, solutions=1, best=1, heur_time=0.5)
    s2 = _stats(changes=1, cuts=0, solutions=2, best=0, heur_time=0.25)
    a.accumulate(s1, ALL)
    a.accumulate(s2, ALL)
    combined = _stats(changes=3, cuts=3, solutions=3, best=1, heur_time=0.75)
    combined.presolvers[PRE_COEF_TIGHTEN].changes = 2
    combined.heuristics[HEUR_COMPLETESOL].best_solutions_found = 2
    b.accumulate(combined, ALL)
    b.accumulate(_stats(changes=0, cuts=0, best=0), set())
    b.records[PRE_BOUND_TIGHTEN].instances_enabled = 2   # align enable counts
    for name in (PRE_BOUND_TIGHTEN, SEP_GOMORY, HEUR_ROUNDING):
        ra, rb = a.records[name], b.records[name]
        assert (ra.changes, ra.cuts, ra.solutions, ra.best_solutions, ra.time) == \
               (rb.changes, rb.cuts, rb.solutions, rb.best_solutions, rb.time)


def test_serialization_roundtrip():
    ledger = ComponentLedger()
    for i in range(15):
        ledger.accumulate(_stats(changes=0, cuts=1, best=1), ALL)
    ledger.evaluate(100.0, 14)
    again = ComponentLedger.from_json_dict(ledger.to_json_dict())
    assert again.disabled_components() == {PRE_BOUND_TIGHTEN}
    assert again.records[SEP_GOMORY].cuts == 15
