"""The series benchmark's tracer still finds every entry point it wraps.

`seriesbench/tracing.py` replaces solver functions and private methods by
name; the tier-1 suite never imports it otherwise, so a renamed entry point
would break `seriesbench/run.py --trace 1` without a failing test here."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from mipseries.solver import SolverConfig, solve

from conftest import DET_WPS, hard_knapsack

TRACING = Path(__file__).resolve().parent.parent / "seriesbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("seriesbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fingerprint(out):
    return (out.status, out.primal_bound, out.dual_bound, repr(out.stats),
            out.best_solution.values.tobytes())


def test_tracer_wraps_a_solve_without_changing_it():
    tracing = _load_tracing()
    inst = hard_knapsack()
    cfg = SolverConfig(det_work_per_second=DET_WPS)
    plain = solve(inst, cfg, 1e6)
    with tracing.Tracer() as tracer:
        traced = solve(inst, cfg, 1e6)
    assert _fingerprint(traced) == _fingerprint(plain)
    spans = tracer.summary()["spans"]
    for name in ("lp.refactor", "bb.node_lp", "cuts.loop", "bb.node", "lp.node",
                 "kernels.eliminate", "model.check_feasibility"):
        assert spans.get(name, {"count": 0})["count"] > 0, name
    assert spans["bb.node"]["count"] == plain.stats.nodes
    assert tracer.counters["lp.node.pivots"] + tracer.counters["lp.sb.pivots"] \
        + tracer.counters["lp.cut.pivots"] == plain.stats.lp_iterations
    # reliability branching probes, and every probe runs inside the wrapped
    # select_branch_variable: one run elsewhere would count as a node LP
    assert tracer.counters["lp.sb.solves"] == plain.stats.sb_lp_solves > 0
    # the hit ratio the benchmark reports counts warm starts that return
    # True; every warm start does
    attempts = tracer.counters["lp.warm_start_attempts"]
    assert tracer.counters["lp.warm_start_hits"] == attempts > 0
    after = solve(inst, cfg, 1e6)   # uninstalled again
    assert _fingerprint(after) == _fingerprint(plain)
