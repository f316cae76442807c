"""Rounding and hint completion."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mipseries.model import (FeasibilityResult, Sense, SolutionStatus,
                             check_feasibility, objective_value)
from mipseries.solver import SolverConfig, SolveStatus, round_to_feasible, solve
from mipseries.solver import heuristics

from conftest import DET_WPS, awkward_values, make_instance


def _knap():
    return make_instance("k", [-5.0, -4.0, -3.0],
                         [([4.0, 3.0, 2.0], Sense.LE, 6.0)],
                         [0, 0, 0], [1, 1, 1], ints=(0, 1, 2))


def _round(inst, lp_point):
    return round_to_feasible(inst, lp_point, inst.lower, inst.upper)


def test_rounding_integral_point_returned():
    inst = _knap()
    x = _round(inst, np.array([1.0, 0.0, 1.0]))
    assert x is not None and check_feasibility(inst, x).feasible
    assert objective_value(inst, x) == pytest.approx(-8.0)


def test_rounding_breaks_row_returns_none():
    inst = _knap()
    # rounds to (1,1,1): weight 9 > 6
    assert _round(inst, np.array([0.9, 0.8, 0.9])) is None


def test_rounding_clamps_to_bounds():
    inst = _knap()
    x = _round(inst, np.array([1.4, -0.4, 0.2]))
    assert x is not None
    assert x.tolist() == [1.0, 0.0, 0.0]


def _complete(inst, hint, **kw):
    """A root-only solve in which only hint completion can find incumbents,
    given `hint` unless it is None: (outcome, completesol stats)."""
    cfg = SolverConfig(det_work_per_second=DET_WPS, node_limit=1,
                       enabled_heuristics=frozenset({"completesol"}),
                       use_cuts_root=False, use_cuts_tree=False, **kw)
    out = solve(inst, cfg, 10.0, hints=[] if hint is None else [hint])
    return out, out.stats.heuristics["completesol"]


def test_complete_hint_full_fixing_single_lp():
    out, cs = _complete(_knap(), {"x0": 1, "x1": 0, "x2": 1})
    assert cs.calls == 1 and cs.solutions_found == cs.best_solutions_found == 1
    sol = out.best_solution
    assert sol is not None and sol.status is SolutionStatus.FEASIBLE
    assert sol.objective == pytest.approx(-8.0)
    assert sol.values.tolist() == [1.0, 0.0, 1.0]


def test_complete_hint_infeasible_fixing_not_repaired():
    out, cs = _complete(_knap(), {"x0": 1, "x1": 1, "x2": 1})
    assert cs.calls == 1 and cs.solutions_found == 0
    assert out.best_solution is None


def test_complete_hint_out_of_bounds_value_rejected():
    out, cs = _complete(_knap(), {"x0": 2})
    assert cs.calls == 1 and cs.solutions_found == 0
    assert out.best_solution is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_complete_hint_non_finite_value_dropped(value):
    # round() used to raise ValueError on NaN and OverflowError on inf
    out, cs = _complete(_knap(), {"x1": 0, "x0": value})
    assert cs.calls == 1 and cs.solutions_found == 0
    plain, _ = _complete(_knap(), None)
    assert (out.status, out.primal_bound, out.dual_bound, out.best_solution) == \
        (plain.status, plain.primal_bound, plain.dual_bound, plain.best_solution)


def test_complete_hint_partial_runs_submip():
    out, cs = _complete(_knap(), {"x0": 0})
    assert cs.solutions_found == 1
    # best completion with x0 = 0: x1 = x2 = 1, objective -7
    assert out.best_solution is not None
    assert out.best_solution.objective == pytest.approx(-7.0)
    assert out.best_solution.values.tolist() == [0.0, 1.0, 1.0]


def test_complete_hint_node_limit_zero_partial_empty():
    out, cs = _complete(_knap(), {"x0": 0}, completesol_node_limit=0)
    assert cs.calls == 1 and cs.solutions_found == 0
    assert out.best_solution is None


def test_complete_hint_presolve_infeasible_returns_none(monkeypatch):
    # 2 x0 + 4 x1 == 3 has no integer solution: presolve proves it, and no
    # completion is tried
    from mipseries.solver import bb
    inst = make_instance("gcd", [1.0, 1.0], [([2.0, 4.0], Sense.EQ, 3.0)],
                         [0, 0], [5, 5], ints=(0, 1))
    cfg = SolverConfig(det_work_per_second=DET_WPS)
    assert bb.run_presolve(inst, cfg).infeasible

    def no_completion(*args):
        raise AssertionError("completion tried on a presolve-infeasible instance")

    monkeypatch.setattr(bb._TreeSolver, "_complete_one_hint", no_completion)
    out, cs = _complete(inst, {"x0": 1})
    assert out.status is SolveStatus.INFEASIBLE
    assert cs.calls == 0 and out.best_solution is None


def test_hint_with_continuous_entry_ignored():
    inst = make_instance("mix", [-1.0, 1.0],
                         [([1.0, 1.0], Sense.LE, 3.0)], [0, 0], [2, 5], ints=(0,))
    out, cs = _complete(inst, {"x0": 2, "x1": 4.5})
    assert cs.solutions_found == cs.best_solutions_found == 1
    assert out.best_solution is not None
    assert out.best_solution.values[0] == 2.0


def test_max_improving_cap_stops_processing():
    inst = _knap()
    # three hints, each a feasible complete assignment, improving in order;
    # rounding/cuts disabled so only the hints can produce incumbents
    hints = [{"x0": 0, "x1": 0, "x2": 1},
             {"x0": 0, "x1": 1, "x2": 1},
             {"x0": 1, "x1": 0, "x2": 1}]
    base = dict(det_work_per_second=DET_WPS, node_limit=1,
                enabled_heuristics=frozenset({"completesol"}),
                use_cuts_root=False, use_cuts_tree=False)
    out = solve(inst, SolverConfig(completesol_max_improving=1, **base), 1e6,
                hints=hints)
    cs = out.stats.heuristics["completesol"]
    assert cs.calls == 1           # stopped after the first improving solution
    assert out.primal_bound == pytest.approx(-3.0)

    out_all = solve(inst, SolverConfig(completesol_max_improving=None, **base),
                    1e6, hints=hints)
    assert out_all.stats.heuristics["completesol"].calls == 3
    assert out_all.primal_bound == pytest.approx(-8.0)


def loop_round_to_feasible(inst, point, lower, upper):
    """Reference: the rounded point of the per-variable loop, before the
    feasibility check.  The floor is a float's, so NaN and inf stay what
    they are until a bound replaces them."""
    x = np.array(point, dtype=float)
    for j in sorted(inst.integer_mask):
        v = float(np.floor(x[j] + 0.5))
        v = min(max(v, lower[j]), upper[j])
        x[j] = v
    return x


def test_round_to_feasible_matches_loop(monkeypatch):
    # the feasibility check is stubbed out so the rounded point is returned
    monkeypatch.setattr(heuristics, "check_feasibility",
                        lambda *args: FeasibilityResult(True))
    rng = np.random.default_rng(41)
    for trial in range(600):
        n = int(rng.integers(1, 15))
        ints = [j for j in range(n) if rng.random() < 0.7]
        inst = make_instance("r", np.zeros(n), [], np.full(n, -1e301),
                             np.full(n, 1e301), ints)
        point = awkward_values(rng, n)
        lower = np.floor(awkward_values(rng, n)) - rng.integers(0, 2, n)
        upper = lower + rng.integers(0, 4, n)
        u = rng.random(n)
        lower[u < 0.2] += 0.3    # fractional bounds
        upper[u > 0.8] -= 0.3
        lower[(u > 0.4) & (u < 0.5)] = -0.0
        upper[(u > 0.5) & (u < 0.55)] = -0.0
        lower[(u > 0.6) & (u < 0.65)] = -np.inf
        upper[(u > 0.65) & (u < 0.7)] = np.inf
        lower[(u > 0.7) & (u < 0.72)] = np.nan
        if trial % 5 == 0:
            point[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        want = loop_round_to_feasible(inst, point, lower, upper)
        got = round_to_feasible(inst, point, lower, upper)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("value, upper", [(np.nan, 5.0), (np.inf, np.inf), (-np.inf, 5.0)])
def test_round_to_feasible_rejects_a_nonfinite_integer_entry(value, upper):
    # a NaN entry, or an inf one that no finite bound replaces, fails the
    # bound check; -inf rounds to the finite lower bound -2 instead
    inst = make_instance("n", [1.0, 1.0], [([1.0, 1.0], Sense.GE, -9.0)],
                         [-2.0, -2.0], [upper, 5.0], ints=(0, 1))
    got = round_to_feasible(inst, np.array([value, 1.2]), inst.lower, inst.upper)
    assert (got is None) == (value != -np.inf)
    if got is not None:
        assert got.tolist() == [-2.0, 1.0]
