"""The whole solver fuzzed against HiGHS (`scipy.optimize.milp`).

Small mixed-integer instances with one-sided and free-below columns, LE, GE
and EQ rows holding explicit zero coefficients, rows scaled over four
orders of magnitude, fractional costs and EQ rows that no integer point
meets.  Each is solved under every branching rule with cuts on and off;
node LPs, cut re-solves and strong-branching probes then warm-start on GE
and EQ rows, on the rows of their node and on rows a cut round extended.
Some instances list each row's columns out of order, and some are made by
`dataclasses.replace` from an instance whose derived arrays were already
read.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mipseries.model import LinearRow, MipInstance, Sense, check_feasibility
from mipseries.solver import (BranchingRule, SolverConfig, SolveStatus,
                              UnboundedRelaxationError, solve)

from conftest import DET_WPS, highs

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def fuzz_mips(draw):
    """A MIP of 2-8 columns, about 70% integer, around an integral point z:
    each row is tight at z or has slack, except an EQ row of even
    coefficients on integer columns with an odd right-hand side."""
    n = draw(st.integers(2, 8))
    is_int = [draw(st.sampled_from([True] * 7 + [False] * 3)) for _ in range(n)]
    lo, hi, z = [], [], []
    for _ in range(n):
        a = draw(st.integers(-3, 5))
        b = draw(st.integers(a, 5))
        zj = draw(st.integers(a, b))
        kind = draw(st.sampled_from(["box"] * 15 + ["above"] * 3 + ["below"] * 2))
        lo.append(-np.inf if kind == "below" else float(a))
        hi.append(np.inf if kind == "above" else float(b))
        z.append(float(zj))
    scaled = draw(st.sampled_from([False] * 7 + [True] * 3))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        coefs = [float(draw(st.integers(-3, 3))) for _ in range(n)]
        sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
        gap = 0.0 if sense is Sense.EQ else float(draw(st.sampled_from([0, 1, 3])))
        rhs = float(np.dot(coefs, z)) + (gap if sense is Sense.LE else -gap)
        if scaled:
            scale = 10.0 ** draw(st.integers(-2, 2))
            coefs, rhs = [c * scale for c in coefs], rhs * scale
        # every coefficient stays in the row, zeros too
        rows.append(LinearRow(f"r{i}", tuple(enumerate(coefs)), sense, rhs))
    ints = [j for j in range(n) if is_int[j]]
    if ints and draw(st.sampled_from([False] * 6 + [True])):
        rows.append(LinearRow("odd", tuple((j, 2.0) for j in ints), Sense.EQ,
                              2.0 * sum(z[j] for j in ints) + 1.0))
    fractional = draw(st.sampled_from([False] * 7 + [True] * 3))
    cost = [draw(st.integers(-5, 5)) / (4.0 if fractional else 1.0) for _ in range(n)]
    build = draw(st.sampled_from(["in order"] * 3 + ["shuffled", "replaced"]))
    if build == "shuffled":
        rows = [replace(row, coefs=tuple(draw(st.permutations(row.coefs)))) for row in rows]
    names = tuple(f"x{j}" for j in range(n))
    if build == "replaced":
        other = MipInstance("other", names, -np.array(cost), np.array(lo), np.array(hi),
                            frozenset(ints), tuple(rows[:1]))
        check_feasibility(other, np.array(z))   # reads its matrix, rhs and masks
        return replace(other, name="fuzz", objective=np.array(cost), rows=tuple(rows))
    return MipInstance("fuzz", names, np.array(cost), np.array(lo), np.array(hi),
                       frozenset(ints), tuple(rows))


@FUZZ
@given(fuzz_mips())
def test_solver_agrees_with_highs(inst):
    status, optimum = highs(inst)
    for rule in BranchingRule:
        for cuts in (False, True):
            cfg = SolverConfig(det_work_per_second=DET_WPS, branching_rule=rule,
                               use_cuts_root=cuts, use_cuts_tree=cuts)
            try:
                out = solve(inst, cfg, 1e6)
            except UnboundedRelaxationError:
                assert optimum is None, (rule, cuts)
                continue
            if status == 2:
                assert out.status is SolveStatus.INFEASIBLE, (rule, cuts)
                continue
            assert status == 0, (rule, cuts, status)
            assert out.status is SolveStatus.OPTIMAL, (rule, cuts)
            tol = cfg.gap_tol * max(1.0, abs(optimum))
            assert out.primal_bound == pytest.approx(optimum, rel=0.0, abs=tol), (rule, cuts)
            assert check_feasibility(inst, out.best_solution.values,
                                     cfg.feas_tol, cfg.int_tol).feasible
