"""Correctness gate: reference optima from scipy's HiGHS and per-solve checks.

HiGHS is independent of mipseries; it runs once per generated instance,
outside every timed region.
"""
from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from mipseries.model import MipInstance, Sense, check_feasibility


def reference_optimum(inst: MipInstance) -> float:
    """Optimal objective of `inst` from HiGHS; raises when HiGHS does not
    prove optimality (every generated instance is feasible and bounded)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    A = inst.dense_matrix()
    b = inst.rhs_array()
    lo = np.full(inst.num_rows, -np.inf)
    hi = np.full(inst.num_rows, np.inf)
    for i, sense in enumerate(inst.senses()):
        if sense in (Sense.LE, Sense.EQ):
            hi[i] = b[i]
        if sense in (Sense.GE, Sense.EQ):
            lo[i] = b[i]
    res = milp(inst.objective, integrality=inst.is_integer().astype(int),
               bounds=Bounds(inst.lower, inst.upper),
               constraints=LinearConstraint(A, lo, hi),
               options={"mip_rel_gap": 0.0, "presolve": True})
    if res.status != 0:
        raise RuntimeError(f"{inst.name}: HiGHS did not prove optimality: {res.message}")
    return float(res.fun)


@contextmanager
def _quiet_stdout():
    """HiGHS can print from native code; keep the benchmark's stdout clean."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), 1)
            yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def reference_optima(manifests) -> dict[str, float]:
    """Reference optimum per instance name over every series."""
    with _quiet_stdout():
        return {inst.name: reference_optimum(inst)
                for manifest in manifests for inst in manifest.instances()}


def check_solve(inst: MipInstance, record, outcome, optimum: float,
                feas_tol: float, int_tol: float, gap_tol: float) -> str | None:
    """None when the solve is correct, else the reason it failed.

    A solve fails on an ERROR record, an incumbent that fails
    check_feasibility, an OPTIMAL primal bound off the reference by more
    than gap_tol (relative, as the solver's own stopping rule), or bounds
    that do not enclose the reference (db <= opt <= pb)."""
    if record.status == "ERROR":
        return f"error record: {record.error}"
    tol = gap_tol * max(1.0, abs(optimum))
    if outcome.best_solution is not None:
        feas = check_feasibility(inst, outcome.best_solution.values, feas_tol, int_tol)
        if not feas.feasible:
            return f"incumbent infeasible: {feas.violation.message()}"
    if record.status == "OPTIMAL":
        if not abs(record.pb - optimum) <= tol:
            return f"OPTIMAL pb {record.pb!r} != reference {optimum!r}"
        return None
    if record.db > optimum + tol:
        return f"dual bound {record.db!r} above reference {optimum!r}"
    if math.isfinite(record.pb) and record.pb < optimum - tol:
        return f"primal bound {record.pb!r} below reference {optimum!r}"
    return None
