"""Stand-alone primal heuristics."""
from __future__ import annotations

import math

import numpy as np

from ..kernels import count_nonzero
from ..model import (DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, MipInstance,
                     check_feasibility)


def raise_on_nonfinite(values: np.ndarray, scalar_op) -> None:
    """Raise what `scalar_op` (math.floor, round) raises on the first NaN or
    inf in `values`, as a loop applying it entry by entry would."""
    finite = np.isfinite(values)
    if count_nonzero(finite) < len(finite):
        scalar_op(float(values[finite.argmin()]))


def round_to_feasible(inst: MipInstance, point: np.ndarray,
                      lower: np.ndarray, upper: np.ndarray,
                      feas_tol: float = DEFAULT_FEAS_TOL,
                      int_tol: float = DEFAULT_INT_TOL) -> np.ndarray | None:
    """Round fractional integers to the nearest in-bounds integer; returns the
    point only when it passes the feasibility check, else None.

    Each integer entry becomes floor(x + 0.5), then max(., lower), then
    min(., upper) with Python's max/min semantics (a bound replaces the value
    only when strictly beyond it); NaN and inf raise as math.floor does.
    """
    x = np.array(point, dtype=float)
    idx = inst.integer_indices()
    vals = x[idx]
    raise_on_nonfinite(vals, math.floor)
    v = np.floor(vals + 0.5)
    lo = np.asarray(lower)[idx]
    v = np.where(lo > v, lo, v)
    hi = np.asarray(upper)[idx]
    x[idx] = np.where(hi < v, hi, v)
    res = check_feasibility(inst, x, feas_tol, int_tol)
    return x if res.feasible else None
