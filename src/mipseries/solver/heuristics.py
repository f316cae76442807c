"""Stand-alone primal heuristics."""
from __future__ import annotations

import numpy as np

from ..model import (DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, MipInstance,
                     check_feasibility)


def round_to_feasible(inst: MipInstance, point: np.ndarray,
                      lower: np.ndarray, upper: np.ndarray,
                      feas_tol: float = DEFAULT_FEAS_TOL,
                      int_tol: float = DEFAULT_INT_TOL) -> np.ndarray | None:
    """Round fractional integers to the nearest in-bounds integer; returns the
    point only when it passes the feasibility check, else None.

    Each integer entry becomes floor(x + 0.5), then max(., lower), then
    min(., upper) with Python's max/min semantics (a bound replaces the value
    only when strictly beyond it).  A NaN entry, or an infinite one with no
    finite bound on its side, stays non-finite and fails the check.
    """
    x = np.array(point, dtype=float)
    idx = inst.integer_indices()
    v = np.floor(x[idx] + 0.5)
    lo = np.asarray(lower)[idx]
    v = np.where(lo > v, lo, v)
    hi = np.asarray(upper)[idx]
    x[idx] = np.where(hi < v, hi, v)
    res = check_feasibility(inst, x, feas_tol, int_tol)
    return x if res.feasible else None
