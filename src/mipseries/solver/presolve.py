"""Root presolve: single-row bound propagation and GCD coefficient tightening.

Both rules read the rows the LP reads, `inst.dense_matrix()` with
`inst.senses()`, and treat a zero coefficient as no term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import MipInstance, Sense, integral_rows
from .config import PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN, SolverConfig

MAX_SWEEPS = 10
EPS = 1e-9


@dataclass
class PresolveResult:
    lower: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    infeasible: bool
    changes: dict[str, int]


def _le_rows(inst, rhs) -> list:
    """The rows as one list of <= rows (a, b) in row order: an LE row as it
    is, a GE row negated, an EQ row both ways, its LE side first."""
    rows = []
    for a, b, sense in zip(inst.dense_matrix(), rhs.tolist(), inst.senses()):
        if sense is not Sense.GE:
            rows.append((a, b))
        if sense is not Sense.LE:
            rows.append((-a, -b))
    return rows


def _tighten_le(a, b, lower, upper, is_int) -> int:
    """Propagate the row a x <= b once into `lower` and `upper`; returns the
    number of improved bounds.

    A term's minimal activity is a_j times lower_j (a_j > 0) or upper_j
    (a_j < 0); it is unbounded when it is not finite (an infinite bound or
    an overflow).  With no unbounded term, each term's rest of the row is
    the sum of all minimal activities less its own; with one, only that
    term has a rest, the sum of the others; with more, no term has one.
    Sums fold left to right from 0.0 in column order.  A term's implied
    bound (b - rest) / a_j is rounded inward, with a 1e-9 tolerance, on an
    integer column, and replaces the old bound when it improves it by more
    than 1e-9.  An implied bound of +inf above (-inf below) tightens
    nothing; one of -inf above (+inf below) crosses the other bound, which
    proves the row infeasible.  Invalid, overflowing and dividing-by-zero
    operations happen at non-finite entries and zero coefficients; the
    caller's `errstate` silences them."""
    term = a != 0
    up = a > 0
    act = a * np.where(up, lower, upper)
    finite = np.isfinite(act)
    unbounded = term & ~finite
    n_unbounded = np.count_nonzero(unbounded)
    if n_unbounded > 1:
        return 0
    # 0 - (-t0) - (-t1) ... is 0 + t0 + t1 ... exactly, and subtract.reduce
    # folds in order (add.reduce may sum pairwise); a zero or unbounded
    # term enters as +0.0, which changes no sum
    neg = np.zeros(len(a) + 1)
    np.negative(act, out=neg[1:], where=term & finite)
    rest = np.subtract.reduce(neg) + neg[1:]
    bound = (b - rest) / a
    # + 0.0 turns np.ceil's -0.0 (of -0.5, say) into 0.0, as MipInstance
    # rounds integer bounds
    rounded = np.where(up, np.floor(bound + EPS), np.ceil(bound - EPS) + 0.0)
    new = np.where(is_int & np.isfinite(bound), rounded, bound)
    tighter = (unbounded if n_unbounded else term) & np.where(
        up, new < upper - EPS, new > lower + EPS)
    np.copyto(upper, new, where=tighter & up)
    np.copyto(lower, new, where=tighter & ~up)
    return int(np.count_nonzero(tighter))


def _bound_tighten(inst, lower, upper, rhs) -> tuple[int, bool]:
    is_int = inst.is_integer()
    rows = _le_rows(inst, rhs)
    total_changes = 0
    with np.errstate(all="ignore"):
        for _ in range(MAX_SWEEPS):
            sweep = 0
            for a, b in rows:
                sweep += _tighten_le(a, b, lower, upper, is_int)
            total_changes += sweep
            if np.any(lower > upper + EPS):
                return total_changes, True
            if sweep == 0:
                break
    return total_changes, False


def _coef_tighten(inst, rhs) -> tuple[int, bool]:
    """GCD-based rhs reduction on the integral rows (`integral_rows`); valid
    for every integer-feasible point, whose activity on such a row the gcd
    g of its coefficients divides: an LE rhs rounds down and a GE rhs up to
    a multiple of g, and an EQ rhs that is none proves infeasibility."""
    mat, senses = inst.dense_matrix(), inst.senses()
    changes = 0
    for i in np.flatnonzero(integral_rows(mat, inst.is_integer())).tolist():
        g = math.gcd(*map(int, np.round(mat[i]).tolist()))
        if g <= 1:
            continue
        b = rhs[i]
        if senses[i] is Sense.LE:
            nb = g * math.floor(b / g + EPS)
            if nb < b - EPS:
                rhs[i] = nb
                changes += 1
        elif senses[i] is Sense.GE:
            nb = g * math.ceil(b / g - EPS)
            if nb > b + EPS:
                rhs[i] = nb
                changes += 1
        elif abs(b / g - round(b / g)) > EPS:
            return changes, True
    return changes, False


def run_presolve(inst: MipInstance, cfg: SolverConfig) -> PresolveResult:
    """Tighten root bounds and row rhs; disabled rules record 0 changes."""
    lower = np.array(inst.lower)
    upper = np.array(inst.upper)
    rhs = np.array(inst.rhs_array())
    changes = {PRE_BOUND_TIGHTEN: 0, PRE_COEF_TIGHTEN: 0}
    infeasible = False

    if PRE_COEF_TIGHTEN in cfg.enabled_presolvers:
        n, bad = _coef_tighten(inst, rhs)
        changes[PRE_COEF_TIGHTEN] = n
        infeasible = infeasible or bad
    if not infeasible and PRE_BOUND_TIGHTEN in cfg.enabled_presolvers:
        n, bad = _bound_tighten(inst, lower, upper, rhs)
        changes[PRE_BOUND_TIGHTEN] = n
        infeasible = infeasible or bad

    return PresolveResult(lower, upper, rhs, infeasible, changes)
