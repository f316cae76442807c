"""Root presolve: single-row bound propagation and GCD coefficient tightening."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import INF, MipInstance, Sense
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


def _terms(row) -> tuple:
    """The row's (column, coefficient) terms without its zero coefficients:
    both rules treat a row as if its zero terms were not there.  The
    coefficients are Python floats."""
    return tuple((j, float(a)) for j, a in row.coefs if a != 0.0)


def _tighten_row_le(coefs, rhs: float, lower, upper, is_int) -> int:
    """Propagate a <= row once; returns the number of improved bounds.

    The arithmetic is on Python floats, which overflow to +-inf without a
    warning.  An implied bound of +inf above (-inf below) tightens nothing;
    one of -inf above (+inf below) crosses the other bound, which proves
    the row infeasible."""
    changes = 0
    # minimal activity contribution per term
    contrib_lo = []
    for j, a in coefs:
        lo = float(lower[j] if a > 0 else upper[j])
        contrib_lo.append(a * lo if math.isfinite(lo) else -INF)
    total = sum(contrib_lo) if all(math.isfinite(v) for v in contrib_lo) else None
    for k, (j, a) in enumerate(coefs):
        if total is not None:
            rest = total - contrib_lo[k]
        else:
            vals = [v for i, v in enumerate(contrib_lo) if i != k]
            if any(not math.isfinite(v) for v in vals):
                continue
            rest = sum(vals)
        slack = rhs - rest
        if a > 0:
            new_ub = slack / a
            if is_int[j] and math.isfinite(new_ub):
                new_ub = math.floor(new_ub + EPS)
            if new_ub < upper[j] - EPS:
                upper[j] = new_ub
                changes += 1
        else:
            new_lb = slack / a
            if is_int[j] and math.isfinite(new_lb):
                new_lb = math.ceil(new_lb - EPS)
            if new_lb > lower[j] + EPS:
                lower[j] = new_lb
                changes += 1
    return changes


def _bound_tighten(inst, lower, upper, rhs) -> tuple[int, bool]:
    is_int = inst.is_integer()
    total_changes = 0
    for _ in range(MAX_SWEEPS):
        sweep = 0
        for i, row in enumerate(inst.rows):
            coefs = _terms(row)
            if row.sense in (Sense.LE, Sense.EQ):
                sweep += _tighten_row_le(coefs, float(rhs[i]), lower, upper, is_int)
            if row.sense in (Sense.GE, Sense.EQ):
                neg = tuple((j, -a) for j, a in coefs)
                sweep += _tighten_row_le(neg, -float(rhs[i]), lower, upper, is_int)
        total_changes += sweep
        if np.any(lower > upper + EPS):
            return total_changes, True
        if sweep == 0:
            break
    return total_changes, False


def _coef_tighten(inst, rhs) -> tuple[int, bool]:
    """GCD-based rhs reduction on rows whose support is all-integer with
    integral coefficients; valid for every integer-feasible point."""
    is_int = inst.is_integer()
    changes = 0
    for i, row in enumerate(inst.rows):
        coefs = _terms(row)
        if not coefs:
            continue
        if not all(is_int[j] for j, _ in coefs):
            continue
        rounded = [round(a) for _, a in coefs]
        if any(abs(a - r) > EPS or r == 0 for (_, a), r in zip(coefs, rounded)):
            continue
        g = 0
        for r in rounded:
            g = math.gcd(g, abs(int(r)))
        if g <= 1:
            continue
        b = rhs[i]
        if row.sense is Sense.LE:
            nb = g * math.floor(b / g + EPS)
            if nb < b - EPS:
                rhs[i] = nb
                changes += 1
        elif row.sense is Sense.GE:
            nb = g * math.ceil(b / g - EPS)
            if nb > b + EPS:
                rhs[i] = nb
                changes += 1
        else:
            if abs(b / g - round(b / g)) > EPS:
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
