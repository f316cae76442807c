"""Gomory cut separation from the optimal simplex tableau.

Cuts are derived in mixed-integer form (continuous terms handled separately
from integer terms, nonbasic-at-upper columns complemented) so they remain
valid when continuous variables or fractional data are present.  Slacks are
substituted out, yielding cut rows over the structural variables only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..lp import AT_LOWER, BASIC, FIXED, FREE, LpResult, LpStatus, NodeRows, SimplexBasis
from ..model import DEFAULT_INT_TOL, Sense

MAX_CUTS_PER_ROUND = 20
MIN_VIOLATION = 1e-6
MIN_FRACTIONALITY = 1e-4
ZERO_COEF = 1e-11
MAX_DYNAMISM = 1e8


def slack_integrality(row_matrix: np.ndarray, row_rhs: np.ndarray,
                      senses, is_int: np.ndarray) -> np.ndarray:
    """Per row: True when the slack takes integer values at every
    integer-feasible point (all-integer support, integral data)."""
    m = row_matrix.shape[0]
    out = np.zeros(m, dtype=bool)
    for i in range(m):
        support = np.nonzero(row_matrix[i])[0]
        if len(support) == 0:
            continue
        if not np.all(is_int[support]):
            continue
        coefs = row_matrix[i, support]
        if np.any(np.abs(coefs - np.round(coefs)) > 1e-9):
            continue
        if abs(row_rhs[i] - round(row_rhs[i])) > 1e-9:
            continue
        out[i] = True
    return out


@dataclass
class _Columns:
    """An OPTIMAL result's tableau and rows with the column data of its GMI
    cuts that no tableau row changes, built once per `generate_cuts` call:
    the nonbasic columns (neither BASIC nor FIXED), which of them rest at
    their lower bound, the value each rests at (its shift), the columns that
    stop a derivation (FREE, or an infinite shift) and the integral ones (an
    integer column at an integral shift, or an integral slack)."""

    tab: np.ndarray
    rows: NodeRows
    nonbasic: np.ndarray
    at_lower: np.ndarray
    shift: np.ndarray
    stop: np.ndarray
    integral: np.ndarray

    @classmethod
    def of(cls, token: SimplexBasis, primal: np.ndarray,
           is_int: np.ndarray) -> "_Columns":
        """The columns of a solve that ended in `token` at `primal`: a
        nonbasic structural column's shift is its value there (the solve
        copied the bound), a nonbasic slack's is its bound in `token.rows`."""
        stat, rows = token.stat, token.rows
        at_lower = stat == AT_LOWER
        shift = np.concatenate([
            primal, np.where(at_lower[rows.n:], rows.slack_lo, rows.slack_hi)])
        with np.errstate(invalid="ignore"):   # inf - inf at infinite shifts
            integral = np.concatenate([
                is_int & (np.abs(primal - np.round(primal)) <= 1e-9), rows.slack_int])
        return cls(token.tab, rows, nonbasic=(stat != BASIC) & (stat != FIXED),
                   at_lower=at_lower, shift=shift,
                   stop=(stat == FREE) | ~np.isfinite(shift), integral=integral)


def _gmi_from_row(columns: _Columns, r: int,
                  b0: float) -> tuple[np.ndarray, float] | None:
    """Derive one cut (w, rhs) meaning w . x >= rhs from tableau row r,
    whose basic column has the value b0, or None.

    Whole-row numpy in column order, with the arithmetic of a loop over the
    columns: each term is the same product, and `const` and the slack rows
    of w are folded left to right with `np.subtract.reduce` (`add.reduce`
    may sum pairwise), so w and rhs are the loop's bit for bit.  The loop
    stops at the first FREE column or infinite shift (None) or raises at
    the first non-finite integral coefficient (`math.floor`), whichever
    column comes first; so does this.
    """
    rows = columns.rows
    n = rows.n
    f0 = b0 - math.floor(b0)
    if f0 < MIN_FRACTIONALITY or f0 > 1.0 - MIN_FRACTIONALITY:
        return None

    a = columns.tab[r]
    cols = np.flatnonzero(columns.nonbasic & ~(np.abs(a) <= ZERO_COEF))
    stop = columns.stop[cols]
    stopped = bool(stop.any())
    if stopped:
        cols = cols[:int(stop.argmax())]
    at_lower = columns.at_lower[cols]
    shift = columns.shift[cols]
    coef = np.where(at_lower, a[cols], -a[cols])

    struct = cols < n
    integral = columns.integral[cols]
    bad = integral & ~np.isfinite(coef)
    if bad.any():
        math.floor(coef[bad.argmax()])   # raises, as the loop did here
    if stopped:
        return None

    gamma = np.empty(len(cols))
    c = coef[~integral]
    gamma[~integral] = np.where(c > 0, c / f0, -c / (1.0 - f0))
    fj = coef[integral] - np.floor(coef[integral])
    gamma[integral] = np.where(fj <= f0, fj / f0, (1.0 - fj) / (1.0 - f0))
    keep = gamma != 0.0
    # gamma * z_j in structural space: z_j = x_j - shift at lower, shift - x_j
    # at upper; a slack's z is s_k = b_k - A_k x at lower, -s_k at upper.
    # sg is gamma with the sign of z's x_j (or -A_k x) term.
    sg = np.where(at_lower[keep], gamma[keep], -gamma[keep])
    cols, shift, struct = cols[keep], shift[keep], struct[keep]

    w = np.zeros(n)
    w[cols[struct]] = sg[struct]
    terms = np.empty(len(cols) + 1)
    terms[0] = 0.0
    slack = cols[~struct] - n
    terms[1:][struct] = sg[struct] * shift[struct]
    terms[1:][~struct] = -sg[~struct] * rows.rhs[slack]
    const = np.subtract.reduce(terms)
    if len(slack):
        block = np.empty((len(slack) + 1, n))
        block[0] = w
        np.multiply(sg[~struct, None], rows.mat[slack], out=block[1:])
        np.subtract.reduce(block, axis=0, out=w)

    rhs = 1.0 - const
    w[np.abs(w) <= ZERO_COEF] = 0.0
    nz = np.abs(w[w != 0.0])
    if len(nz) == 0:
        return None
    if nz.max() / nz.min() > MAX_DYNAMISM:
        return None
    return w, rhs


@dataclass(frozen=True)
class CutBlock:
    """Cut rows w . x >= rhs: row i of `mat` (one column per structural
    variable) with right-hand side rhs[i].  Its length is the cut count."""

    mat: np.ndarray
    rhs: np.ndarray

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def senses(self) -> tuple[Sense, ...]:
        return (Sense.GE,) * len(self)


def generate_cuts(result: LpResult, is_int: np.ndarray) -> CutBlock:
    """Cuts from the tableau rows of an OPTIMAL result whose basic variable
    is integer and fractional, at most `MAX_CUTS_PER_ROUND`; none from any
    other result.  The tableau, statuses and rows are the result's token's,
    the basic values its `primal`'s.  Every returned cut is violated by the
    LP point by more than `MIN_VIOLATION`.  Whether cuts run at a node is
    the caller's decision.
    """
    token, x = result.basis, result.primal
    n = len(x)
    ws, rhss = [], []
    if result.status is LpStatus.OPTIMAL:
        columns = _Columns.of(token, x, is_int)
        for r, j0 in enumerate(token.basis.tolist()):
            if len(ws) >= MAX_CUTS_PER_ROUND:
                break
            if j0 >= n or not is_int[j0]:
                continue
            frac = x[j0] - math.floor(x[j0])
            if frac <= DEFAULT_INT_TOL or frac >= 1.0 - DEFAULT_INT_TOL:
                continue
            derived = _gmi_from_row(columns, r, x[j0])
            if derived is None:
                continue
            w, rhs = derived
            if float(w @ x) >= rhs - MIN_VIOLATION:
                continue
            ws.append(w)
            rhss.append(rhs)
    return CutBlock(np.array(ws) if ws else np.zeros((0, n)), np.array(rhss, dtype=float))
