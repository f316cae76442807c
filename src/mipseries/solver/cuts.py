"""Gomory cut separation from the optimal simplex tableau.

Cuts are derived in mixed-integer form (continuous terms handled separately
from integer terms, nonbasic-at-upper columns complemented) so they remain
valid when continuous variables or fractional data are present.  Slacks are
substituted out, yielding cut rows over the structural variables only.

One pass per round: `generate_cuts` derives the cut of every candidate row
at once with (rows x columns) array operations in a loop's arithmetic
(`_gmi_rows`), then takes the cuts in row order up to the round's cap.  The
arrays are small, so the pass is written for few numpy calls: row-wise
any() as `np.logical_or.reduce`, indices as `.nonzero()[0]`, row gathers as
`take`, masked products as ufuncs with `where=`, and one `errstate` for the
whole derivation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lp import AT_LOWER, FREE, LpResult, LpStatus, NodeRows, SimplexBasis
from ..model import INF, Sense

MAX_CUTS_PER_ROUND = 20
MIN_VIOLATION = 1e-6
MIN_FRACTIONALITY = 1e-4
ZERO_COEF = 1e-11
MAX_DYNAMISM = 1e8


def slack_integrality(row_matrix: np.ndarray, row_rhs: np.ndarray,
                      is_int: np.ndarray) -> np.ndarray:
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


# Per status code: True for a nonbasic column, neither BASIC nor FIXED.
_NONBASIC = np.array([True, True, False, True, False])
# 0-d arrays: a ufunc takes one as an operand faster than a Python float
_ZERO = np.array(0.0)
_INF = np.array(INF)


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
        copied the bound), a nonbasic slack's is its bound in `token.rows`.
        An infinite `primal` entry makes inf - inf, an invalid operation the
        caller's `errstate` silences."""
        stat, rows = token.stat, token.rows
        at_lower = stat == AT_LOWER
        shift = np.concatenate([
            primal, np.where(at_lower[rows.n:], rows.slack_lo, rows.slack_hi)])
        integral = np.concatenate([
            is_int & (np.abs(primal - primal.round()) <= 1e-9), rows.slack_int])
        return cls(token.tab, rows, nonbasic=_NONBASIC[stat],
                   at_lower=at_lower, shift=shift,
                   stop=(stat == FREE) | ~np.isfinite(shift), integral=integral)


def _gmi_rows(columns: _Columns, rows: np.ndarray, f0: np.ndarray):
    """Derive the cut w . x >= rhs of each tableau row in `rows`, whose basic
    value has the fractional part f0 (at least MIN_FRACTIONALITY from 0 and
    from 1), all at once.  Invalid, overflowing and dividing-by-zero
    operations happen at non-finite entries; the caller's `errstate`
    silences them.

    Returns (W, rhs, ok): row i of W and rhs[i] are row i's cut where
    ok[i].  A row gives no cut when it meets a FREE column or an infinite
    shift, when its cut is not finite (a non-finite coefficient makes it
    so), when it has no nonzero or when its dynamism exceeds MAX_DYNAMISM.

    Each (rows x columns) operation is the arithmetic of a loop over one
    row's columns: each term is the same product, and `const` and the slack
    rows of w are folded left to right with `np.subtract.reduce` (`add.reduce`
    may sum pairwise), with the columns a row does not keep entering the
    folds as exact +0.0 (x - 0.0 is x, signed zeros included).  So each cut
    is the loop's bit for bit.  Row-wise any() is `np.logical_or.reduce`,
    which skips the method's dispatch.
    """
    node_rows = columns.rows
    n = node_rows.n
    f0 = f0[:, None]
    a = columns.tab.take(rows, 0)
    cols = columns.nonbasic & ~(np.abs(a) <= ZERO_COEF)
    stops = cols & columns.stop
    stopped = np.logical_or.reduce(stops, axis=1)
    cols &= ~np.logical_or.accumulate(stops, axis=1)   # before the first stop
    coef = np.where(columns.at_lower, a, -a)
    integral = columns.integral
    fj = coef - np.floor(coef)
    g0 = 1.0 - f0
    gamma = np.where(integral,
                     np.where(fj <= f0, fj / f0, (1.0 - fj) / g0),
                     np.where(coef > 0, coef / f0, -coef / g0))
    keep = cols & (gamma != 0.0)
    # gamma * z_j in structural space: z_j = x_j - shift at lower, shift
    # - x_j at upper; a slack's z is s_k = b_k - A_k x at lower, -s_k at
    # upper.  sg is gamma with the sign of z's x_j (or -A_k x) term.
    sg = np.where(columns.at_lower, gamma, -gamma)

    keep_x, keep_s = keep[:, :n], keep[:, n:]
    W = np.where(keep_x, sg[:, :n], _ZERO)
    terms = np.zeros((len(rows), n + node_rows.m + 1))   # terms[:, 0]: the fold's 0.0
    np.multiply(sg[:, :n], columns.shift[:n], out=terms[:, 1:n + 1], where=keep_x)
    np.multiply(-sg[:, n:], node_rows.rhs, out=terms[:, n + 1:], where=keep_s)
    const = np.subtract.reduce(terms, axis=1)
    slack = np.logical_or.reduce(keep_s, axis=0).nonzero()[0]
    if len(slack):
        block = np.zeros((len(slack) + 1, len(rows), n))
        block[0] = W
        np.multiply(sg.take(n + slack, 1).T[:, :, None],
                    node_rows.mat.take(slack, 0)[:, None, :],
                    out=block[1:], where=keep_s.take(slack, 1).T[:, :, None])
        np.subtract.reduce(block, axis=0, out=W)

    rhs = 1.0 - const
    # |w_j| <= ZERO_COEF is zeroed; the rest (NaN included) is nonzero, and
    # the largest |w_j| of a row with a nonzero is a nonzero's: NaN or inf
    # when any w_j is
    size = np.abs(W)
    tiny = size <= ZERO_COEF
    W[tiny] = 0.0
    nz = ~tiny
    top = size.max(axis=1, initial=-INF)
    least = np.where(nz, size, _INF).min(axis=1, initial=INF)
    ok = (~stopped & np.logical_or.reduce(nz, axis=1) & np.isfinite(top)
          & np.isfinite(rhs) & ~(top / least > MAX_DYNAMISM))
    return W, rhs, ok


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

    One pass derives the cuts of every candidate row (`_gmi_rows`); they are
    then taken in row order, as a loop over the rows took them, until the
    cap, and the block gathers the rows taken from that pass's arrays.  A
    row with a non-finite basic value or a non-finite cut gives no cut.
    """
    token, x = result.basis, result.primal
    n = len(x)
    if result.status is not LpStatus.OPTIMAL:
        return CutBlock(np.zeros((0, n)), np.zeros(0))
    basic = token.basis
    cand = (basic < n).nonzero()[0]
    cand = cand[is_int[basic[cand]]]
    b0 = x[basic[cand]]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        f0 = b0 - np.floor(b0)
        # a fractional part within MIN_FRACTIONALITY of neither 0 nor 1; a
        # non-finite basic value's is NaN, in neither band
        live = (f0 >= MIN_FRACTIONALITY) & (f0 <= 1.0 - MIN_FRACTIONALITY)
        W, rhs, ok = _gmi_rows(_Columns.of(token, x, is_int), cand[live], f0[live])
    taken = []
    for c in ok.nonzero()[0].tolist():
        if len(taken) >= MAX_CUTS_PER_ROUND:
            break
        # ndarray.dot is matmul's w @ x up to the sign of a zero
        if float(W[c].dot(x)) >= rhs[c] - MIN_VIOLATION:
            continue
        taken.append(c)
    return CutBlock(W[taken], rhs[taken])
