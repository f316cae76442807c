"""Bounded-variable simplex over a dense tableau: primal and dual.

Rows are converted to equalities with one slack each (LE: s >= 0, GE: s <= 0,
EQ: s fixed at 0), so the tableau is B^-1 [A | I] with the right-hand side
B^-1 b beside it.  The two are one array, [B^-1 [A | I] | B^-1 b], with the
right-hand side as its last column, and `tab` and `rhs` are views of it;
each pivot is one `eliminate` on the whole array.

Cold starts run the primal simplex from the slack basis.  Phase 1 minimizes
the total bound violation of the basic variables; phase 2 runs the usual
bounded-variable pivoting, and Bland's rule is engaged after a
degenerate-pivot streak to guarantee termination.  Each pass recomputes the
basic values beta and the reduced costs d from the tableau.

Warm starts, from the token of an earlier solve, run the bounded dual simplex
with the bound-flipping ratio test (Koberstein, *The dual simplex method*,
2005) whenever the warm basis is dual feasible, as it is after a bound
change or appended rows.  Boxed columns priced on the wrong side move to
their other bound first.  The leaving row is the largest bound violation;
beta, d and the basic costs c_B are updated at each pivot, not recomputed.
Its objective is a lower bound on the LP optimum at every pivot, so an
ITER_LIMIT result is a valid bound.  Before OPTIMAL or INFEASIBLE is
reported, beta is recomputed from scratch and the verdict checked again.  A
streak of degenerate dual pivots, or a warm basis that is not dual feasible,
hands the basis to the primal loop.

The dual loop also stops early at an objective cutoff (the objective limit
SCIP gives its LP solver; Achterberg, *Constraint Integer Programming*,
2007).  Before each pass, the basis objective c_B beta + c_N x_N is compared
with the cutoff; at or above it the loop returns CUTOFF, after the same
comparison on a beta recomputed from scratch has confirmed it.  The
confirming beta is a temporary: when it does not confirm, the loop goes on
from the updated beta, so a solve whose cutoff never fires takes the same
pivots as one without a cutoff.  The primal loop has no cutoff.  Only branch
and bound's node LPs and cut re-solves pass one (the incumbent's pruning
bound); strong-branching probes and the all-fixed hint LP run to the end.

Both loops pivot through one helper, which factorizes the basis again once
a tableau has taken REFACTOR_AGE pivots since its last factorization (the
dual loop then recomputes d).  Tokens come only from solves, and each
carries the solve's final tableau, never due for refactorization.  A warm
start on the token's rows copies that tableau; on rows extended from them
by `NodeRows.extend` it adds the new rows as C - C_B T with their slacks
basic; a token of any other rows is a ValueError.  A warm start never
factorizes a basis.  Each pivot or bound flip is one iteration.

The dual loop's start on a carried tableau (the statuses after the reset and
the wrong-side flips, the fresh reduced costs d with sgn and free, the
nonbasic values and beta) depends on nothing but the token, the costs and
the bounds of the token's nonbasic columns.  The first warm start that
copies a token's own tableau (same rows) keeps that start on the token,
read-only, with no tableau copy.  A later warm start from the token whose
nonbasic bounds and costs equal the kept ones bit for bit, signed zeros
included, copies the start instead of deriving it; its first pass therefore
starts from the same arrays and takes the same pivots.
The children of a node and its strong-branching probes move one bound of a
column that is basic in the node's token, so they all copy the node's
start.  Extended rows, other nonbasic bounds or costs, and a basis that is
not dual feasible derive the start as before.

`solve_arrays` over a `NodeRows` row carrier is the one entry point.

The tableaus are small (about 20 x 50 entries on the benchmark workloads)
and a dual re-solve takes a few pivots, so a pass costs mostly the fixed
overhead of its few dozen numpy calls, not their arithmetic.  The loops keep
that overhead low without changing a bit: they compare arrays against 0-d
array constants rather than Python floats, count with numpy's C
`count_nonzero` (`kernels.count_nonzero`), and test the cutoff with
`ndarray.dot`, which returns matmul's value up to the sign of a zero and so
gives the same comparison.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernels import Kernels, count_nonzero
from .model import INF, Sense

PIVOT_TOL = 1e-9
DCOST_TOL = 1e-9
FEAS_TOL = 1e-7
DEGEN_TOL = 1e-11
REFACTOR_AGE = 64       # pivots on a tableau before its basis is factorized again
DUAL_STALL_AFTER = 50   # degenerate dual pivots in a row before the primal loop takes over

# column statuses
AT_LOWER, AT_UPPER, BASIC, FREE, FIXED = 0, 1, 2, 3, 4


class LpStatus(Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    ITER_LIMIT = "ITER_LIMIT"
    CUTOFF = "CUTOFF"


class SimplexTrouble(RuntimeError):
    """Internal: phase-1 ray without a breakpoint (numerical breakdown)."""


class NonFiniteLpError(RuntimeError):
    """An OPTIMAL or ITER_LIMIT solve ended at a point with a NaN or an
    infinite entry: nothing can be read from it."""


@dataclass
class SimplexBasis:
    """Warm-start token, as a solve returns it: the basic column per row, all
    column statuses, and the solve's final tableau `tab` = B^-1 [A | I] and
    `rhs` = B^-1 b on `rows` (read-only views of the solve's tableau array;
    a warm start copies any arrays of those shapes), with `age`, the pivots
    made on them since the basis was last factorized, always below
    REFACTOR_AGE.  `start` is the dual start kept by the first warm start on
    that tableau (see the module docstring); `dataclasses.replace` does not
    copy it."""

    basis: np.ndarray
    stat: np.ndarray
    tab: np.ndarray
    rhs: np.ndarray
    age: int
    rows: NodeRows
    start: _DualStart | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def ncols(self) -> int:
        return len(self.stat)


@dataclass(frozen=True)
class _DualStart:
    """The first pass of the dual loop on a token's own tableau, read-only:
    the statuses after the warm-start reset and the wrong-side flips, the
    reduced costs `d`, `sgn` and `free` (see `_Simplex._dual_start`), the
    nonbasic values `vals` and `beta`.  `key` holds what it was derived from
    beyond the token: the bounds of the token's nonbasic columns `nonbasic`
    and the costs, as bytes."""

    nonbasic: np.ndarray
    key: tuple[bytes, bytes, bytes]
    stat: np.ndarray
    d: np.ndarray
    sgn: np.ndarray
    free: np.ndarray | None
    vals: np.ndarray
    beta: np.ndarray


def _start_key(nonbasic: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               cost: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """The bytes a dual start depends on beyond its token: equal bytes are
    equal bits, signed zeros and NaNs included."""
    return lo[nonbasic].tobytes(), hi[nonbasic].tobytes(), cost.tobytes()


@dataclass
class LpResult:
    """What `solve_arrays` returns.  `basis` is the warm-start token, with
    the final tableau, basis, statuses and rows; `primal` is the final
    basis's point, each nonbasic column at its bound.  Cut generation reads
    an OPTIMAL result's token and point.  A CUTOFF result's `objective` is
    the dual simplex objective at which it stopped: a lower bound on the LP
    optimum that is >= the cutoff; its `primal` is that basis's point, which
    need not be feasible."""

    status: LpStatus
    primal: np.ndarray
    objective: float
    basis: SimplexBasis
    iterations: int


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# 0-d arrays: a ufunc takes one as an operand faster than a Python float
_ZERO = _frozen(np.array(0.0))
_PIVOT_TOL = _frozen(np.array(PIVOT_TOL))
_MINUS_PIVOT_TOL = _frozen(np.array(-PIVOT_TOL))


# a row's slack s = b - a.x lies in these bounds, by the row's sense
_SLACK_BOUNDS = {Sense.LE: (0.0, INF), Sense.GE: (-INF, 0.0), Sense.EQ: (0.0, 0.0)}


def _slack_bounds(senses) -> tuple[np.ndarray, np.ndarray]:
    """The slack bounds of rows of these senses; TypeError for anything but
    a `Sense` member, a plain "LE" included (it equals and hashes as
    Sense.LE, so the table alone would take it)."""
    m = len(senses)
    lo = np.empty(m)
    hi = np.empty(m)
    for i, s in enumerate(senses):
        if type(s) is not Sense:
            raise TypeError(f"row {i}: sense {s!r} is not a Sense")
        lo[i], hi[i] = _SLACK_BOUNDS[s]
    return lo, hi


class NodeRows:
    """The rows of an LP, built once per row set and shared read-only.

    Holds the dense matrix, the senses and right-hand sides, `[A | I]`, the
    slack bounds and the slack integrality (True where the slack is integral
    at every integer-feasible point; False, the default, is always valid).
    Branch and bound hands a node's rows to its children and extends them
    with each cut round's new rows only.  Rows made by `extend` remember
    (weakly) the rows they extend, so a warm start can carry a tableau
    taken on those rows over to these; they take the slack bounds of those
    rows from them and derive only the new rows' own.
    """

    def __init__(self, mat, senses, rhs, slack_int=None, parent=None):
        self.mat = _frozen(np.array(mat, dtype=float))
        self.m, self.n = self.mat.shape
        self.senses = tuple(senses)
        self.rhs = _frozen(np.array(rhs, dtype=float))
        self.slack_int = _frozen(np.zeros(self.m, dtype=bool) if slack_int is None
                                 else np.array(slack_int, dtype=bool))
        if parent is None:
            slo, shi = _slack_bounds(self.senses)
        else:   # the parent's rows come first (see `extend`)
            new_lo, new_hi = _slack_bounds(self.senses[parent.m:])
            slo = np.concatenate([parent.slack_lo, new_lo])
            shi = np.concatenate([parent.slack_hi, new_hi])
        self.slack_lo = _frozen(slo)
        self.slack_hi = _frozen(shi)
        self.all_cols = _frozen(np.hstack([self.mat, np.eye(self.m)]))
        self._parent = None if parent is None else weakref.ref(parent)

    def extend(self, mat, senses, rhs) -> "NodeRows":
        """These rows with the dense rows (mat, senses, rhs) below them;
        their slacks are not marked integral."""
        if not len(rhs):
            return self
        return NodeRows(np.vstack([self.mat, mat]), self.senses + tuple(senses),
                        np.concatenate([self.rhs, rhs]),
                        np.concatenate([self.slack_int, np.zeros(len(rhs), dtype=bool)]),
                        parent=self)

    def extends(self, rows: "NodeRows") -> bool:
        """Whether these rows are `rows` with rows appended by `extend`."""
        parent = self._parent() if self._parent is not None else None
        return parent is not None and parent is rows

    def factorization(self, basis: np.ndarray):
        """(B^-1 [A | I], B^-1 b) for the basis columns `basis`, as fresh
        arrays the caller may pivot in place; None when B is singular or the
        tableau is not finite."""
        try:
            B = self.all_cols[:, basis]
            tab = np.ascontiguousarray(np.linalg.solve(B, self.all_cols))
            rhs = np.linalg.solve(B, self.rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(tab)):
            return None
        return tab, rhs


def _augmented(tab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A fresh tableau array [tab | rhs]."""
    aug = np.empty((tab.shape[0], tab.shape[1] + 1))
    aug[:, :-1] = tab
    aug[:, -1] = rhs
    return aug


def _nonbasic_status(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Resting status of each column were it nonbasic: FIXED, else the finite
    lower bound, else the finite upper bound, else FREE."""
    stat = np.full(len(lo), FREE, dtype=np.int8)
    stat[hi < INF] = AT_UPPER
    stat[lo > -INF] = AT_LOWER
    stat[lo == hi] = FIXED
    return stat


def _warm_statuses(stat: np.ndarray, basis: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """A warm start's statuses from a token's `stat`, as a fresh array: the
    `basis` columns are BASIC.  A nonbasic column keeps AT_UPPER below a
    finite upper bound, and FREE, unless its bounds are equal; every other
    one goes back to rest, which keeps AT_LOWER above a finite lower bound."""
    stat = np.where((lo != hi) & ((stat == FREE) | ((stat == AT_UPPER) & (hi < INF))),
                    stat, _nonbasic_status(lo, hi))
    stat[basis] = BASIC
    return stat


# Per status code: 0.0 where a nonbasic column in that status may increase
# (AT_LOWER, FREE) / decrease (AT_UPPER, FREE), -INF where it may not.
_INCR_PEN = np.array([0.0, -INF, -INF, 0.0, -INF])
_DECR_PEN = np.array([-INF, 0.0, -INF, 0.0, -INF])
# Per status code: the direction in which a nonbasic column in that status
# enters the dual ratio test, up from AT_LOWER and down from AT_UPPER.
_DUAL_DIR = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
# Per status code: True where a column's value is 0 in the basis point's
# nonbasic values (BASIC, whose value beta holds, and FREE).
_AT_ZERO = np.array([False, False, True, True, False])


class _Simplex:
    def __init__(self, rows: NodeRows, lo, hi, cost, kernels: Kernels,
                 bland_after: int):
        """A simplex over a shared row carrier."""
        self.rows = rows
        self.m, self.n = rows.m, rows.n
        self.lo = np.concatenate([lo, rows.slack_lo])
        self.hi = np.concatenate([hi, rows.slack_hi])
        self.cost = np.concatenate([cost, np.zeros(self.m)])
        self.ncols = self.n + self.m
        self.all_cols = rows.all_cols
        self.b = rows.rhs
        self.k = kernels
        self.bland_after = bland_after
        self.iterations = 0
        self._kept = None      # a start the first dual pass copies
        self._keep_on = None   # the token the first dual pass keeps its start on

    # -- basis management ---------------------------------------------------

    def _set_tableau(self, aug: np.ndarray) -> None:
        """Pivot on `aug` = [B^-1 [A | I] | B^-1 b] from now on."""
        self.aug = aug
        self.tab = aug[:, :-1]
        self.rhs = aug[:, -1]

    def cold_start(self):
        # a copy: pivots must not overwrite [A | I]
        self._set_tableau(_augmented(self.all_cols, self.b))
        self.basis = np.arange(self.n, self.ncols, dtype=np.int64)
        self.stat = _nonbasic_status(self.lo, self.hi)
        self.stat[self.basis] = BASIC
        self.age = 0   # pivots on the tableau since the basis was factorized

    def warm_start(self, token: SimplexBasis) -> bool:
        """Start from the token of a solve on these rows or on rows these
        rows extend; True.  A token of other rows is a ValueError."""
        own = token.rows is self.rows
        if not (own or self.rows.extends(token.rows)):
            raise ValueError("the token was taken on rows these rows neither are nor extend")
        self._set_tableau(self._carried_tableau(token))
        self.age = token.age
        basis = token.basis.copy()   # pivots change it in place
        stat = token.stat
        if not own:   # the appended rows' slacks start basic
            basis = np.concatenate([basis, np.arange(token.ncols, self.ncols, dtype=np.int64)])
            stat = np.concatenate([stat, np.full(self.ncols - token.ncols, BASIC, dtype=np.int8)])
        self.basis = basis
        kept = token.start if own else None
        if kept is not None and kept.key == _start_key(kept.nonbasic, self.lo,
                                                       self.hi, self.cost):
            self.stat = kept.stat.copy()
            self._kept = kept
        else:
            self.stat = _warm_statuses(stat, basis, self.lo, self.hi)
            if own and kept is None:
                self._keep_on = token
        return True

    def _carried_tableau(self, token: SimplexBasis) -> np.ndarray:
        """The token's tableau and rhs on these rows, as a fresh tableau
        array.  On rows extended from the token's, each appended row k, with
        its slack basic, is row k of [A | I] minus C_B T, where C_B holds the
        row's entries in the token's basic columns."""
        if token.rows is self.rows:
            return _augmented(token.tab, token.rhs)
        m0, ncols0 = token.tab.shape
        aug = np.zeros((self.m, self.ncols + 1))
        aug[:m0, :ncols0] = token.tab
        aug[:m0, -1] = token.rhs
        new = self.all_cols[m0:]
        # fancy indexing, not take(): it lays c_b out in Fortran order, and
        # the BLAS product below sums in an order that follows the layout
        c_b = new[:, token.basis]
        np.subtract(new, c_b @ aug[:m0, :-1], out=aug[m0:, :-1])
        # BLAS sums over a strided vector in another order: the product
        # takes a contiguous rhs, whatever the token holds
        np.subtract(self.b[m0:], c_b @ np.ascontiguousarray(token.rhs), out=aug[m0:, -1])
        return aug

    def _refactor(self) -> None:
        """Replace the tableau by a fresh factorization of the basis; a
        singular basis keeps the carried one for another REFACTOR_AGE
        pivots."""
        factored = self.rows.factorization(self.basis)
        if factored is not None:
            self._set_tableau(_augmented(*factored))
        self.age = 0

    def _pivot(self, r: int, q: int) -> bool:
        """Column q enters the basis in row r.  Once the tableau has taken
        REFACTOR_AGE pivots, the basis is factorized again; True then."""
        self.k.eliminate(self.aug, r, q)
        self.basis[r] = q
        self.stat[q] = BASIC
        self.age += 1
        if self.age < REFACTOR_AGE:
            return False
        self._refactor()
        return True

    # -- iteration pieces ---------------------------------------------------

    def nonbasic_values(self) -> np.ndarray:
        stat = self.stat
        vals = np.where(stat == AT_UPPER, self.hi, self.lo)
        vals[_AT_ZERO[stat]] = 0.0
        return vals

    def compute_beta(self, vals: np.ndarray) -> np.ndarray:
        beta = self.rhs.copy()
        nz = vals.nonzero()[0]   # basic and free columns have value 0
        if len(nz):
            self.k.subtract_scaled_columns(beta, self.tab, nz, vals[nz])
        return beta

    def reduced_costs(self) -> np.ndarray:
        d = self.cost.copy()
        self.k.accumulate_rowsum(d, self.cost[self.basis], self.tab)
        return d

    def objective(self, beta: np.ndarray, vals: np.ndarray) -> float:
        """c.x of the basis point with basic values beta and nonbasic values
        vals (zero on the basic columns)."""
        return float(self.cost[self.basis] @ beta + self.cost @ vals)

    def primal_point(self, beta: np.ndarray, vals: np.ndarray) -> np.ndarray:
        x = vals.copy()
        x[self.basis] = beta
        return x

    def run(self, iter_limit: int):
        """Primal simplex; returns (status, beta) with beta valid for
        OPTIMAL/ITER_LIMIT.

        Everything that changes only where a pivot or bound flip changes a
        column is kept current across pivots, one entry at a time: the
        nonbasic values, the basic bounds (plain and FEAS_TOL-shifted), the
        basic costs and the penalties that mark the columns that may not
        increase or decrease.  The nonbasic values stay in `self.vals`.
        Each pass reads the tableau afresh, so a refactorization between
        passes needs nothing else.
        """
        bland = self.bland_after <= 0
        degen_streak = 0
        lo, hi, stat, basis, cost = self.lo, self.hi, self.stat, self.basis, self.cost
        vals = self.vals = self.nonbasic_values()
        lB = lo[basis]
        uB = hi[basis]
        lB_tol = lB - FEAS_TOL
        uB_tol = uB + FEAS_TOL
        cB = cost[basis]
        incr_pen = _INCR_PEN[stat]
        decr_pen = _DECR_PEN[stat]
        t = np.empty(self.m)
        while True:
            beta = self.compute_beta(vals)
            below = beta < lB_tol
            above = beta > uB_tol
            infeas = below | above
            phase1 = count_nonzero(infeas) > 0

            if phase1:
                w = np.subtract(above, below, dtype=float)   # +1 above, -1 below
                d = np.zeros(self.ncols)
            else:
                d = cost.copy()
                w = cB
            self.k.accumulate_rowsum(d, w, self.tab)

            # score is |d| where moving the column along d improves and
            # -INF or at most DCOST_TOL elsewhere; the columns with
            # score > DCOST_TOL are eligible to enter.
            score = np.maximum(incr_pen - d, d + decr_pen)
            if bland:
                j = int((score > DCOST_TOL).argmax())
            else:
                j = int(score.argmax())
            if not score[j] > DCOST_TOL:
                if phase1:
                    return LpStatus.INFEASIBLE, beta
                return LpStatus.OPTIMAL, beta
            if self.iterations >= iter_limit:
                return LpStatus.ITER_LIMIT, beta
            delta = 1.0 if d[j] < 0.0 else -1.0

            # Ratio test: first breakpoint along the entering direction.  A
            # violated row stops at the bound it violates once g has moved it
            # back there; a feasible row stops at the bound g moves it
            # towards (an infinite one gives a step of INF).  Either way that
            # is uB exactly where up ^ infeas.
            g = -delta * self.tab[:, j]
            up = g > _PIVOT_TOL
            down = g < _MINUS_PIVOT_TOL
            ok = (up > above) | (down > below)   # a > b is a & ~b
            t.fill(INF)
            np.divide(np.where(up ^ infeas, uB, lB) - beta, g, out=t, where=ok)
            np.maximum(t, _ZERO, out=t)

            t_rows = float(t[t.argmin()]) if self.m else INF
            t_flip = hi[j] - lo[j]   # INF unless both bounds are finite

            if t_rows == INF and t_flip == INF:
                if phase1:
                    raise SimplexTrouble("phase-1 ray without breakpoint")
                return LpStatus.UNBOUNDED, beta

            if t_flip <= t_rows:
                if stat[j] == AT_LOWER:
                    stat[j], vals[j] = AT_UPPER, hi[j]
                else:
                    stat[j], vals[j] = AT_LOWER, lo[j]
                incr_pen[j] = _INCR_PEN[stat[j]]
                decr_pen[j] = _DECR_PEN[stat[j]]
                step = t_flip
            else:
                cand = (t == t_rows).nonzero()[0]
                r = int(cand[0]) if len(cand) == 1 else int(cand[basis[cand].argmin()])
                leaving = int(basis[r])
                if lo[leaving] == hi[leaving]:
                    leave_stat = FIXED
                elif below[r]:
                    leave_stat = AT_LOWER
                elif above[r]:
                    leave_stat = AT_UPPER
                else:
                    leave_stat = AT_UPPER if g[r] > 0 else AT_LOWER
                self._pivot(r, j)
                stat[leaving] = leave_stat
                incr_pen[j] = decr_pen[j] = -INF
                incr_pen[leaving] = _INCR_PEN[leave_stat]
                decr_pen[leaving] = _DECR_PEN[leave_stat]
                vals[j] = 0.0
                vals[leaving] = hi[leaving] if leave_stat == AT_UPPER else lo[leaving]
                lB[r] = lo[j]
                uB[r] = hi[j]
                lB_tol[r] = lo[j] - FEAS_TOL
                uB_tol[r] = hi[j] + FEAS_TOL
                cB[r] = cost[j]
                step = t_rows

            self.iterations += 1
            if step <= DEGEN_TOL:
                degen_streak += 1
                if degen_streak >= self.bland_after:
                    bland = True
            else:
                degen_streak = 0
                bland = self.bland_after <= 0

    def _dual_start(self, box: np.ndarray):
        """(d, sgn, free, vals, beta) for a pass of the dual loop, as fresh
        arrays, after every boxed column priced on the wrong side by the
        reduced costs d has moved to its other bound: sgn is the direction
        each column moves in the ratio test (+1 up from the lower bound, -1
        down from the upper bound, 0 for basic, fixed and free columns),
        free marks the free nonbasic columns (None if there are none), vals
        holds the nonbasic values and beta the basic ones.  None when d does
        not price the basis dual feasible.

        The first pass after a warm start copies the start kept on its
        token, or keeps the start it derives there (see the module
        docstring)."""
        kept, self._kept = self._kept, None
        if kept is not None:
            free = None if kept.free is None else kept.free.copy()
            return kept.d.copy(), kept.sgn.copy(), free, kept.vals.copy(), kept.beta.copy()
        token, self._keep_on = self._keep_on, None
        d = self.reduced_costs()
        stat = self.stat
        sgn = _DUAL_DIR[stat]
        # count_nonzero: a reduction like any() costs more on short arrays
        wrong = sgn * d < -DCOST_TOL
        if count_nonzero(wrong):
            if count_nonzero(box[wrong] == INF):
                return None
            stat[wrong] = np.where(stat[wrong] == AT_LOWER, AT_UPPER, AT_LOWER)
            sgn[wrong] = -sgn[wrong]
        free = stat == FREE   # nonbasic; a free column never leaves
        if not count_nonzero(free):
            free = None
        elif np.any(np.abs(d[free]) > DCOST_TOL):
            return None
        vals = self.nonbasic_values()
        beta = self.compute_beta(vals)
        if token is not None:
            nonbasic = _frozen((stat != BASIC).nonzero()[0])
            token.start = _DualStart(
                nonbasic, _start_key(nonbasic, self.lo, self.hi, self.cost),
                *(None if a is None else _frozen(a.copy())
                  for a in (stat, d, sgn, free, vals, beta)))
        return d, sgn, free, vals, beta

    def run_dual(self, iter_limit: int, cutoff: float = INF):
        """Bounded dual simplex from the current basis.  Returns (status,
        beta) like `run`, or None when the basis is not dual feasible or the
        dual loop stalls; the basis is then left for the primal loop.

        Before each pass it returns (CUTOFF, fresh beta) once the basis
        objective, confirmed on a fresh beta, is at least `cutoff` (see the
        module docstring).

        Each pass takes the row r with the largest bound violation of beta
        and runs the bound-flipping ratio test over the nonbasic columns
        whose move (up from the lower bound, down from the upper one) takes
        beta_r back towards its bound: the breakpoints |d_j| / |alpha_rj| are
        passed in increasing order (ties to the largest |alpha_rj|, then the
        lowest index), each boxed one flipping its column, while the
        violation left over stays positive.  The column whose breakpoint
        uses it up enters.  One `eliminate` per pivot; d moves by
        theta_d * alpha_r, beta by the flipped columns and the entering one.
        """
        lo, hi, stat, basis, cost = self.lo, self.hi, self.stat, self.basis, self.cost
        m = self.m
        box = hi - lo   # INF unless both bounds are finite
        stall = 0
        restart = True
        while True:
            if restart:
                start = self._dual_start(box)
                if start is None:
                    return None
                d, sgn, free, vals, beta = start
                self.vals = vals
                lB = lo[basis]
                uB = hi[basis]
                cB = cost[basis]
                tab = self.tab
                restart = False
                fresh = True   # beta recomputed from the tableau, not updated

            # the basis objective, as `objective` computes it up to the sign
            # of a zero (ndarray.dot skips matmul's ufunc dispatch)
            if cutoff < INF and float(cB.dot(beta) + cost.dot(vals)) >= cutoff:
                confirmed = beta if fresh else self.compute_beta(vals)
                if float(cB.dot(confirmed) + cost.dot(vals)) >= cutoff:
                    return LpStatus.CUTOFF, confirmed

            viol = np.maximum(lB - beta, beta - uB)
            r = int(viol.argmax()) if m else 0
            viol_r = viol[r] if m else 0.0
            if not viol_r > FEAS_TOL:
                if fresh:
                    return LpStatus.OPTIMAL, beta
                beta, fresh = self.compute_beta(vals), True
                continue
            lB_r = lB[r]
            below = beta[r] < lB_r
            alpha = tab[r]
            # sgn_j * alpha_rj < 0: moving column j raises beta_r (> 0: lowers);
            # a free column moves either way, with a breakpoint at 0
            moves = sgn * alpha
            eligible = moves < _MINUS_PIVOT_TOL if below else moves > _PIVOT_TOL
            if free is not None:
                eligible |= free & (np.abs(alpha) > PIVOT_TOL)
            cand = eligible.nonzero()[0]
            k = -1   # breakpoints passed (flipped) before the entering one q
            if len(cand):
                abs_a = np.abs(alpha[cand])
                ratio = (sgn * d)[cand]
                np.maximum(ratio, _ZERO, out=ratio)
                ratio /= abs_a
                i = int(ratio.argmin())
                if abs_a[i] * box[cand[i]] >= viol_r and (
                        len(cand) == 1 or count_nonzero(ratio == ratio[i]) == 1):
                    # the first breakpoint alone is enough
                    k, q, ratio_q = 0, int(cand[i]), ratio[i]
                else:
                    order = np.lexsort((-abs_a, ratio))   # stable: lowest index first
                    cand, ratio, abs_a = cand[order], ratio[order], abs_a[order]
                    used = np.cumsum(abs_a * box[cand])
                    short = viol_r - used[-1]   # left with every candidate flipped
                    # Within FEAS_TOL of enough, the last breakpoint enters.
                    if short <= 0.0:
                        k = int((used >= viol_r).argmax())
                    elif short <= FEAS_TOL:
                        k = len(cand) - 1
                    if k >= 0:
                        q, ratio_q = int(cand[k]), ratio[k]
            if k < 0:
                if fresh:
                    return LpStatus.INFEASIBLE, beta
                beta, fresh = self.compute_beta(vals), True
                continue
            if self.iterations + 1 + k > iter_limit:
                return LpStatus.ITER_LIMIT, beta
            alpha_q = alpha[q]
            theta = d[q] / alpha_q if ratio_q > 0.0 else 0.0

            if k:
                flips = cand[:k]
                sgn_f = sgn[flips]
                to_upper = sgn_f > _ZERO
                self.k.subtract_scaled_columns(beta, tab, flips, sgn_f * box[flips])
                vals[flips] = np.where(to_upper, hi[flips], lo[flips])
                stat[flips] = np.where(to_upper, AT_UPPER, AT_LOWER)
                sgn[flips] = -sgn_f
            leaving = int(basis[r])
            bound = lB_r if below else uB[r]
            step = (beta[r] - bound) / alpha_q
            beta -= step * tab[:, q]
            beta[r] = vals[q] + step
            if theta != 0.0:
                d -= theta * alpha
            d[q] = 0.0
            restart = self._pivot(r, q)   # a refactorization: derive a fresh start
            sgn[q] = 0.0
            if free is not None:
                free[q] = False
            if lo[leaving] == hi[leaving]:
                stat[leaving] = FIXED
            else:
                stat[leaving] = AT_LOWER if below else AT_UPPER
                sgn[leaving] = 1.0 if below else -1.0
            vals[q] = 0.0
            vals[leaving] = bound
            lB[r] = lo[q]
            uB[r] = hi[q]
            cB[r] = cost[q]
            fresh = False

            self.iterations += 1 + k
            if abs(theta) <= DEGEN_TOL:
                stall += 1
                if stall >= DUAL_STALL_AFTER:
                    return None
            else:
                stall = 0


def solve_arrays(rows: NodeRows, lo, hi, cost, warm, iter_limit,
                 kernels, bland_after, cutoff: float = INF) -> LpResult:
    """Solve min cost.x over `rows` within the column bounds lo, hi, from the
    token `warm` when it is given (see `_Simplex.warm_start`); deterministic
    for fixed inputs.

    ITER_LIMIT is returned (never raised) when the pivot budget runs out.
    CUTOFF is returned when the dual simplex shows that the optimum is at
    least `cutoff`; the primal loop runs to the end whatever the cutoff.
    An OPTIMAL or ITER_LIMIT result always has a finite point: a solve that
    ends at a NaN or inf raises `NonFiniteLpError`.  The points of the other
    statuses are not read by any caller and are not checked.
    """
    sx = _Simplex(rows, lo, hi, cost, kernels, bland_after)
    try:
        out = None
        if warm is None:
            sx.cold_start()
        else:
            sx.warm_start(warm)
            out = sx.run_dual(iter_limit, cutoff)
        status, beta = out if out is not None else sx.run(iter_limit)
    except SimplexTrouble:
        # Refactorize from scratch with Bland from the first pivot; if the
        # breakdown persists, report the pivot budget as exhausted.
        sx = _Simplex(rows, lo, hi, cost, kernels, bland_after=0)
        sx.cold_start()
        try:
            status, beta = sx.run(iter_limit)
        except SimplexTrouble:
            status, beta = LpStatus.ITER_LIMIT, sx.compute_beta(sx.vals)

    primal = sx.primal_point(beta, sx.vals)[:sx.n]
    if status is LpStatus.INFEASIBLE:
        objective = INF
    elif status is LpStatus.UNBOUNDED:
        objective = -INF
    elif status is LpStatus.CUTOFF:
        objective = sx.objective(beta, sx.vals)
    else:
        if count_nonzero(np.isfinite(primal)) < sx.n:
            raise NonFiniteLpError(f"{status.value} solve ended at a non-finite point")
        objective = float(np.dot(cost, primal))
    # sx is dropped here: the token takes its arrays as they are
    aug = _frozen(sx.aug)
    token = SimplexBasis(sx.basis, sx.stat, aug[:, :-1], aug[:, -1], sx.age, rows)
    return LpResult(status, primal, objective, token, sx.iterations)
