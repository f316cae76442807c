"""Bounded-variable primal simplex over a dense tableau.

Rows are converted to equalities with one slack each (LE: s >= 0, GE: s <= 0,
EQ: s fixed at 0).  Phase 1 minimizes the total bound violation of basic
variables, which works from a cold slack basis and from any warm-start basis
alike; phase 2 runs the usual bounded-variable pivoting.  Bland's rule is
engaged after a degenerate-pivot streak to guarantee termination.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernels import Kernels, get_kernels
from .model import INF, LinearRow, MipInstance, Sense, dense_block

PIVOT_TOL = 1e-9
DCOST_TOL = 1e-9
FEAS_TOL = 1e-7
DEGEN_TOL = 1e-11
DEFAULT_BLAND_AFTER = 50
DEFAULT_ITER_LIMIT = 20000

# column statuses
AT_LOWER, AT_UPPER, BASIC, FREE, FIXED = 0, 1, 2, 3, 4


class LpStatus(Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    ITER_LIMIT = "ITER_LIMIT"


class SimplexTrouble(RuntimeError):
    """Internal: phase-1 ray without a breakpoint (numerical breakdown)."""


@dataclass
class SimplexBasis:
    """Opaque warm-start token: basic column per row plus all column statuses."""

    basis: np.ndarray
    stat: np.ndarray

    @property
    def ncols(self) -> int:
        return len(self.stat)


@dataclass
class SimplexSnapshot:
    """Final tableau state, consumed by cut generation."""

    tab: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray
    stat: np.ndarray
    beta: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_struct: int


@dataclass
class LpResult:
    status: LpStatus
    primal: np.ndarray
    objective: float
    basis: SimplexBasis | None
    iterations: int
    snapshot: SimplexSnapshot | None = None


@dataclass
class LpProblem:
    """Instance rows plus appended cut rows and node-local bound overrides."""

    inst: MipInstance
    extra_rows: tuple[LinearRow, ...] = ()
    local_lower: np.ndarray | None = None
    local_upper: np.ndarray | None = None
    rhs_override: np.ndarray | None = None

    def build(self):
        """(rows, lo, hi, cost): the row carrier and the column data."""
        rhs = self.rhs_override if self.rhs_override is not None \
            else self.inst.rhs_array()
        extra = self.extra_rows
        rows = NodeRows(self.inst.dense_matrix(), self.inst.senses(), rhs).extend(
            dense_block(extra, self.inst.num_vars), tuple(row.sense for row in extra),
            [row.rhs for row in extra])
        lo = np.array(self.local_lower) if self.local_lower is not None \
            else np.array(self.inst.lower)
        hi = np.array(self.local_upper) if self.local_upper is not None \
            else np.array(self.inst.upper)
        return rows, lo, hi, np.array(self.inst.objective)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _slack_bounds(senses) -> tuple[np.ndarray, np.ndarray]:
    m = len(senses)
    lo = np.zeros(m)
    hi = np.zeros(m)
    for i, s in enumerate(senses):
        if s is Sense.LE:
            lo[i], hi[i] = 0.0, INF
        elif s is Sense.GE:
            lo[i], hi[i] = -INF, 0.0
        else:
            lo[i], hi[i] = 0.0, 0.0
    return lo, hi


class NodeRows:
    """The rows of an LP, built once per row set and shared read-only.

    Holds the dense matrix, the senses and right-hand sides, `[A | I]`, the
    slack bounds and the slack integrality (True where the slack is integral
    at every integer-feasible point; False, the default, is always valid).
    Branch and bound hands a node's rows to its children and extends them
    with each cut round's new rows only.

    It also keeps the last basis factorization (see `factorization`): LPs on
    the same rows that warm-start from the same basis, such as the
    strong-branching probes and both children of a node, solve the basis
    system once.
    """

    def __init__(self, mat, senses, rhs, slack_int=None):
        self.mat = _frozen(np.array(mat, dtype=float))
        self.m, self.n = self.mat.shape
        self.senses = tuple(senses)
        self.rhs = _frozen(np.array(rhs, dtype=float))
        self.slack_int = _frozen(np.zeros(self.m, dtype=bool) if slack_int is None
                                 else np.array(slack_int, dtype=bool))
        slo, shi = _slack_bounds(self.senses)
        self.slack_lo = _frozen(slo)
        self.slack_hi = _frozen(shi)
        self.all_cols = _frozen(np.hstack([self.mat, np.eye(self.m)]))
        self._factor = None   # (basis bytes, tableau, rhs) of the last success

    def extend(self, mat, senses, rhs) -> "NodeRows":
        """These rows with the dense rows (mat, senses, rhs) below them;
        their slacks are not marked integral."""
        if not len(rhs):
            return self
        return NodeRows(np.vstack([self.mat, mat]), self.senses + tuple(senses),
                        np.concatenate([self.rhs, rhs]),
                        np.concatenate([self.slack_int, np.zeros(len(rhs), dtype=bool)]))

    def factorization(self, basis: np.ndarray):
        """(B^-1 [A | I], B^-1 b) for the basis columns `basis`, as fresh
        arrays the caller may pivot in place; None when B is singular or the
        tableau is not finite.  The last success is kept, keyed by the basis,
        and handed out again as bit-identical copies."""
        key = basis.tobytes()
        memo = self._factor
        if memo is None or memo[0] != key:
            try:
                B = self.all_cols[:, basis]
                tab = np.ascontiguousarray(np.linalg.solve(B, self.all_cols))
                rhs = np.linalg.solve(B, self.rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(tab)):
                return None
            memo = self._factor = (key, tab, rhs)
        return memo[1].copy(), memo[2].copy()


def _nonbasic_status(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Resting status of each column were it nonbasic: FIXED, else the finite
    lower bound, else the finite upper bound, else FREE."""
    stat = np.full(len(lo), FREE, dtype=np.int8)
    stat[hi < INF] = AT_UPPER
    stat[lo > -INF] = AT_LOWER
    stat[lo == hi] = FIXED
    return stat


# Per status code: 0.0 where a nonbasic column in that status may increase
# (AT_LOWER, FREE) / decrease (AT_UPPER, FREE), -INF where it may not.
_INCR_PEN = np.array([0.0, -INF, -INF, 0.0, -INF])
_DECR_PEN = np.array([-INF, 0.0, -INF, 0.0, -INF])


class _Simplex:
    def __init__(self, mat, senses, rhs, lo, hi, cost, kernels: Kernels,
                 bland_after: int):
        """A simplex over plain row arrays, through a row carrier of its own."""
        self._load(NodeRows(mat, senses, rhs), lo, hi, cost, kernels, bland_after)

    @classmethod
    def on_rows(cls, rows: NodeRows, lo, hi, cost, kernels: Kernels,
                bland_after: int) -> "_Simplex":
        """A simplex over a shared row carrier (and its factorization)."""
        sx = cls.__new__(cls)
        sx._load(rows, lo, hi, cost, kernels, bland_after)
        return sx

    def _load(self, rows: NodeRows, lo, hi, cost, kernels, bland_after):
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

    # -- basis management ---------------------------------------------------

    def cold_start(self):
        self.tab = self.all_cols.copy()   # pivots must not overwrite [A | I]
        self.rhs = self.b.copy()
        self.basis = np.arange(self.n, self.ncols, dtype=np.int64)
        self.stat = _nonbasic_status(self.lo, self.hi)
        self.stat[self.basis] = BASIC

    def warm_start(self, token: SimplexBasis) -> bool:
        basis = np.array(token.basis, dtype=np.int64)
        stat = np.array(token.stat, dtype=np.int8)
        if token.ncols > self.ncols or len(basis) > self.m:
            return False
        if token.ncols < self.ncols:
            # Rows were appended since the token was taken: their slacks
            # start basic, everything else keeps its status.
            extra = self.ncols - token.ncols
            if extra != self.m - len(basis):
                return False
            new_slacks = np.arange(token.ncols, self.ncols, dtype=np.int64)
            basis = np.concatenate([basis, new_slacks])
            stat = np.concatenate([stat, np.full(extra, BASIC, dtype=np.int8)])
        if len(basis) != self.m or (self.m and (basis.min() < 0
                                                or basis.max() >= self.ncols)):
            return False
        nonbasic = np.ones(self.ncols, dtype=bool)
        nonbasic[basis] = False
        if np.count_nonzero(nonbasic) != self.ncols - self.m:   # a repeated column
            return False
        # Columns the token calls basic but that left the basis, and nonbasic
        # sides that became invalid under the new bounds, go back to rest.
        lo, hi = self.lo, self.hi
        reset = nonbasic & ((stat == BASIC) | (stat == FIXED) | (lo == hi)
                            | ((stat == AT_LOWER) & (lo == -INF))
                            | ((stat == AT_UPPER) & (hi == INF)))
        stat[reset] = _nonbasic_status(lo, hi)[reset]
        stat[basis] = BASIC
        factored = self.rows.factorization(basis)
        if factored is None:
            return False
        self.tab, self.rhs = factored
        self.basis = basis
        self.stat = stat
        return True

    # -- iteration pieces ---------------------------------------------------

    def nonbasic_values(self) -> np.ndarray:
        vals = np.zeros(self.ncols)
        at_lo = (self.stat == AT_LOWER) | (self.stat == FIXED)
        vals[at_lo] = self.lo[at_lo]
        at_up = self.stat == AT_UPPER
        vals[at_up] = self.hi[at_up]
        return vals

    def compute_beta(self, vals: np.ndarray) -> np.ndarray:
        beta = self.rhs.copy()
        nz = vals.nonzero()[0]   # basic and free columns have value 0
        if len(nz):
            self.k.subtract_scaled_columns(beta, self.tab, nz, vals[nz])
        return beta

    def primal_point(self, beta: np.ndarray, vals: np.ndarray) -> np.ndarray:
        x = vals.copy()
        x[self.basis] = beta
        return x

    def run(self, iter_limit: int):
        """Returns (status, beta) with beta valid for OPTIMAL/ITER_LIMIT.

        Everything that changes only where a pivot or bound flip changes a
        column is kept current across pivots, one entry at a time: the
        nonbasic values, the basic bounds (plain and FEAS_TOL-shifted), the
        basic costs and the penalties that mark the columns that may not
        increase or decrease.  The nonbasic values stay in `self.vals`.
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
            phase1 = np.count_nonzero(infeas) > 0

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
            up = g > PIVOT_TOL
            down = g < -PIVOT_TOL
            ok = (up > above) | (down > below)   # a > b is a & ~b
            t.fill(INF)
            np.divide(np.where(up ^ infeas, uB, lB) - beta, g, out=t, where=ok)
            np.maximum(t, 0.0, out=t)

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
                self.k.eliminate(self.tab, self.rhs, r, j)
                basis[r] = j
                stat[j] = BASIC
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


def solve_arrays(rows: NodeRows, lo, hi, cost, warm, iter_limit,
                 want_snapshot, kernels, bland_after) -> LpResult:
    """Solve min cost.x over `rows` within the column bounds lo, hi."""
    sx = _Simplex.on_rows(rows, lo, hi, cost, kernels, bland_after)
    if warm is None or not sx.warm_start(warm):
        sx.cold_start()
    try:
        status, beta = sx.run(iter_limit)
    except SimplexTrouble:
        # Refactorize from scratch with Bland from the first pivot; if the
        # breakdown persists, report the pivot budget as exhausted.
        sx = _Simplex.on_rows(rows, lo, hi, cost, kernels, bland_after=0)
        sx.cold_start()
        try:
            status, beta = sx.run(iter_limit)
        except SimplexTrouble:
            status, beta = LpStatus.ITER_LIMIT, sx.compute_beta(sx.vals)

    x = sx.primal_point(beta, sx.vals)
    n = sx.n
    primal = x[:n]
    if status is LpStatus.OPTIMAL:
        objective = float(np.dot(cost, primal))
    elif status is LpStatus.INFEASIBLE:
        objective = INF
    elif status is LpStatus.UNBOUNDED:
        objective = -INF
    else:
        objective = float(np.dot(cost, primal))
    token = SimplexBasis(sx.basis.copy(), sx.stat.copy())
    snapshot = None
    if want_snapshot and status is LpStatus.OPTIMAL:
        snapshot = SimplexSnapshot(
            tab=sx.tab.copy(), rhs=sx.rhs.copy(), basis=sx.basis.copy(),
            stat=sx.stat.copy(), beta=beta.copy(), lo=sx.lo.copy(),
            hi=sx.hi.copy(), n_struct=n)
    return LpResult(status, primal, objective, token, sx.iterations, snapshot)


def solve_lp(problem: LpProblem, warm: SimplexBasis | None = None,
             iter_limit: int = DEFAULT_ITER_LIMIT, want_snapshot: bool = False,
             bland_after: int = DEFAULT_BLAND_AFTER) -> LpResult:
    """Solve the LP relaxation; deterministic for fixed inputs.

    ITER_LIMIT is returned (never raised) when the pivot budget runs out.
    """
    rows, lo, hi, cost = problem.build()
    return solve_arrays(rows, lo, hi, cost, warm, iter_limit,
                        want_snapshot, get_kernels(), bland_after)
