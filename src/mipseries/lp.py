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
from .model import INF, LinearRow, MipInstance, Sense

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

    def build_arrays(self):
        rhs = self.rhs_override if self.rhs_override is not None \
            else self.inst.rhs_array()
        mat, senses, rhs = append_rows(self.inst.dense_matrix(), self.inst.senses(),
                                       rhs, self.extra_rows)
        lo = np.array(self.local_lower) if self.local_lower is not None \
            else np.array(self.inst.lower)
        hi = np.array(self.local_upper) if self.local_upper is not None \
            else np.array(self.inst.upper)
        return mat, senses, rhs, lo, hi, np.array(self.inst.objective)


def append_rows(mat, senses, rhs, rows):
    """New (mat, senses, rhs) with the linear rows `rows` below the given ones."""
    extra = np.zeros((len(rows), mat.shape[1]))
    for i, row in enumerate(rows):
        for j, c in row.coefs:
            extra[i, j] = c
    return (np.vstack([mat, extra]), list(senses) + [row.sense for row in rows],
            np.concatenate([rhs, [row.rhs for row in rows]]))


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


def _nonbasic_status(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Resting status of each column were it nonbasic: FIXED, else the finite
    lower bound, else the finite upper bound, else FREE."""
    stat = np.full(len(lo), FREE, dtype=np.int8)
    stat[hi < INF] = AT_UPPER
    stat[lo > -INF] = AT_LOWER
    stat[lo == hi] = FIXED
    return stat


# statuses (indexed by status code) whose column may increase / decrease
_CAN_INCR = np.array([True, False, False, True, False])   # AT_LOWER, FREE
_CAN_DECR = np.array([False, True, False, True, False])   # AT_UPPER, FREE


class _Simplex:
    def __init__(self, mat, senses, rhs, lo, hi, cost, kernels: Kernels,
                 bland_after: int):
        self.m, self.n = mat.shape
        slo, shi = _slack_bounds(senses)
        self.lo = np.concatenate([lo, slo])
        self.hi = np.concatenate([hi, shi])
        self.cost = np.concatenate([cost, np.zeros(self.m)])
        self.ncols = self.n + self.m
        self.all_cols = np.hstack([mat, np.eye(self.m)])
        self.b = np.asarray(rhs, dtype=float)
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
        if len(np.unique(basis)) != self.m or basis.min() < 0 or basis.max() >= self.ncols:
            return False
        # Columns the token calls basic but that left the basis, and nonbasic
        # sides that became invalid under the new bounds, go back to rest.
        lo, hi = self.lo, self.hi
        nonbasic = np.ones(self.ncols, dtype=bool)
        nonbasic[basis] = False
        reset = nonbasic & ((stat == BASIC) | (stat == FIXED) | (lo == hi)
                            | ((stat == AT_LOWER) & (lo == -INF))
                            | ((stat == AT_UPPER) & (hi == INF)))
        stat[reset] = _nonbasic_status(lo, hi)[reset]
        stat[basis] = BASIC
        try:
            B = self.all_cols[:, basis]
            self.tab = np.ascontiguousarray(np.linalg.solve(B, self.all_cols))
            self.rhs = np.linalg.solve(B, self.b)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self.tab)):
            return False
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

        The nonbasic values and the bounds of the basic variables are kept
        current across pivots; each pivot and bound flip updates only the
        entries it changes.
        """
        bland = self.bland_after <= 0
        degen_streak = 0
        lo, hi, stat, basis = self.lo, self.hi, self.stat, self.basis
        vals = self.nonbasic_values()
        lB = lo[basis]
        uB = hi[basis]
        t = np.empty(self.m)
        while True:
            beta = self.compute_beta(vals)
            below = beta < lB - FEAS_TOL
            above = beta > uB + FEAS_TOL
            infeas = below | above
            phase1 = bool(infeas.any())

            if phase1:
                w = np.zeros(self.m)
                w[above] = 1.0
                w[below] = -1.0
                d = np.zeros(self.ncols)
            else:
                d = self.cost.copy()
                w = self.cost[basis]
            self.k.accumulate_rowsum(d, w, self.tab)

            elig_incr = _CAN_INCR[stat] & (d < -DCOST_TOL)
            elig_decr = _CAN_DECR[stat] & (d > DCOST_TOL)
            elig = elig_incr | elig_decr

            if not elig.any():
                if phase1:
                    return LpStatus.INFEASIBLE, beta
                return LpStatus.OPTIMAL, beta
            if self.iterations >= iter_limit:
                return LpStatus.ITER_LIMIT, beta

            if bland:
                j = int(np.argmax(elig))
            else:
                j = int(np.argmax(np.where(elig, np.abs(d), -1.0)))
            delta = 1.0 if elig_incr[j] else -1.0

            # Ratio test: first breakpoint along the entering direction.  A
            # violated row stops at the bound it violates once g has moved it
            # back there; a feasible row stops at the finite bound g moves it
            # towards.  Either way that is uB exactly where up ^ infeas.
            g = -delta * self.tab[:, j]
            up = g > PIVOT_TOL
            down = g < -PIVOT_TOL
            feas = ~infeas
            ok = (up & (below | (feas & (uB < INF)))) \
                | (down & (above | (feas & (lB > -INF))))
            bound = np.where(up ^ infeas, uB, lB)
            t.fill(INF)
            np.subtract(bound, beta, out=t, where=ok)
            np.divide(t, g, out=t, where=ok)
            np.maximum(t, 0.0, out=t)

            t_rows = float(t.min()) if self.m else INF
            t_flip = hi[j] - lo[j] if (lo[j] > -INF and hi[j] < INF) else INF

            if t_rows == INF and t_flip == INF:
                if phase1:
                    raise SimplexTrouble("phase-1 ray without breakpoint")
                return LpStatus.UNBOUNDED, beta

            if t_flip <= t_rows:
                if stat[j] == AT_LOWER:
                    stat[j], vals[j] = AT_UPPER, hi[j]
                else:
                    stat[j], vals[j] = AT_LOWER, lo[j]
                step = t_flip
            else:
                cand = np.nonzero(t == t_rows)[0]
                r = int(cand[np.argmin(basis[cand])])
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
                vals[j] = 0.0
                vals[leaving] = hi[leaving] if leave_stat == AT_UPPER else lo[leaving]
                lB[r] = lo[j]
                uB[r] = hi[j]
                step = t_rows

            self.iterations += 1
            if step <= DEGEN_TOL:
                degen_streak += 1
                if degen_streak >= self.bland_after:
                    bland = True
            else:
                degen_streak = 0
                bland = self.bland_after <= 0


def solve_arrays(mat, senses, rhs, lo, hi, cost, warm, iter_limit,
                  want_snapshot, kernels, bland_after) -> LpResult:
    sx = _Simplex(mat, senses, rhs, lo, hi, cost, kernels, bland_after)
    if warm is None or not sx.warm_start(warm):
        sx.cold_start()
    try:
        status, beta = sx.run(iter_limit)
    except SimplexTrouble:
        # Refactorize from scratch with Bland from the first pivot; if the
        # breakdown persists, report the pivot budget as exhausted.
        sx = _Simplex(mat, senses, rhs, lo, hi, cost, kernels, bland_after=0)
        sx.cold_start()
        try:
            status, beta = sx.run(iter_limit)
        except SimplexTrouble:
            status, beta = LpStatus.ITER_LIMIT, sx.compute_beta(sx.nonbasic_values())

    vals = sx.nonbasic_values()
    x = sx.primal_point(beta, vals)
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
    mat, senses, rhs, lo, hi, cost = problem.build_arrays()
    return solve_arrays(mat, senses, rhs, lo, hi, cost, warm, iter_limit,
                         want_snapshot, get_kernels(), bland_after)
