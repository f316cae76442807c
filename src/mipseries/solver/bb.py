"""Branch-and-bound MIP solver.

Best-bound node selection with short depth-first plunges, pluggable branching
rules, Gomory cut separation at the root and in the tree, a rounding
heuristic at every node and hint completion (sub-MIP based) once at the root
before branching.  One solve owns all mutable state; deterministic for fixed
inputs and deterministic-clock mode.

When every feasible objective value is a multiple of a step g > 0 (integer
costs on integer columns only, see `objective_step`), a better solution
must improve the incumbent by at least g.  Nodes, node LPs and cut
re-solves are then cut off one step below the incumbent, and the open
bound behind the OPTIMAL test and the reported dual bound is rounded up to
a multiple of g (Achterberg, *Constraint Integer Programming*, 2007).  The
node order still uses the raw LP bounds, and strong-branching probes and
the all-fixed hint LP still run without a cutoff.

Once an incumbent exists, every node fixes by reduced cost (Crowder,
Johnson and Padberg, *Operations Research*, 1983; Achterberg 2007).  After
the node's last LP (its cut round and the rounding heuristic done, before
strong branching), the reduced costs d that LP's result carries bound how
far a nonbasic integer column can move from its bound inside the gap =
pruning bound - that LP's objective: an integer column at its lower bound with
d_j > DCOST_TOL gets upper = min(upper, lower + floor(gap / d_j + feas_tol)),
one at its upper bound with d_j < -DCOST_TOL the mirror image.  The node's
bound arrays carry the result into its probes and both children, so root
fixings hold in the whole tree; sub-MIPs fix on their own incumbents.  The
fixing has no switch and, like the rest of a node's bookkeeping, no
work-unit charge.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from ..kernels import get_kernels
from ..lp import (AT_LOWER, AT_UPPER, DCOST_TOL, LpStatus, NodeRows,
                  SimplexBasis, solve_arrays)
from ..model import (INF, MipInstance, Solution, SolutionStatus,
                     check_feasibility, objective_value)
from .branching import Candidate, select_branch_variable
from .clock import SolveClock
from .config import (HEUR_COMPLETESOL, HEUR_ROUNDING, SEP_GOMORY,
                     BranchingRule, SolveOutcome, SolverConfig, SolveStatus,
                     fresh_stats)
from .cuts import generate_cuts, slack_integrality
from .heuristics import round_to_feasible
from .history import VariableHistory, update_pseudocost
from .presolve import run_presolve

LP_ITER_LIMIT = 20000           # pivots per node LP; the cold retry gets 10x
BLAND_AFTER = 50                # degenerate pivots before Bland's rule
STRONG_BRANCH_ITER_LIMIT = 500  # pivots per strong-branching probe
INFEASIBLE_GAIN_SCALE = 1e6     # an infeasible probe's gain, per unit of |dual bound|
CUT_ROUNDS_ROOT = 3
CUT_ROUNDS_TREE = 1
PLUNGE_LIMIT = 3                # depth-first steps before best-bound again
MAX_EXACT_COST = 2.0 ** 53      # larger integral costs are not exact in a double


class UnboundedRelaxationError(RuntimeError):
    """The LP relaxation is unbounded; the MIP status is undecidable here."""


class _PivotBudgetExhausted(RuntimeError):
    pass


@dataclass
class _Node:
    nid: int
    bound: float
    depth: int
    lower: np.ndarray
    upper: np.ndarray
    basis: SimplexBasis | None
    rows: NodeRows   # the model rows and the cuts inherited or added here


def objective_step(inst: MipInstance) -> float:
    """The gcd g of the integer columns' costs: every integral point's
    objective is a multiple of g.  0.0 (no step) when a continuous column
    has a nonzero cost, a cost is fractional or |cost| > 2^53, or every
    cost is zero."""
    is_int = inst.is_integer()
    cost = inst.objective
    if np.any(cost[~is_int] != 0.0):
        return 0.0
    cost = cost[is_int]
    if np.any(np.abs(cost) > MAX_EXACT_COST) or np.any(cost != np.floor(cost)):
        return 0.0
    return float(np.gcd.reduce(cost.astype(np.int64)))


class _TreeSolver:
    def __init__(self, inst: MipInstance, cfg: SolverConfig, time_limit: float,
                 hints=None, warm_histories=None, clock: SolveClock | None = None,
                 preset_bounds=None, preset_rows: NodeRows | None = None):
        self.inst = inst
        self.cfg = cfg
        self.kernels = get_kernels()
        self.cost = inst.objective
        self.clock = clock if clock is not None else SolveClock(cfg.det_work_per_second)
        self.deadline = time_limit
        self.stats = fresh_stats()
        self.is_int = inst.is_integer()
        self.int_idx = inst.integer_indices()
        # a fractional part f is fractional when frac_lo < f < frac_hi; 0-d
        # arrays, which a ufunc takes faster than Python floats
        self.frac_lo = np.array(cfg.int_tol)
        self.frac_hi = np.array(1.0 - cfg.int_tol)
        self.step = objective_step(inst)
        self.hints = list(hints) if hints else []
        self.preset_bounds = preset_bounds
        self.preset_rows = preset_rows

        self.histories: dict[int, VariableHistory] = {
            j: VariableHistory() for j in self.int_idx.tolist()}
        self.global_hist = VariableHistory()
        if warm_histories is not None:
            by_name, global_hist = warm_histories
            for name, hist in by_name.items():
                j = inst.var_index(name)
                if j in self.histories:
                    self.histories[j] = hist.copy()
            self.global_hist = global_hist.copy()

        self.pb = INF
        self.incumbent: Solution | None = None
        self.db_final = -INF
        self.open: dict[int, _Node] = {}
        self.heap: list[tuple[float, int]] = []
        self.next_id = 0
        self.plunge_queue: list[int] = []
        self.plunge_count = 0

    # -- plumbing -----------------------------------------------------------

    def _timed_out(self) -> bool:
        return self.clock.elapsed() >= self.deadline

    def _lp(self, rows, lo, hi, warm=None, iter_limit=LP_ITER_LIMIT,
            bland_after=BLAND_AFTER, cutoff=INF):
        res = solve_arrays(rows, lo, hi, self.cost, warm, iter_limit, self.kernels,
                           bland_after, cutoff=cutoff)
        self.clock.charge(res.iterations + 1)
        self.stats.lp_iterations += res.iterations
        return res

    def _node_lp(self, rows, lo, hi, warm):
        """A node LP or cut re-solve, OPTIMAL; None when it prunes the node
        (INFEASIBLE, or CUTOFF once its dual bound reaches the pruning
        bound).  ITER_LIMIT only, never CUTOFF, is retried: a spent budget
        or a breakdown of the primal loop, which `solve_arrays` reports
        alike.  This is the one recovery from either; probes and the
        all-fixed hint LP take ITER_LIMIT as it comes."""
        res = self._lp(rows, lo, hi, warm, cutoff=self._cutoff)
        if res.status is LpStatus.CUTOFF:
            self.stats.lp_cutoffs += 1
            return None
        if res.status is LpStatus.ITER_LIMIT:
            # One cold retry with Bland from the first pivot.
            res = self._lp(rows, lo, hi, None,
                           iter_limit=10 * LP_ITER_LIMIT, bland_after=0)
            if res.status is LpStatus.ITER_LIMIT:
                raise _PivotBudgetExhausted()
        if res.status is LpStatus.INFEASIBLE:
            return None
        if res.status is LpStatus.UNBOUNDED:
            raise UnboundedRelaxationError(self.inst.name)
        return res

    def _push(self, node: _Node):
        self.open[node.nid] = node
        heapq.heappush(self.heap, (node.bound, node.nid))

    def _min_open_bound(self) -> float:
        while self.heap and self.heap[0][1] not in self.open:
            heapq.heappop(self.heap)
        return self.heap[0][0] if self.heap else INF

    def _select(self) -> _Node:
        while self.plunge_queue and self.plunge_count < PLUNGE_LIMIT:
            nid = self.plunge_queue.pop()
            if nid in self.open:
                self.plunge_count += 1
                return self.open.pop(nid)
        self.plunge_count = 0
        self.plunge_queue.clear()
        while True:
            _, nid = heapq.heappop(self.heap)
            if nid in self.open:
                return self.open.pop(nid)

    def _open_bound(self) -> float:
        """The least open node bound, rounded up to a multiple of the
        objective step when there is one."""
        b = self._min_open_bound()
        g = self.step
        if g == 0.0 or not math.isfinite(b):
            return b
        return max(b, g * math.ceil((b - 1e-6 * max(1.0, abs(b))) / g))

    @property
    def pb(self) -> float:
        """The primal bound: the incumbent's objective, INF before one."""
        return self._pb

    @pb.setter
    def pb(self, value: float) -> None:
        # `_cutoff`: the bound at or above which a node is pruned
        self._pb = value
        scale = max(1.0, abs(value) if math.isfinite(value) else 1.0)
        cutoff = value - 1e-9 * scale
        if self.step:
            cutoff = min(cutoff, value - self.step + 1e-6 * scale)
        self._cutoff = cutoff

    def _fractional(self, x) -> list[Candidate]:
        """The integer variables with a fractional value, in index order."""
        vals = x[self.int_idx]
        f = vals - np.floor(vals)
        pick = (self.frac_lo < f) & (f < self.frac_hi)
        return [Candidate(j, v) for j, v in zip(self.int_idx[pick].tolist(),
                                                vals[pick].tolist())]

    def _rounded(self, point) -> np.ndarray:
        """A float copy of `point` with its integer entries rounded half to
        even, as Python's round(); -0.0 becomes +0.0."""
        point = np.array(point, dtype=float)
        point[self.int_idx] = np.round(point[self.int_idx]) + 0.0
        return point

    def _try_incumbent(self, point: np.ndarray, checked: bool = False) -> bool:
        """Validate and accept an improving feasible point; returns True if
        it became the new incumbent.  `checked` says that `point` already
        passed `check_feasibility` with the solver's tolerances; the check is
        then skipped unless rounding changes the point."""
        rounded = self._rounded(point)
        if not (checked and np.array_equal(rounded, point)):
            feas = check_feasibility(self.inst, rounded, self.cfg.feas_tol,
                                     self.cfg.int_tol)
            if not feas.feasible:
                return False
        point = rounded
        obj = objective_value(self.inst, point)
        if obj >= self._cutoff:
            return False
        self.pb = obj
        self.incumbent = Solution(point, obj, SolutionStatus.FEASIBLE)
        if self.stats.time_to_first_incumbent is None:
            self.stats.time_to_first_incumbent = self.clock.elapsed()
        return True

    # -- reduced-cost fixing --------------------------------------------------

    def _fix_by_reduced_cost(self, res, node) -> None:
        """Tighten node.lower / node.upper in place by the reduced costs of
        the node's OPTIMAL LP result `res` (see the module docstring); a
        no-op without an incumbent or when the gap is not positive."""
        if self.incumbent is None:
            return
        gap = self._cutoff - res.objective   # both finite here
        if not gap > 0.0:
            return
        d = res.reduced_costs
        stat = res.basis.stat[:len(d)]
        lo, hi = node.lower, node.upper
        at_lo = (self.is_int & (stat == AT_LOWER) & (d > DCOST_TOL)).nonzero()[0]
        at_hi = (self.is_int & (stat == AT_UPPER) & (d < -DCOST_TOL)).nonzero()[0]
        # a tiny |d_j| may overflow the quotient to inf, which tightens nothing
        with np.errstate(over="ignore"):
            if len(at_lo):
                reach = np.floor(gap / d[at_lo] + self.cfg.feas_tol)
                hi[at_lo] = np.minimum(hi[at_lo], lo[at_lo] + reach)
            if len(at_hi):
                reach = np.floor(gap / -d[at_hi] + self.cfg.feas_tol)
                lo[at_hi] = np.maximum(lo[at_hi], hi[at_hi] - reach)

    # -- heuristics -----------------------------------------------------------

    def _run_rounding(self, x, node):
        if HEUR_ROUNDING not in self.cfg.enabled_heuristics:
            return
        hstats = self.stats.heuristics[HEUR_ROUNDING]
        start = self.clock.elapsed()
        hstats.calls += 1
        self.clock.charge(1)
        point = round_to_feasible(self.inst, x, node.lower, node.upper,
                                  self.cfg.feas_tol, self.cfg.int_tol)
        if point is not None:
            hstats.solutions_found += 1
            if self._try_incumbent(point, checked=True):
                hstats.best_solutions_found += 1
        hstats.time += self.clock.elapsed() - start

    def _complete_one_hint(self, assignment, node):
        """Fix the hinted integers and complete with one LP or a sub-MIP.
        Infeasible fixings are dropped, never repaired."""
        lo = node.lower.copy()
        hi = node.upper.copy()
        for name, value in assignment.items():
            try:
                j = self.inst.var_index(name)
            except KeyError:
                return None
            if not self.is_int[j]:
                continue
            if not math.isfinite(value):
                return None
            v = float(round(value))
            if v < lo[j] - self.cfg.int_tol or v > hi[j] + self.cfg.int_tol:
                return None
            lo[j] = hi[j] = v
        if (lo[self.int_idx] == hi[self.int_idx]).all():
            res = self._lp(self.base_rows, lo, hi)
            if res.status is not LpStatus.OPTIMAL:
                return None
            point = self._rounded(res.primal)
            feas = check_feasibility(self.inst, point, self.cfg.feas_tol, self.cfg.int_tol)
            if not feas.feasible:
                return None
            return point
        sub_cfg = replace(
            self.cfg,
            branching_rule=BranchingRule.PSEUDOCOST,
            enabled_heuristics=frozenset({HEUR_ROUNDING}),
            use_cuts_root=False, use_cuts_tree=False,
            node_limit=self.cfg.completesol_node_limit)
        sub = _TreeSolver(self.inst, sub_cfg, self.deadline, clock=self.clock,
                          preset_bounds=(lo, hi), preset_rows=self.base_rows)
        outcome = sub.solve()
        if outcome.best_solution is None:
            return None
        return outcome.best_solution.values

    def _run_completesol(self, node):
        if HEUR_COMPLETESOL not in self.cfg.enabled_heuristics or not self.hints:
            return
        hstats = self.stats.heuristics[HEUR_COMPLETESOL]
        start = self.clock.elapsed()
        cap = self.cfg.completesol_max_improving
        improving = 0
        for hint in self.hints:
            if self._timed_out():
                break
            if cap is not None and improving >= cap:
                break
            hstats.calls += 1
            self.clock.charge(1)
            point = self._complete_one_hint(hint, node)
            if point is None:
                continue
            hstats.solutions_found += 1
            self.stats.hint_converted = True
            # both completion paths checked the point with these tolerances
            if self._try_incumbent(point, checked=True):
                hstats.best_solutions_found += 1
                improving += 1
        hstats.time += self.clock.elapsed() - start

    # -- cut separation -------------------------------------------------------

    def _cut_loop(self, node, at_root, res, obj):
        """Rounds of separation + re-solve, extending node.rows; returns the
        last (LP result, bound) or None when the node got cut off."""
        rounds = CUT_ROUNDS_ROOT if at_root else CUT_ROUNDS_TREE
        sstats = self.stats.separators[SEP_GOMORY]
        for rnd in range(rounds):
            if not self._fractional(res.primal):
                break
            start = self.clock.elapsed()
            self.clock.charge(1)
            new_cuts = generate_cuts(res, self.is_int)
            sstats.time += self.clock.elapsed() - start
            if not new_cuts:
                break
            sstats.cuts_generated += len(new_cuts)
            node.rows = node.rows.extend(new_cuts.mat, new_cuts.senses, new_cuts.rhs)
            res = self._node_lp(node.rows, node.lower, node.upper, res.basis)
            if res is None:
                return None
            obj = max(obj, res.objective)
            if obj >= self._cutoff:
                return None
        return res, obj

    # -- node processing ------------------------------------------------------

    def _process_node(self, node: _Node) -> list[int]:
        self.stats.nodes += 1
        at_root = node.nid == 0
        run_cuts = self.cfg.use_cuts_root if at_root else self.cfg.use_cuts_tree
        res = self._node_lp(node.rows, node.lower, node.upper, node.basis)
        if res is None:
            return []
        obj = max(res.objective, node.bound)
        node.bound = obj
        if obj >= self._cutoff:
            return []

        if at_root:
            self._run_completesol(node)
            if obj >= self._cutoff:
                return []

        if run_cuts:
            cut_state = self._cut_loop(node, at_root, res, obj)
            if cut_state is None:
                return []
            res, obj = cut_state
            node.bound = obj

        candidates = self._fractional(res.primal)
        if not candidates:
            self._try_incumbent(res.primal)
            return []

        self._run_rounding(res.primal, node)
        if obj >= self._cutoff:
            return []
        self._fix_by_reduced_cost(res, node)

        def child_bounds(j, v, up):
            """The node's bounds with x_j >= ceil(v) when `up`, else x_j <= floor(v)."""
            lo, hi = node.lower.copy(), node.upper.copy()
            if up:
                lo[j] = math.ceil(v)
            else:
                hi[j] = math.floor(v)
            return lo, hi

        def solve_child(cand):
            """Probe both children of `cand`, down then up; learn pseudocosts
            from the OPTIMAL ones.  Returns (gain_down, gain_up)."""
            gains = []
            for direction, frac in (("down", cand.frac_down), ("up", cand.frac_up)):
                lo, hi = child_bounds(cand.index, cand.value, direction == "up")
                child = self._lp(node.rows, lo, hi, res.basis,
                                 iter_limit=STRONG_BRANCH_ITER_LIMIT)
                self.stats.sb_lp_solves += 1
                if child.status is LpStatus.INFEASIBLE:
                    db = self.db_final
                    scale = abs(db) if math.isfinite(db) else 1.0
                    gains.append(INFEASIBLE_GAIN_SCALE * max(1.0, scale))
                    continue
                gain = max(child.objective - obj, 0.0)
                gains.append(gain)
                if child.status is LpStatus.OPTIMAL and frac > 0:
                    update_pseudocost(self.histories[cand.index], direction, gain, frac)
                    update_pseudocost(self.global_hist, direction, gain, frac)
            return gains[0], gains[1]

        j, xj = select_branch_variable(candidates, self.histories, self.global_hist,
                                       self.cfg.branching_rule, solve_child)

        down = _Node(self.next_id + 1, obj, node.depth + 1,
                     *child_bounds(j, xj, False), res.basis, node.rows)
        up = _Node(self.next_id + 2, obj, node.depth + 1,
                   *child_bounds(j, xj, True), res.basis, node.rows)
        self.next_id += 2
        self._push(down)
        self._push(up)
        return [up.nid, down.nid]   # popped from the end: down child plunges first

    # -- main loop ------------------------------------------------------------

    def _outcome(self, status: SolveStatus) -> SolveOutcome:
        if status is SolveStatus.OPTIMAL:
            db = self.pb
        elif status is SolveStatus.INFEASIBLE:
            db = INF
        else:
            db = min(self.db_final, self.pb)
        histories = {self.inst.var_names[j]: h
                     for j, h in sorted(self.histories.items()) if not h.is_empty()}
        return SolveOutcome(
            status=status, primal_bound=self.pb, dual_bound=db,
            best_solution=self.incumbent, stats=self.stats,
            histories=histories, global_history=self.global_hist,
            solve_time=self.clock.elapsed())

    def solve(self) -> SolveOutcome:
        cfg = self.cfg
        if self._timed_out():
            return self._outcome(SolveStatus.TIME_LIMIT)

        if self.preset_bounds is not None:
            lower, upper = self.preset_bounds
            self.base_rows = self.preset_rows
        else:
            pres = run_presolve(self.inst, cfg)
            for name, count in pres.changes.items():
                self.stats.presolvers[name].changes += count
            self.clock.charge(1)
            if pres.infeasible:
                self.pb = INF
                return self._outcome(SolveStatus.INFEASIBLE)
            lower, upper = pres.lower, pres.upper
            # the model rows, with the presolved rhs, under every node LP
            mat, senses = self.inst.dense_matrix(), self.inst.senses()
            self.base_rows = NodeRows(mat, senses, pres.rhs,
                                      slack_integrality(mat, pres.rhs, self.is_int))

        root = _Node(0, -INF, 0, np.array(lower), np.array(upper), None, self.base_rows)
        self.next_id = 0
        self._push(root)

        status = None
        try:
            while self.open:
                if self._timed_out():
                    status = SolveStatus.TIME_LIMIT
                    break
                if cfg.node_limit is not None and self.stats.nodes >= cfg.node_limit:
                    status = SolveStatus.NODE_LIMIT
                    break
                db_open = self._open_bound()
                self.db_final = max(self.db_final, min(db_open, self.pb))
                if math.isfinite(self.pb) and \
                        self.pb - db_open <= cfg.gap_tol * max(1.0, abs(self.pb)):
                    status = SolveStatus.OPTIMAL
                    break
                node = self._select()
                if node.bound >= self._cutoff:
                    continue
                children = self._process_node(node)
                self.plunge_queue.extend(children)
        except _PivotBudgetExhausted:
            status = SolveStatus.TIME_LIMIT

        if status is None:
            status = SolveStatus.OPTIMAL if math.isfinite(self.pb) \
                else SolveStatus.INFEASIBLE
        if status in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT) and self.open:
            self.db_final = max(self.db_final, min(self._open_bound(), self.pb))
        return self._outcome(status)


def solve(inst: MipInstance, cfg: SolverConfig, time_limit: float,
          hints=None, warm_histories=None) -> SolveOutcome:
    """Solve a MIP instance under a time limit.

    `hints` is an optional sequence of partial assignments, each a mapping
    var-name -> value, consumed by the hint-completion heuristic at the
    root.  `warm_histories` is an optional (per-variable history map, global
    history) pair transferred from an earlier solve.
    """
    if not time_limit >= 0:   # NaN fails too; inf means no limit
        raise ValueError(f"time_limit must be >= 0, got {time_limit!r}")
    return _TreeSolver(inst, cfg, time_limit, hints, warm_histories).solve()
