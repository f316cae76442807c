"""Branch-and-bound MIP solver.

Best-bound node selection with short depth-first plunges, pluggable branching
rules, Gomory cut separation at the root and in the tree, a rounding
heuristic at every node and hint completion (sub-MIP based) once at the root
before branching.  One solve owns all mutable state; deterministic for fixed
inputs and deterministic-clock mode.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from ..kernels import get_kernels
from ..lp import LpStatus, NodeRows, SimplexBasis, solve_arrays
from ..model import (INF, MipInstance, Solution, SolutionStatus,
                     check_feasibility, objective_value)
from .branching import Candidate, select_branch_variable
from .clock import SolveClock
from .config import (HEUR_COMPLETESOL, HEUR_ROUNDING, SEP_GOMORY,
                     BranchingRule, SolveOutcome, SolverConfig, SolveStatus,
                     fresh_stats)
from .cuts import generate_cuts, slack_integrality
from .heuristics import round_to_feasible
from .history import GlobalHistory, VariableHistory
from .presolve import run_presolve


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


def _hint_assignment(hint) -> dict:
    return hint.assignment if hasattr(hint, "assignment") else dict(hint)


class _TreeSolver:
    def __init__(self, inst: MipInstance, cfg: SolverConfig, time_limit: float,
                 hints=None, warm_histories=None, clock: SolveClock | None = None,
                 preset_bounds=None, preset_rows: NodeRows | None = None):
        self.inst = inst
        self.cfg = cfg
        self.kernels = get_kernels()
        self.clock = clock if clock is not None else SolveClock(cfg.det_work_per_second)
        self.deadline = time_limit
        self.stats = fresh_stats()
        self.is_int = inst.is_integer()
        self.int_indices = [int(j) for j in np.nonzero(self.is_int)[0]]
        self.hints = list(hints) if hints else []
        self.preset_bounds = preset_bounds
        self.preset_rows = preset_rows

        self.histories: dict[int, VariableHistory] = {
            j: VariableHistory() for j in self.int_indices}
        self.global_hist = GlobalHistory()
        if warm_histories is not None:
            by_name, global_hist = warm_histories
            for name, hist in by_name.items():
                j = inst.var_index(name)
                if j in self.histories:
                    self.histories[j] = hist.copy()
            self.global_hist = GlobalHistory(
                **{k: getattr(global_hist, k) for k in vars(global_hist)})

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

    def _lp(self, rows, lo, hi, warm=None, iter_limit=None,
            want_snapshot=False, bland_after=None):
        res = solve_arrays(
            rows, lo, hi, np.asarray(self.inst.objective),
            warm, iter_limit if iter_limit is not None else self.cfg.lp_iter_limit,
            want_snapshot, self.kernels,
            self.cfg.bland_after if bland_after is None else bland_after)
        self.clock.charge(res.iterations + 1)
        self.stats.lp_iterations += res.iterations
        return res

    def _node_lp(self, rows, lo, hi, warm, want_snapshot):
        res = self._lp(rows, lo, hi, warm, want_snapshot=want_snapshot)
        if res.status is LpStatus.ITER_LIMIT:
            # One cold retry with Bland from the first pivot.
            res = self._lp(rows, lo, hi, None,
                           iter_limit=10 * self.cfg.lp_iter_limit,
                           want_snapshot=want_snapshot, bland_after=0)
            if res.status is LpStatus.ITER_LIMIT:
                raise _PivotBudgetExhausted()
        return res

    def _push(self, node: _Node):
        self.open[node.nid] = node
        heapq.heappush(self.heap, (node.bound, node.nid))

    def _min_open_bound(self) -> float:
        while self.heap and self.heap[0][1] not in self.open:
            heapq.heappop(self.heap)
        return self.heap[0][0] if self.heap else INF

    def _select(self) -> _Node:
        while self.plunge_queue and self.plunge_count < self.cfg.plunge_limit:
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

    def _prune_cutoff(self) -> float:
        return self.pb - 1e-9 * max(1.0, abs(self.pb) if math.isfinite(self.pb) else 1.0)

    def _fractional(self, x) -> list[Candidate]:
        out = []
        for j in self.int_indices:
            f = x[j] - math.floor(x[j])
            if self.cfg.int_tol < f < 1.0 - self.cfg.int_tol:
                out.append(Candidate(j, float(x[j])))
        return out

    def _try_incumbent(self, point: np.ndarray) -> bool:
        """Validate and accept an improving feasible point; returns True if
        it became the new incumbent."""
        point = np.array(point, dtype=float)
        for j in self.int_indices:
            point[j] = round(point[j])
        feas = check_feasibility(self.inst, point, self.cfg.feas_tol, self.cfg.int_tol)
        if not feas.feasible:
            return False
        obj = objective_value(self.inst, point)
        if obj >= self._prune_cutoff():
            return False
        self.pb = obj
        self.incumbent = Solution(point, obj, SolutionStatus.FEASIBLE)
        if self.stats.time_to_first_incumbent is None:
            self.stats.time_to_first_incumbent = self.clock.elapsed()
        return True

    def _set_base_rows(self, rhs0):
        """The model rows, with right-hand sides rhs0, under every node LP."""
        mat = self.inst.dense_matrix()
        senses = self.inst.senses()
        self.base_rows = NodeRows(mat, senses, rhs0,
                                  slack_integrality(mat, rhs0, senses, self.is_int))

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
            if self._try_incumbent(point):
                hstats.best_solutions_found += 1
        hstats.time += self.clock.elapsed() - start

    def _complete_one_hint(self, assignment, node):
        """Fix the hinted integers and complete with one LP or a sub-MIP.
        Infeasible fixings are dropped, never repaired."""
        lo = np.array(node.lower)
        hi = np.array(node.upper)
        for name, value in assignment.items():
            try:
                j = self.inst.var_index(name)
            except KeyError:
                return None
            if not self.is_int[j]:
                continue
            v = float(round(value))
            if v < lo[j] - self.cfg.int_tol or v > hi[j] + self.cfg.int_tol:
                return None
            lo[j] = hi[j] = v
        unfixed = [j for j in self.int_indices if lo[j] != hi[j]]
        if not unfixed:
            res = self._lp(self.base_rows, lo, hi)
            if res.status is not LpStatus.OPTIMAL:
                return None
            point = np.array(res.primal)
            for j in self.int_indices:
                point[j] = round(point[j])
            feas = check_feasibility(self.inst, point, self.cfg.feas_tol, self.cfg.int_tol)
            if not feas.feasible:
                return None
            return point
        sub_cfg = replace(
            self.cfg,
            branching_rule=BranchingRule.PSEUDOCOST,
            enabled_heuristics=frozenset({HEUR_ROUNDING}),
            enabled_separators=frozenset(),
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
            point = self._complete_one_hint(_hint_assignment(hint), node)
            if point is None:
                continue
            hstats.solutions_found += 1
            self.stats.hint_converted = True
            if self._try_incumbent(point):
                hstats.best_solutions_found += 1
                improving += 1
        hstats.time += self.clock.elapsed() - start

    # -- cut separation -------------------------------------------------------

    def _cut_loop(self, node, at_root, res, obj):
        """Rounds of separation + re-solve, extending node.rows; returns the
        last (LP result, bound) or None when the node got cut off."""
        rounds = self.cfg.cut_rounds_root if at_root else self.cfg.cut_rounds_tree
        sstats = self.stats.separators[SEP_GOMORY]
        for rnd in range(rounds):
            if not self._fractional(res.primal):
                break
            start = self.clock.elapsed()
            self.clock.charge(1)
            rows = node.rows
            new_cuts = generate_cuts(
                res, at_root, self.cfg, self.is_int, rows.mat, rows.rhs, rows.slack_int,
                self.inst.var_names,
                name_prefix=f"gomory_n{node.nid}_{rnd}")
            sstats.time += self.clock.elapsed() - start
            if not new_cuts:
                break
            sstats.cuts_generated += len(new_cuts)
            node.rows = rows.extend(new_cuts)
            res = self._node_lp(node.rows, node.lower, node.upper,
                                res.basis, want_snapshot=True)
            if res.status is LpStatus.INFEASIBLE:
                return None
            if res.status is LpStatus.UNBOUNDED:
                raise UnboundedRelaxationError(self.inst.name)
            obj = max(obj, res.objective)
            if obj >= self._prune_cutoff():
                return None
        return res, obj

    # -- node processing ------------------------------------------------------

    def _process_node(self, node: _Node) -> list[int]:
        self.stats.nodes += 1
        at_root = node.nid == 0
        want_snap = ((at_root and self.cfg.use_cuts_root)
                     or (not at_root and self.cfg.use_cuts_tree)) \
            and SEP_GOMORY in self.cfg.enabled_separators
        res = self._node_lp(node.rows, node.lower, node.upper,
                            node.basis, want_snapshot=want_snap)
        if res.status is LpStatus.INFEASIBLE:
            return []
        if res.status is LpStatus.UNBOUNDED:
            raise UnboundedRelaxationError(self.inst.name)
        obj = max(res.objective, node.bound)
        node.bound = obj
        if obj >= self._prune_cutoff():
            return []

        if at_root:
            self._run_completesol(node)
            if obj >= self._prune_cutoff():
                return []

        if want_snap:
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
        if obj >= self._prune_cutoff():
            return []

        def solve_child(j, direction, new_bound):
            lo = np.array(node.lower)
            hi = np.array(node.upper)
            if direction == "down":
                hi[j] = new_bound
            else:
                lo[j] = new_bound
            return self._lp(node.rows, lo, hi, res.basis,
                            iter_limit=self.cfg.strong_branch_iter_limit)

        j, xj = select_branch_variable(
            candidates, obj, self.db_final, self.histories, self.global_hist,
            self.cfg, solve_child, self.stats)

        down = _Node(self.next_id + 1, obj, node.depth + 1,
                     np.array(node.lower), np.array(node.upper),
                     res.basis, node.rows)
        down.upper[j] = math.floor(xj)
        up = _Node(self.next_id + 2, obj, node.depth + 1,
                   np.array(node.lower), np.array(node.upper),
                   res.basis, node.rows)
        up.lower[j] = math.ceil(xj)
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
            self._set_base_rows(pres.rhs)

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
                db_open = self._min_open_bound()
                self.db_final = max(self.db_final, min(db_open, self.pb))
                if math.isfinite(self.pb) and \
                        self.pb - db_open <= cfg.gap_tol * max(1.0, abs(self.pb)):
                    status = SolveStatus.OPTIMAL
                    break
                node = self._select()
                if node.bound >= self._prune_cutoff():
                    continue
                children = self._process_node(node)
                self.plunge_queue.extend(children)
        except _PivotBudgetExhausted:
            status = SolveStatus.TIME_LIMIT

        if status is None:
            status = SolveStatus.OPTIMAL if math.isfinite(self.pb) \
                else SolveStatus.INFEASIBLE
        if status in (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT) and self.open:
            self.db_final = max(self.db_final, min(self._min_open_bound(), self.pb))
        return self._outcome(status)


def solve(inst: MipInstance, cfg: SolverConfig, time_limit: float,
          hints=None, warm_histories=None) -> SolveOutcome:
    """Solve a MIP instance under a time limit.

    `hints` is an optional sequence of partial assignments (objects with an
    `assignment` mapping or plain dicts var-name -> value) consumed by the
    hint-completion heuristic at the root.  `warm_histories` is an optional
    (per-variable history map, global history) pair transferred from an
    earlier solve.
    """
    if time_limit < 0:
        raise ValueError("time_limit must be non-negative")
    return _TreeSolver(inst, cfg, time_limit, hints, warm_histories).solve()


def complete_hint(inst: MipInstance, hint, cfg: SolverConfig,
                  time_budget: float) -> Solution | None:
    """Try to extend one partial assignment to a feasible solution.

    Fixes the hinted integer variables; completes with a single LP when all
    integers are fixed, otherwise with a sub-MIP capped at
    cfg.completesol_node_limit nodes.  Returns None on failure; infeasible
    fixings are never repaired.
    """
    solver = _TreeSolver(inst, cfg, time_budget)
    pres = run_presolve(inst, cfg)
    if pres.infeasible:
        return None
    solver._set_base_rows(pres.rhs)
    node = _Node(0, -INF, 0, pres.lower, pres.upper, None, solver.base_rows)
    point = solver._complete_one_hint(_hint_assignment(hint), node)
    if point is None:
        return None
    return Solution(point, objective_value(inst, point), SolutionStatus.FEASIBLE)
