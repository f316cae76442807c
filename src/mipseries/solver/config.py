"""Solver configuration, per-component statistics and the solve outcome."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

from ..model import DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, Solution
from .history import VariableHistory


class BranchingRule(Enum):
    RELIABILITY = "RELIABILITY"
    PSEUDOCOST = "PSEUDOCOST"
    FULLSTRONG = "FULLSTRONG"


class SolveStatus(Enum):
    OPTIMAL = "OPTIMAL"
    TIME_LIMIT = "TIME_LIMIT"
    NODE_LIMIT = "NODE_LIMIT"
    INFEASIBLE = "INFEASIBLE"


# component roster names (shared with the turn-off ledger)
HEUR_ROUNDING = "rounding"
HEUR_COMPLETESOL = "completesol"
SEP_GOMORY = "gomory"
PRE_BOUND_TIGHTEN = "bound_tighten"
PRE_COEF_TIGHTEN = "coef_tighten"

ALL_HEURISTICS = frozenset({HEUR_ROUNDING, HEUR_COMPLETESOL})
ALL_PRESOLVERS = frozenset({PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN})
ALL_SEPARATORS = frozenset({SEP_GOMORY})


def check_det_clock(work_per_second) -> None:
    """ValueError unless the deterministic clock is off (None) or runs at a
    finite positive rate."""
    if work_per_second is not None and not 0 < work_per_second < math.inf:  # NaN fails too
        raise ValueError("det_work_per_second must be None or finite and > 0, "
                         f"got {work_per_second!r}")


@dataclass
class SolverConfig:
    """The settings a solve takes from its caller.  The series harness sets
    the rule, the cut toggles (they gate Gomory, the one separator), the
    enabled heuristics and presolvers, the hint-completion effort and the
    deterministic clock; the hint-completion sub-MIP sets
    `node_limit`.  The tolerances are class constants, which callers that
    check an answer with the solver's own tolerances read.  Everything else
    is a constant of the module that reads it."""

    branching_rule: BranchingRule = BranchingRule.RELIABILITY
    use_cuts_root: bool = True
    use_cuts_tree: bool = True
    enabled_heuristics: frozenset = ALL_HEURISTICS
    enabled_presolvers: frozenset = ALL_PRESOLVERS
    completesol_node_limit: int = 500
    completesol_max_improving: int | None = 5
    node_limit: int | None = None
    det_work_per_second: float | None = None   # None -> wall clock

    feas_tol: ClassVar[float] = DEFAULT_FEAS_TOL
    int_tol: ClassVar[float] = DEFAULT_INT_TOL
    gap_tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        check_det_clock(self.det_work_per_second)
        if self.completesol_node_limit < 0:
            raise ValueError("completesol_node_limit must be >= 0")
        if self.completesol_max_improving is not None and self.completesol_max_improving < 0:
            raise ValueError("completesol_max_improving must be >= 0")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")


@dataclass
class HeuristicStats:
    calls: int = 0
    solutions_found: int = 0
    best_solutions_found: int = 0
    time: float = 0.0


@dataclass
class SeparatorStats:
    cuts_generated: int = 0
    time: float = 0.0


@dataclass
class PresolverStats:
    changes: int = 0


@dataclass
class SolverStats:
    nodes: int = 0
    sb_lp_solves: int = 0
    lp_iterations: int = 0
    lp_cutoffs: int = 0   # node LPs and cut re-solves stopped at the cutoff
    separators: dict = field(default_factory=dict)
    heuristics: dict = field(default_factory=dict)
    presolvers: dict = field(default_factory=dict)
    time_to_first_incumbent: float | None = None
    hint_converted: bool = False


def fresh_stats() -> SolverStats:
    stats = SolverStats()
    for name in sorted(ALL_SEPARATORS):
        stats.separators[name] = SeparatorStats()
    for name in sorted(ALL_HEURISTICS):
        stats.heuristics[name] = HeuristicStats()
    for name in sorted(ALL_PRESOLVERS):
        stats.presolvers[name] = PresolverStats()
    return stats


@dataclass
class SolveOutcome:
    status: SolveStatus
    primal_bound: float
    dual_bound: float
    best_solution: Solution | None
    stats: SolverStats
    histories: dict[str, VariableHistory]
    global_history: VariableHistory
    solve_time: float
