"""Branch-and-bound MIP solver with pluggable branching, cuts and heuristics."""
from .bb import UnboundedRelaxationError, solve
from .branching import Candidate, select_branch_variable
from .clock import SolveClock
from .config import (ALL_HEURISTICS, ALL_PRESOLVERS, ALL_SEPARATORS,
                     HEUR_COMPLETESOL, HEUR_ROUNDING, PRE_BOUND_TIGHTEN,
                     PRE_COEF_TIGHTEN, SEP_GOMORY, BranchingRule,
                     HeuristicStats, PresolverStats, SeparatorStats,
                     SolveOutcome, SolverConfig, SolverStats, SolveStatus,
                     fresh_stats)
from .cuts import generate_cuts, slack_integrality
from .heuristics import round_to_feasible
from .history import VariableHistory, update_pseudocost
from .presolve import PresolveResult, run_presolve

__all__ = [
    "ALL_HEURISTICS", "ALL_PRESOLVERS", "ALL_SEPARATORS", "BranchingRule",
    "Candidate", "HEUR_COMPLETESOL", "HEUR_ROUNDING",
    "HeuristicStats", "PRE_BOUND_TIGHTEN", "PRE_COEF_TIGHTEN",
    "PresolveResult", "PresolverStats", "SEP_GOMORY", "SeparatorStats",
    "SolveClock", "SolveOutcome", "SolveStatus", "SolverConfig", "SolverStats",
    "UnboundedRelaxationError", "VariableHistory", "fresh_stats",
    "generate_cuts", "round_to_feasible", "run_presolve",
    "select_branch_variable", "slack_integrality", "solve", "update_pseudocost",
]
