"""Branching variable selection with pluggable rules.

RELIABILITY strong-branches candidates whose pseudocost count is below the
reliability threshold, PSEUDOCOST never strong-branches (falling back to the
global history for sparsely observed variables), FULLSTRONG strong-branches
every fractional candidate at every node.  All rules score candidates with
the product rule on estimated up/down gains; ties break to the lowest index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..lp import LpStatus
from .config import BranchingRule, SolverConfig
from .history import VariableHistory, update_pseudocost

RELIABILITY_THRESHOLD = 5   # pseudocost count below which RELIABILITY probes
SCORE_EPS = 1e-6
INFEASIBLE_GAIN_SCALE = 1e6


@dataclass
class Candidate:
    index: int
    value: float

    @property
    def frac_down(self) -> float:
        return self.value - math.floor(self.value)

    @property
    def frac_up(self) -> float:
        return math.ceil(self.value) - self.value


def _estimated_gain(hist: VariableHistory, global_hist: VariableHistory,
                    direction: str, frac: float) -> float:
    """Pseudocost estimate; variables with count < 1 use the global average."""
    if hist.count(direction) >= 1.0:
        avg = hist.avg_pseudocost(direction)
    elif global_hist.count(direction) >= 1.0:
        avg = global_hist.avg_pseudocost(direction)
    else:
        avg = 0.0
    return (avg or 0.0) * frac


def _strong_branch(cand: Candidate, node_obj: float, db: float,
                   histories, global_hist, solve_child, stats) -> tuple[float, float]:
    """Solve both child LPs, update the pseudocosts from each optimal one,
    return (gain_down, gain_up)."""
    hist = histories[cand.index]
    gains = {}
    for direction in ("down", "up"):
        if direction == "down":
            res = solve_child(cand.index, "down", math.floor(cand.value))
            frac = cand.frac_down
        else:
            res = solve_child(cand.index, "up", math.ceil(cand.value))
            frac = cand.frac_up
        stats.sb_lp_solves += 1
        if res.status is LpStatus.INFEASIBLE:
            gains[direction] = INFEASIBLE_GAIN_SCALE * max(1.0, abs(db) if math.isfinite(db) else 1.0)
        else:
            gain = max(res.objective - node_obj, 0.0)
            gains[direction] = gain
            if res.status is LpStatus.OPTIMAL and frac > 0:
                update_pseudocost(hist, direction, gain, frac)
                update_pseudocost(global_hist, direction, gain, frac)
    return gains["down"], gains["up"]


def select_branch_variable(candidates: list[Candidate], node_obj: float, db: float,
                           histories: dict[int, VariableHistory],
                           global_hist: VariableHistory, cfg: SolverConfig,
                           solve_child, stats) -> tuple[int, float]:
    """Pick the branching variable; `solve_child(j, dir, bound)` runs an SB LP."""
    if not candidates:
        raise ValueError("branch_select called with no fractional variable")
    rule = cfg.branching_rule

    measured: dict[int, tuple[float, float]] = {}
    if rule is BranchingRule.FULLSTRONG:
        to_probe = list(candidates)
    elif rule is BranchingRule.RELIABILITY:
        to_probe = [c for c in candidates
                    if min(histories[c.index].pscost_up_count,
                           histories[c.index].pscost_down_count) < RELIABILITY_THRESHOLD]
    else:
        to_probe = []

    for cand in to_probe:
        measured[cand.index] = _strong_branch(cand, node_obj, db, histories,
                                              global_hist, solve_child, stats)

    best_j, best_val, best_score = -1, 0.0, -1.0
    for cand in candidates:
        if cand.index in measured:
            gain_down, gain_up = measured[cand.index]
        else:
            hist = histories[cand.index]
            gain_down = _estimated_gain(hist, global_hist, "down", cand.frac_down)
            gain_up = _estimated_gain(hist, global_hist, "up", cand.frac_up)
        score = max(gain_up, SCORE_EPS) * max(gain_down, SCORE_EPS)
        if score > best_score:
            best_j, best_val, best_score = cand.index, cand.value, score
    return best_j, best_val
