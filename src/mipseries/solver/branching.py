"""Branching variable selection with pluggable rules.

RELIABILITY strong-branches candidates whose pseudocost count is below the
reliability threshold, PSEUDOCOST never strong-branches (falling back to the
global history for sparsely observed variables), FULLSTRONG strong-branches
every fractional candidate at every node.  All rules score candidates with
the product rule on estimated up/down gains; ties break to the lowest index.
This module only chooses: the tree solves the probes and learns pseudocosts
from them (`solve_child` in `bb._TreeSolver._process_node`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import BranchingRule
from .history import VariableHistory

RELIABILITY_THRESHOLD = 5   # pseudocost count below which RELIABILITY probes
SCORE_EPS = 1e-6


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


def select_branch_variable(candidates: list[Candidate],
                           histories: dict[int, VariableHistory],
                           global_hist: VariableHistory, rule: BranchingRule,
                           solve_child) -> tuple[int, float]:
    """Pick the branching variable; `solve_child(cand)` probes both children
    of a candidate and returns (gain_down, gain_up)."""
    if not candidates:
        raise ValueError("branch_select called with no fractional variable")

    if rule is BranchingRule.FULLSTRONG:
        to_probe = candidates
    elif rule is BranchingRule.RELIABILITY:
        to_probe = [c for c in candidates
                    if min(histories[c.index].pscost_up_count,
                           histories[c.index].pscost_down_count) < RELIABILITY_THRESHOLD]
    else:
        to_probe = []

    measured = {cand.index: solve_child(cand) for cand in to_probe}

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
