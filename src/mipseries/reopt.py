"""Cross-instance information reuse.

Builds solution hints from archived best solutions (common partial solution
plus clipped previous solutions), caps a finished solve's branching
histories once, each pseudocost count at 4, into the pair the next solve
starts from, and picks the per-instance branching rule (full strong
branching on the first instance, pseudocost rule afterwards when neither
objective nor bounds change).
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import DEFAULT_INT_TOL, Component, MipInstance, Solution
from .solver import BranchingRule, SolveOutcome, VariableHistory

DEFAULT_ALPHA_PCT = 90.0
PSCOST_COUNT_CAP = 4.0


@dataclass(frozen=True)
class Hint:
    """A partial assignment over integer variables with a provenance tag."""

    assignment: dict
    provenance: str

    def __len__(self) -> int:
        return len(self.assignment)


@dataclass
class PoolEntry:
    index: int
    objective: float
    values: dict   # var name -> value


class SolutionPool:
    """Best-found solution per instance index, ordered by index."""

    def __init__(self):
        self._by_index: dict[int, PoolEntry] = {}

    def __len__(self) -> int:
        return len(self._by_index)

    @property
    def entries(self) -> list[PoolEntry]:
        return [self._by_index[i] for i in sorted(self._by_index)]

    def get(self, index: int) -> PoolEntry | None:
        return self._by_index.get(index)

    def set(self, index: int, entry: PoolEntry) -> None:
        self._by_index[index] = entry

    def first(self) -> PoolEntry | None:
        if not self._by_index:
            return None
        return self._by_index[min(self._by_index)]


def solution_values_by_name(sol: Solution, var_names) -> dict:
    return {name: float(sol.values[j]) for j, name in enumerate(var_names)}


def clip_and_strip(values_by_name, target: MipInstance) -> dict:
    """Keep only integer variables, clamping each value into the target's
    bounds (integer-variable bounds are integral, so clamped values stay
    integral)."""
    out = {}
    for name, value in values_by_name.items():
        j = target.var_index(name)   # KeyError on variable-name mismatch
        if j not in target.integer_mask:
            continue
        v = float(round(value))
        v = min(max(v, float(target.lower[j])), float(target.upper[j]))
        out[name] = v
    return out


def build_common_hint(pool: SolutionPool, target: MipInstance,
                      alpha_pct: float = DEFAULT_ALPHA_PCT) -> dict:
    """Pairs that appear in the first archived solution and in at least
    alpha_pct percent of all archived solutions, clipped to target bounds.

    Membership is evaluated on the raw archived values, before clipping."""
    first = pool.first()
    if first is None:
        return {}
    entries = pool.entries
    selected = {}
    for name, value in first.values.items():
        j = target.var_index(name)
        if j not in target.integer_mask:
            continue
        v = round(value)
        matches = sum(1 for e in entries
                      if name in e.values and abs(e.values[name] - v) <= DEFAULT_INT_TOL)
        if matches * 100.0 >= alpha_pct * len(entries) - 1e-9:
            selected[name] = float(v)
    return clip_and_strip(selected, target)


def completesol_params(changing) -> tuple[int, int | None]:
    """Hint-completion effort: defaults for objective-only series, raised
    node limit and no improving-solution cap otherwise."""
    changing = frozenset(Component(c) for c in changing)
    if changing == {Component.OBJECTIVE}:
        return 500, 5
    return 5000, None


def assemble_hints(pool: SolutionPool, target: MipInstance, changing,
                   alpha_pct: float = DEFAULT_ALPHA_PCT) -> tuple[Hint, ...]:
    """Common hint plus the clipped solutions of the previous instances:
    4 previous for objective-only series (5 hints total), 9 otherwise (10)."""
    changing = frozenset(Component(c) for c in changing)
    if len(pool) == 0:
        return ()
    hints = []
    common = build_common_hint(pool, target, alpha_pct)
    if common:
        hints.append(Hint(common, "COMMON"))
    prev_count = 4 if changing == {Component.OBJECTIVE} else 9
    for entry in reversed(pool.entries[-prev_count:]):
        assignment = clip_and_strip(entry.values, target)
        if assignment:
            hints.append(Hint(assignment, f"CLIPPED_PREV({entry.index})"))
    return tuple(hints)


def _capped(hist: VariableHistory) -> VariableHistory:
    h = hist.copy()
    if h.pscost_up_count > PSCOST_COUNT_CAP:
        avg = h.pscost_up_sum / h.pscost_up_count
        h.pscost_up_sum = avg * PSCOST_COUNT_CAP
        h.pscost_up_count = PSCOST_COUNT_CAP
    if h.pscost_down_count > PSCOST_COUNT_CAP:
        avg = h.pscost_down_sum / h.pscost_down_count
        h.pscost_down_sum = avg * PSCOST_COUNT_CAP
        h.pscost_down_count = PSCOST_COUNT_CAP
    return h


def transfer_histories(prev: SolveOutcome) -> tuple[dict, VariableHistory]:
    """The histories the next instance starts from: a solve's histories, by
    variable name, and its global history, each pseudocost count capped at 4
    while preserving the average exactly (sums rescaled by powers of two)."""
    return ({name: _capped(h) for name, h in prev.histories.items()},
            _capped(prev.global_history))


def branching_policy(instance_index: int, changing) -> BranchingRule:
    """FULLSTRONG on the first instance; PSEUDOCOST afterwards when neither
    objective nor bounds change; RELIABILITY otherwise."""
    if instance_index == 0:
        return BranchingRule.FULLSTRONG
    changing = frozenset(Component(c) for c in changing)
    if not changing & {Component.OBJECTIVE, Component.BOUNDS}:
        return BranchingRule.PSEUDOCOST
    return BranchingRule.RELIABILITY


def record_outcome(pool: SolutionPool, outcome: SolveOutcome, instance_index: int,
                   var_names) -> None:
    """Archive the best solution, if any; idempotent per index."""
    if outcome.best_solution is not None:
        pool.set(instance_index, PoolEntry(
            instance_index, float(outcome.best_solution.objective),
            solution_values_by_name(outcome.best_solution, var_names)))
