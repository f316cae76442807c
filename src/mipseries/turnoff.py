"""Permanent disabling of unsuccessful solver components.

Cumulative cross-instance statistics per presolver, separator and heuristic;
a component is disabled once it has been enabled for enough instances without
paying off: presolvers after 15 enabled instances with zero changes,
separators after 25 with zero cuts, heuristics after 25 with zero best
solutions or with more than 20% of the single-instance time limit spent per
best solution.  Decisions are permanent.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict

from .solver import (ALL_HEURISTICS, ALL_PRESOLVERS, ALL_SEPARATORS,
                     SolverStats)

PRESOLVER_INSTANCE_THRESHOLD = 15
SEPARATOR_INSTANCE_THRESHOLD = 25
HEURISTIC_INSTANCE_THRESHOLD = 25
HEURISTIC_TIME_PER_BEST_FRACTION = 0.20

KIND_PRESOLVER = "presolver"
KIND_SEPARATOR = "separator"
KIND_HEURISTIC = "heuristic"


@dataclass
class ComponentRecord:
    name: str
    kind: str
    changes: float = 0.0
    cuts: float = 0.0
    solutions: float = 0.0
    best_solutions: float = 0.0
    time: float = 0.0
    instances_observed: int = 0
    instances_enabled: int = 0
    disabled_at: int | None = None

    @property
    def disabled(self) -> bool:
        return self.disabled_at is not None


class ComponentLedger:
    def __init__(self):
        self.records: dict[str, ComponentRecord] = {}
        for name in sorted(ALL_PRESOLVERS):
            self.records[name] = ComponentRecord(name, KIND_PRESOLVER)
        for name in sorted(ALL_SEPARATORS):
            self.records[name] = ComponentRecord(name, KIND_SEPARATOR)
        for name in sorted(ALL_HEURISTICS):
            self.records[name] = ComponentRecord(name, KIND_HEURISTIC)

    def accumulate(self, stats: SolverStats, enabled: set) -> None:
        """Add one instance's statistics; instances_enabled only advances for
        components that could act during that solve."""
        for name, rec in self.records.items():
            rec.instances_observed += 1
            if name in enabled:
                rec.instances_enabled += 1
            if rec.kind == KIND_PRESOLVER and name in stats.presolvers:
                rec.changes += stats.presolvers[name].changes
            elif rec.kind == KIND_SEPARATOR and name in stats.separators:
                rec.cuts += stats.separators[name].cuts_generated
                rec.time += stats.separators[name].time
            elif rec.kind == KIND_HEURISTIC and name in stats.heuristics:
                h = stats.heuristics[name]
                rec.solutions += h.solutions_found
                rec.best_solutions += h.best_solutions_found
                rec.time += h.time

    def evaluate(self, time_limit: float, instance_index: int) -> set:
        """Newly disabled component names; idempotent on an unchanged ledger."""
        newly = set()
        for name in sorted(self.records):
            rec = self.records[name]
            if rec.disabled:
                continue
            if rec.kind == KIND_PRESOLVER:
                idle = rec.instances_enabled >= PRESOLVER_INSTANCE_THRESHOLD and rec.changes == 0
            elif rec.kind == KIND_SEPARATOR:
                idle = rec.instances_enabled >= SEPARATOR_INSTANCE_THRESHOLD and rec.cuts == 0
            else:
                idle = rec.instances_enabled >= HEURISTIC_INSTANCE_THRESHOLD and (
                    rec.best_solutions == 0 or rec.time / rec.best_solutions
                    > HEURISTIC_TIME_PER_BEST_FRACTION * time_limit)
            if idle:
                rec.disabled_at = instance_index
                newly.add(name)
        return newly

    def disabled_components(self) -> set:
        return {name for name, rec in self.records.items() if rec.disabled}

    def summary(self) -> list[dict]:
        return [asdict(self.records[name]) for name in sorted(self.records)]

    def to_json_dict(self) -> dict:
        return {name: asdict(rec) for name, rec in self.records.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ComponentLedger":
        ledger = cls()
        for name, rec in data.items():
            ledger.records[name] = ComponentRecord(**rec)
        return ledger
