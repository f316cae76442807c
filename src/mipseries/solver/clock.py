"""Solve-time accounting: wall clock or deterministic work units.

In deterministic mode "time" is the number of charged work units (LP pivots
and bound flips plus small fixed charges) divided by a work-per-second
constant, so runs are machine-independent and bit-reproducible.
"""
from __future__ import annotations

import time


class SolveClock:
    def __init__(self, work_per_second: float | None = None):
        self.work_per_second = work_per_second
        self.work = 0.0
        self._t0 = time.monotonic()

    @property
    def deterministic(self) -> bool:
        return self.work_per_second is not None

    def charge(self, units: float) -> None:
        self.work += units

    def elapsed(self) -> float:
        if self.deterministic:
            return self.work / self.work_per_second
        return time.monotonic() - self._t0
