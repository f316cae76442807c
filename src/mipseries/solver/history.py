"""Per-variable and problem-wide branching pseudocosts."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VariableHistory:
    """Pseudocost sums and counts of one variable, or of all variables
    together (the problem-wide aggregate).

    Pseudocost counts are floats: transferring a history across instances may
    rescale them to fractional values.
    """

    pscost_up_sum: float = 0.0
    pscost_down_sum: float = 0.0
    pscost_up_count: float = 0.0
    pscost_down_count: float = 0.0

    def count(self, direction: str) -> float:
        return self.pscost_up_count if direction == "up" else self.pscost_down_count

    def avg_pseudocost(self, direction: str) -> float | None:
        """Average per-unit gain, defined only once the count is positive."""
        if direction == "up":
            return self.pscost_up_sum / self.pscost_up_count if self.pscost_up_count > 0 else None
        return self.pscost_down_sum / self.pscost_down_count if self.pscost_down_count > 0 else None

    def to_dict(self) -> dict:
        """Field name -> value, in field order."""
        return dict(vars(self))

    def copy(self) -> VariableHistory:
        """An independent copy."""
        return VariableHistory(**vars(self))

    def is_empty(self) -> bool:
        """True when no pseudocost observation has been recorded."""
        return not any(vars(self).values())


def update_pseudocost(hist: VariableHistory, direction: str, obj_gain: float,
                      frac_change: float) -> None:
    """Add one observation: sum += gain/frac, count += 1."""
    if frac_change <= 0:
        raise ValueError(f"frac_change must be positive, got {frac_change}")
    if obj_gain < -1e-8:
        raise ValueError(f"obj_gain must be >= -1e-8, got {obj_gain}")
    gain = max(obj_gain, 0.0)
    if direction == "up":
        hist.pscost_up_sum += gain / frac_change
        hist.pscost_up_count += 1.0
    elif direction == "down":
        hist.pscost_down_sum += gain / frac_change
        hist.pscost_down_count += 1.0
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
