"""Online tuning of three binary solver parameters with a modified UCB score.

Each parameter (solution hint, tree cuts, root cuts) keeps one arm per value
with a running average Q of base scores and an update count N.  The score is
Q + C/N with C = 0.3, linear in N for fast convergence; `arm_score` also
computes the C/sqrt(N) bonus the paper compares it with.  A parameter stays
under deterministic exploration until both arms have at least four updates;
after that all arms within one tenth of the base-score standard deviation of
the best score are candidates, drawn uniformly at random.

Tuning starts at instance TUNING_START_INDEX.  The state is never stored: it
is a fold of the per-instance records, so a resumed series rebuilds it (rng
included) by replaying `select_values` and `update` over them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_C = 0.3
EXPLORATION_MIN_USES = 4
CANDIDATE_BAND_FRACTION = 0.1
TUNING_START_INDEX = 1      # instance 0 is solved untuned


class Param(Enum):
    HINT = "HINT"
    CUTS = "CUTS"
    ROOT_CUTS = "ROOT_CUTS"


PARAM_ORDER = (Param.HINT, Param.CUTS, Param.ROOT_CUTS)
_EXPLORATION_BIT = {Param.HINT: 0, Param.CUTS: 1, Param.ROOT_CUTS: 2}


class Variant(Enum):
    LINEAR = "LINEAR"       # bonus C / N
    SQRT = "SQRT"           # bonus C / sqrt(N)


ON = "ON"
OFF = "OFF"


@dataclass
class ParamArm:
    value: str
    Q: float = 0.0
    N: int = 0


def arm_score(arm: ParamArm, C: float, variant: Variant = Variant.LINEAR) -> float:
    """Q + exploration bonus; calling it on an unused arm is a contract error."""
    if arm.N < 1:
        raise ValueError("arm_score requires N >= 1; the arm is under exploration")
    if variant is Variant.LINEAR:
        return arm.Q + C / arm.N
    return arm.Q + C / math.sqrt(arm.N)


@dataclass
class ParamState:
    on: ParamArm
    off: ParamArm
    samples: list = field(default_factory=list)

    def arm(self, value: str) -> ParamArm:
        return self.on if value == ON else self.off

    def under_exploration(self) -> bool:
        return min(self.on.N, self.off.N) < EXPLORATION_MIN_USES

    def sigma(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = sum(self.samples) / len(self.samples)
        var = sum((s - mean) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)


class TunerState:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.params = {p: ParamState(ParamArm(ON), ParamArm(OFF)) for p in PARAM_ORDER}

    # -- selection ----------------------------------------------------------

    def select_values(self, instance_index: int) -> dict:
        """Value per parameter for this instance.

        Under exploration the choice is the deterministic bit pattern of
        t = instance_index - TUNING_START_INDEX (HINT: bit 0, CUTS: bit 1,
        ROOT_CUTS: bit 2).  Otherwise every arm whose score is within one
        tenth of the base-score standard deviation of the best is a
        candidate; ties are drawn uniformly with the seeded rng."""
        t = instance_index - TUNING_START_INDEX
        out = {}
        for p in PARAM_ORDER:
            state = self.params[p]
            if state.under_exploration():
                out[p] = ON if (t >> _EXPLORATION_BIT[p]) & 1 else OFF
                continue
            scores = {ON: arm_score(state.on, DEFAULT_C),
                      OFF: arm_score(state.off, DEFAULT_C)}
            best = max(scores.values())
            band = state.sigma() * CANDIDATE_BAND_FRACTION
            candidates = [v for v in (ON, OFF) if scores[v] >= best - band]
            if len(candidates) == 1:
                out[p] = candidates[0]
            else:
                out[p] = self.rng.choice(candidates)
        return out

    # -- updates --------------------------------------------------------------

    def update(self, param: Param, value_used: str, base_score: float,
               hints_provided: bool = False, hint_converted: bool = False) -> None:
        """Credit one observation.

        For CUTS/ROOT_CUTS the arm actually used is credited.  For HINT the ON
        arm is credited only when hints were provided and converted into at
        least one feasible solution; otherwise the OFF arm is credited."""
        state = self.params[param]
        if param is Param.HINT:
            credited = ON if (value_used == ON and hints_provided and hint_converted) else OFF
        else:
            credited = value_used
        arm = state.arm(credited)
        arm.N += 1
        arm.Q += (base_score - arm.Q) / arm.N
        state.samples.append(base_score)

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Most-updated value and its count per parameter."""
        out = {}
        for p in PARAM_ORDER:
            state = self.params[p]
            if state.on.N >= state.off.N:
                value, count = ON, state.on.N
            else:
                value, count = OFF, state.off.N
            out[p.value] = {"value": value, "count": count,
                            "n_on": state.on.N, "n_off": state.off.N,
                            "q_on": state.on.Q, "q_off": state.off.Q}
        return out
