"""Modified-UCB parameter tuning: scores, exploration, crediting, convergence."""
from __future__ import annotations

import pytest

from mipseries.tuner import (OFF, ON, TUNING_START_INDEX, Param, ParamArm,
                             TunerState, Variant, arm_score)


def test_arm_score_examples():
    assert arm_score(ParamArm(ON, Q=0.0, N=10), 0.3) == pytest.approx(0.030)
    assert arm_score(ParamArm(ON, Q=0.0, N=5), 0.3) == pytest.approx(0.060)
    assert arm_score(ParamArm(ON, Q=-0.5, N=1), 0.3) == pytest.approx(-0.2)


def test_arm_score_unused_arm_is_contract_violation():
    with pytest.raises(ValueError):
        arm_score(ParamArm(ON, N=0), 0.3)


def test_arm_score_strictly_decreasing_in_n():
    for variant in (Variant.LINEAR, Variant.SQRT):
        prev = None
        for n in (1, 5, 10, 20, 30, 40, 50, 100, 200, 500):
            s = arm_score(ParamArm(ON, Q=0.0, N=n), 0.3, variant)
            if prev is not None:
                assert s < prev
            prev = s


def test_sqrt_variant():
    assert arm_score(ParamArm(ON, Q=0.0, N=5), 0.3, Variant.SQRT) == \
        pytest.approx(0.3 / 5 ** 0.5)


def test_deterministic_exploration_bits():
    state = TunerState(seed=0)
    expected = [
        (OFF, OFF, OFF), (ON, OFF, OFF), (OFF, ON, OFF), (ON, ON, OFF),
        (OFF, OFF, ON), (ON, OFF, ON), (OFF, ON, ON), (ON, ON, ON)]
    for t, (h, c, r) in enumerate(expected):
        vals = state.select_values(t + TUNING_START_INDEX)
        assert vals[Param.HINT] == h
        assert vals[Param.CUTS] == c
        assert vals[Param.ROOT_CUTS] == r


def test_exploration_flags():
    state = TunerState(seed=0)
    assert all(p.under_exploration() for p in state.params.values())  # fresh state explores
    p = state.params[Param.CUTS]
    p.on.N, p.off.N = 4, 3
    assert p.under_exploration()                     # one arm short of 4
    p.off.N = 4
    assert not p.under_exploration()


def test_update_crediting_rules():
    state = TunerState(seed=0)
    # CUTS: the arm actually used is credited regardless of anything else
    state.update(Param.CUTS, OFF, -0.4)
    assert state.params[Param.CUTS].off.N == 1
    assert state.params[Param.CUTS].off.Q == pytest.approx(-0.4)
    # HINT ON with failed conversion credits OFF
    state.update(Param.HINT, ON, -0.5, hints_provided=True, hint_converted=False)
    assert state.params[Param.HINT].on.N == 0
    assert state.params[Param.HINT].off.N == 1
    # HINT ON with conversion credits ON
    state.update(Param.HINT, ON, -0.5, hints_provided=True, hint_converted=True)
    assert state.params[Param.HINT].on.N == 1
    # HINT OFF (not provided) credits OFF
    state.update(Param.HINT, OFF, -0.5)
    assert state.params[Param.HINT].off.N == 2
    # every update appends one base-score sample
    assert len(state.params[Param.HINT].samples) == 3


def test_running_average_incremental_mean():
    state = TunerState(seed=0)
    for score in (-1.0, -0.5, -0.3):
        state.update(Param.CUTS, ON, score)
    assert state.params[Param.CUTS].on.Q == pytest.approx((-1.0 - 0.5 - 0.3) / 3)


def test_single_candidate_when_gap_exceeds_band():
    state = TunerState(seed=0)
    p = state.params[Param.CUTS]
    p.on.Q, p.on.N = -0.5, 4
    p.off.Q, p.off.N = -0.3, 4
    p.samples.extend([-0.5] * 4 + [-0.3] * 4)
    for other in (Param.HINT, Param.ROOT_CUTS):
        st = state.params[other]
        st.on.N = st.off.N = 4
        st.samples.extend([-0.4] * 8)
    for t in range(20):
        assert state.select_values(t)[Param.CUTS] == OFF


def test_never_converting_series_keeps_on_under_exploration():
    # ON slots keep selecting ON, every update credits OFF, so the ON arm
    # never reaches 4 uses and exploration never ends for HINT
    state = TunerState(seed=3)
    on_selected = 0
    for idx in range(1, 50):
        vals = state.select_values(idx)
        provided = vals[Param.HINT] == ON
        if provided:
            on_selected += 1
        state.update(Param.HINT, vals[Param.HINT], -0.5,
                     hints_provided=provided, hint_converted=False)
        state.update(Param.CUTS, vals[Param.CUTS], -0.5)
        state.update(Param.ROOT_CUTS, vals[Param.ROOT_CUTS], -0.5)
    assert state.params[Param.HINT].on.N == 0
    assert state.params[Param.HINT].off.N == 49
    assert state.params[Param.HINT].under_exploration()
    assert on_selected == 24                       # every alternate instance


def test_synthetic_bandit_converges_to_better_arm():
    # deterministic base scores differing by 0.2: after exploration the
    # better value is the single candidate in every remaining round
    for seed in range(10):
        state = TunerState(seed=seed)
        picks_after_exploration = []
        for t in range(50):
            vals = state.select_values(t + TUNING_START_INDEX)
            exploring = state.params[Param.CUTS].under_exploration()
            score = -0.5 if vals[Param.CUTS] == ON else -0.3
            state.update(Param.CUTS, vals[Param.CUTS], score)
            state.update(Param.HINT, vals[Param.HINT], score,
                         hints_provided=vals[Param.HINT] == ON,
                         hint_converted=vals[Param.HINT] == ON)
            state.update(Param.ROOT_CUTS, vals[Param.ROOT_CUTS], score)
            if not exploring:
                picks_after_exploration.append(vals[Param.CUTS])
        assert picks_after_exploration
        assert all(v == OFF for v in picks_after_exploration)


def test_summary_reports_most_updated_arm():
    state = TunerState(seed=0)
    for _ in range(5):
        state.update(Param.CUTS, ON, -0.2)
    state.update(Param.CUTS, OFF, -0.9)
    s = state.summary()["CUTS"]
    assert s["value"] == ON and s["count"] == 5

