"""Scoring formulas: time score, gap score, totals, shifted geometric mean."""
from __future__ import annotations

import math

import pytest

from mipseries.harness import (ScoreRecord, batch_averages, gap_score,
                               improvement_pct, shifted_geomean, time_score)


def test_time_score_cases():
    assert time_score(200.0, 400.0, True) == pytest.approx(0.5)
    assert time_score(123.0, 400.0, False) == 1.0
    assert time_score(0.0, 400.0, True) == 0.0
    assert time_score(500.0, 400.0, True) == 1.0       # capped
    with pytest.raises(ValueError):
        time_score(1.0, 0.0, True)


def test_gap_score_cases():
    assert gap_score(10.0, -2.0) == 1.0                # different signs
    assert gap_score(7.0, 7.0) == 0.0
    assert gap_score(110.0, 100.0) == pytest.approx(10.0 / 110.0)
    assert gap_score(math.inf, 5.0) == 1.0
    assert gap_score(5.0, -math.inf) == 1.0
    assert gap_score(0.0, 0.0) == 0.0                  # solved at zero
    assert gap_score(-100.0, -110.0) == pytest.approx(10.0 / 110.0)


def test_gap_score_scale_invariance():
    for k in (0.5, 2.0, 1000.0):
        assert gap_score(110.0 * k, 100.0 * k) == pytest.approx(gap_score(110.0, 100.0))
        assert gap_score(-110.0 * k, -130.0 * k) == pytest.approx(gap_score(-110.0, -130.0))


def _record(ts, gs):
    return ScoreRecord(0, "OPTIMAL", 0.0, 0.0, 0.0, ts, gs, False,
                       "RELIABILITY", "ON", "ON", "ON")


def test_total_score_cases():
    assert _record(0.5, 0.0).total_score == pytest.approx(0.5)
    assert _record(1.0, 10.0 / 110.0).total_score == pytest.approx(1.0909, abs=1e-4)
    assert _record(1.0, 1.0).total_score == 2.0


def test_score_ranges():
    for ts in (0.0, 0.3, 1.0):
        for gs in (0.0, 0.5, 1.0):
            t = _record(ts, gs).total_score
            assert 0.0 <= ts <= 1.0 and 0.0 <= gs <= 1.0 and 0.0 <= t <= 2.0


def test_shifted_geomean_cases():
    assert shifted_geomean([0.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert shifted_geomean([90.0]) == pytest.approx(90.0)
    # exp((ln 20 + ln 50)/2) - 10 = sqrt(1000) - 10
    assert shifted_geomean([10.0, 40.0]) == pytest.approx(21.6227766, abs=1e-3)
    with pytest.raises(ValueError):
        shifted_geomean([])


def test_batch_averages_partition():
    records = [_record(0.25, 0.25) for _ in range(50)]
    batches = batch_averages(records)
    assert len(batches) == 5
    assert [b["batch"] for b in batches] == ["1-10", "11-20", "21-30", "31-40", "41-50"]
    assert all(b["count"] == 10 for b in batches)
    assert all(b["mean_total_score"] == pytest.approx(0.5) for b in batches)

    partial = batch_averages([_record(0.1, 0.0) for _ in range(23)])
    assert [b["count"] for b in partial] == [10, 10, 3]


def test_improvement_formula():
    assert improvement_pct(0.726, 0.634) == pytest.approx(100 * (0.726 - 0.634) / 0.726)
    assert improvement_pct(0.0, 1.0) == 0.0
