"""Whole series against HiGHS (`scipy.optimize.milp`).

A 6-instance RHS series and a 6-instance objective series of small
mixed-integer knapsacks run through `run_series` on the deterministic
clock with every technique on, with all five off and with each one off
alone.  Hint incumbents, transferred histories, the objective step's
cutoff and the reduced-cost fixing they feed all act on these solves; the
instances are fixed by their seeds.  Every OPTIMAL record's primal bound
must equal the HiGHS optimum within `gap_tol`, and every record's bounds
must enclose it.
"""
from __future__ import annotations

from dataclasses import replace

import pytest

from mipseries.harness import TECHNIQUES, RunConfig, run_series
from mipseries.model import generate_series_files, load_series
from mipseries.solver import SolverConfig

from conftest import highs, mixed_knapsack

BASE_SEED = 1
CONFIGS = {"all on": frozenset(), "all off": frozenset(TECHNIQUES),
           **{f"{t} off": frozenset({t}) for t in TECHNIQUES}}


def _base(seed):
    """A mixed-integer knapsack whose continuous columns cost nothing, so the
    RHS series has an objective step (the objective series perturbs every
    cost, and has none)."""
    inst = mixed_knapsack(seed)
    cost = inst.objective.copy()
    cost[~inst.is_integer()] = 0.0
    return replace(inst, objective=cost)


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """(manifest, HiGHS optimum per instance) of each series."""
    out = []
    for kind, seed in (("RHS", 11), ("OBJECTIVE", 12)):
        path = generate_series_files(
            _base(BASE_SEED), {kind}, 6, seed=seed, magnitude=0.1,
            out_dir=tmp_path_factory.mktemp(kind.lower()), time_limit=0.06)
        manifest = load_series(path)
        optima = []
        for inst in manifest.instances():
            status, opt = highs(inst)
            assert status == 0, inst.name
            optima.append(opt)
        out.append((manifest, optima))
    return out


@pytest.mark.parametrize("disable", CONFIGS.values(), ids=CONFIGS.keys())
def test_every_record_agrees_with_highs(series, disable):
    gap_tol = SolverConfig.gap_tol
    optimal = 0
    for manifest, optima in series:
        report = run_series(manifest, RunConfig(seed=1, det_work_per_second=1e4,
                                                disable=disable))
        for record, opt in zip(report.records, optima, strict=True):
            where = f"{manifest.series_name} instance {record.instance_index}"
            tol = gap_tol * max(1.0, abs(opt))
            assert record.status in ("OPTIMAL", "TIME_LIMIT"), (where, record.error)
            if record.status == "OPTIMAL":
                optimal += 1
                assert abs(record.pb - opt) <= tol, (where, record.pb, opt)
            assert record.db <= opt + tol and opt <= record.pb + tol, \
                (where, record.db, opt, record.pb)
    assert optimal >= 6
