"""Pins of the pivot path: work counters and answers of fixed solves.

The LP pins are cold solves, which run the primal simplex; they were
recorded with the row-loop simplex, before the pivot loop kept its arrays
current across pivots and the kernels were vectorized.  The branch-and-bound
pins were recorded when warm re-solves moved to the dual simplex on the
carried tableau; their LP iterations were re-recorded when node LPs and cut
re-solves began to stop at the incumbent cutoff, and knap17, knap5 and
rand26 again when integral objectives began to cut off one objective step
below the incumbent (fewer nodes, LP iterations, SB LPs and cuts; the same
primal bounds).  The kernel call counts were recorded when the children and
strong-branching probes of a node began to copy the dual start kept on the
node's token instead of deriving it each.  knap17 and knap5 were re-recorded
when nodes began to fix integer columns by reduced cost once an incumbent
exists: fewer nodes on knap17, fewer LP iterations, SB LPs and cuts on both,
the same primal bounds, and fewer `subtract_scaled_columns` calls.  Their
`accumulate_rowsum` counts were re-recorded again, one call fewer per node
that fixes, when the fixing began to read the reduced costs its LP result
carries instead of deriving them.  A difference here means the pivot path
changed, not just its speed.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mipseries.kernels import get_kernels
from mipseries.lp import (AT_LOWER, AT_UPPER, BASIC, FIXED, FREE, NodeRows,
                          _Simplex, _warm_statuses)
from mipseries.model import INF, Sense
from mipseries.solver import SolverConfig, bb, solve

from conftest import DET_WPS, lp_solve, make_instance, pinned_mips, relaxation

# name, status, nodes, lp_iterations, sb_lp_solves, cuts generated, primal bound
MIP_PINS = [
    ("knap17", "OPTIMAL", 84, 1019, 116, 186, -124.0),
    ("knap5", "OPTIMAL", 25, 502, 96, 57, -126.0),
    ("rand6", "OPTIMAL", 1, 25, 0, 4, -11.0),
    ("rand22", "OPTIMAL", 1, 12, 0, 9, -5.0),
    ("rand26", "OPTIMAL", 2, 79, 14, 16, -3.0),
    ("rand28", "OPTIMAL", 1, 15, 0, 4, -23.0),
]

# name, accumulate_rowsum calls, subtract_scaled_columns calls
KERNEL_CALL_PINS = [
    ("knap17", 153, 512),
    ("knap5", 54, 239),
    ("rand6", 22, 19),
    ("rand22", 11, 13),
    ("rand26", 18, 34),
    ("rand28", 13, 13),
]

# status, iterations, objective, sha256 prefix of the primal vector's bytes
LP_PINS = [
    ("OPTIMAL", 7, -24.778042277354068, "ca310f04b07e0894"),
    ("UNBOUNDED", 5, -INF, "60b3e371d68d33fd"),
    ("OPTIMAL", 23, -88.9542883457003, "8f545dadd85eb915"),
    ("OPTIMAL", 5, 5.352292298259837, "35b197034268bea8"),
    ("OPTIMAL", 14, -102.13142586863071, "3873cbf32df2b708"),
    ("OPTIMAL", 11, -50.5218639165985, "c0146b5b0a08a3e5"),
    ("OPTIMAL", 4, -22.30530496720932, "907a1c5f063ddb3c"),
    ("OPTIMAL", 15, -1062.7279223520409, "b014ccee7492c2c6"),
    ("OPTIMAL", 10, -78.02259840317879, "94abdf2f41f4e5af"),
    ("OPTIMAL", 4, -41.3861382232595, "78125cd0cd12325c"),
    ("OPTIMAL", 7, -3.025201042311345, "bfe9ece58f3324ce"),
    ("OPTIMAL", 13, -446.96837631156706, "86cf67b77f8b4ea9"),
]


def pinned_lps():
    """Feasible rows around a sampled point, some free-below or free-above
    columns and EQ rows; one LP is unbounded."""
    rng = np.random.default_rng(23)
    for k in range(12):
        n, m = int(rng.integers(6, 16)), int(rng.integers(3, 10))
        c = rng.integers(-5, 6, n).astype(float)
        A = rng.integers(-4, 5, (m, n)).astype(float)
        senses = [(Sense.LE, Sense.GE, Sense.EQ)[s]
                  for s in rng.choice(3, size=m, p=[0.6, 0.3, 0.1])]
        lo = np.where(rng.random(n) < 0.2, -np.inf, 0.0)
        hi = np.where(rng.random(n) < 0.2, np.inf, 5.0)
        hi[(lo == -np.inf) & (hi == np.inf)] = 3.0
        z = np.clip(rng.uniform(-2.0, 4.0, n), lo, hi)
        act = A @ z
        slack = {Sense.LE: 1.0, Sense.GE: -1.0, Sense.EQ: 0.0}
        rows = [(A[i], senses[i], act[i] + slack[senses[i]] * rng.integers(0, 4))
                for i in range(m)]
        yield make_instance(f"lp{k}", c, rows, lo, hi)


def test_bb_work_counters_pinned():
    got = []
    for name, inst, rule in pinned_mips():
        out = solve(inst, SolverConfig(det_work_per_second=DET_WPS,
                                       branching_rule=rule), 1e6)
        s = out.stats
        got.append((name, out.status.name, s.nodes, s.lp_iterations, s.sb_lp_solves,
                    s.separators["gomory"].cuts_generated, out.primal_bound))
    assert got == MIP_PINS


def test_bb_kernel_calls_pinned(monkeypatch):
    # reduced costs and beta are each derived by one kernel call; a dual
    # start copied from the token derives neither.  Reduced-cost fixing
    # reads the reduced costs of the node's LP result and calls no kernel.
    # The spy is built as the benchmark's tracer builds its kernel record.
    got = []
    for name, inst, rule in pinned_mips():
        calls = {"rowsum": 0, "colsub": 0}

        def counted(kernel, key):
            def call(*args):
                calls[key] += 1
                return kernel(*args)
            return call

        k = get_kernels()
        spy = replace(k, accumulate_rowsum=counted(k.accumulate_rowsum, "rowsum"),
                      subtract_scaled_columns=counted(k.subtract_scaled_columns, "colsub"))
        monkeypatch.setattr(bb, "get_kernels", lambda name=None: spy)
        solve(inst, SolverConfig(det_work_per_second=DET_WPS, branching_rule=rule), 1e6)
        got.append((name, calls["rowsum"], calls["colsub"]))
    assert got == KERNEL_CALL_PINS


def test_lp_solves_pinned():
    lps = list(pinned_lps())
    assert len(lps) == len(LP_PINS)
    for inst, (status, iters, obj, digest) in zip(lps, LP_PINS):
        res = lp_solve(*relaxation(inst))
        assert res.status.name == status
        assert res.iterations == iters
        # the objective is a BLAS dot product, whose summation order may
        # differ between builds; the primal vector itself is exact
        assert res.objective == pytest.approx(obj, rel=1e-12)
        assert hashlib.sha256(res.primal.tobytes()).hexdigest()[:16] == digest


def loop_nonbasic_status(lo, hi):
    if lo == hi:
        return FIXED
    if lo > -INF:
        return AT_LOWER
    if hi < INF:
        return AT_UPPER
    return FREE


def loop_warm_statuses(basis, stat, lo, hi):
    """The warm-start status repair, one column at a time."""
    stat = stat.copy()
    stat[basis] = BASIC
    in_basis = set(basis.tolist())
    for j in range(len(stat)):
        if stat[j] == BASIC and j not in in_basis:
            stat[j] = loop_nonbasic_status(lo[j], hi[j])
    for j in range(len(stat)):
        s = stat[j]
        if s == BASIC:
            continue
        if lo[j] == hi[j]:
            stat[j] = FIXED
        elif s == FIXED:
            stat[j] = loop_nonbasic_status(lo[j], hi[j])
        elif s == AT_LOWER and lo[j] == -INF:
            stat[j] = AT_UPPER if hi[j] < INF else FREE
        elif s == AT_UPPER and hi[j] == INF:
            stat[j] = AT_LOWER if lo[j] > -INF else FREE
    return stat


def test_start_statuses_match_column_loops():
    rng = np.random.default_rng(5)
    kernels = get_kernels("python")
    choices = np.array([0.0, 1.0, -INF, INF, 2.0])
    for _ in range(300):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        lo = choices[rng.integers(0, 3, n)]
        hi = np.where(rng.random(n) < 0.3, lo, choices[rng.integers(1, 5, n)])
        hi = np.maximum(hi, lo)
        senses = [(Sense.LE, Sense.GE, Sense.EQ)[s] for s in rng.integers(0, 3, m)]
        mat = rng.standard_normal((m, n))
        sx = _Simplex(NodeRows(mat, senses, rng.standard_normal(m)), lo, hi,
                      np.zeros(n), kernels, bland_after=50)

        sx.cold_start()
        want = [loop_nonbasic_status(sx.lo[j], sx.hi[j]) for j in range(sx.ncols)]
        want = np.array(want, dtype=np.int8)
        want[n:] = BASIC
        assert np.array_equal(sx.stat, want)

        basis = rng.choice(sx.ncols, size=m, replace=False).astype(np.int64)
        stat = rng.integers(0, 5, sx.ncols).astype(np.int8)
        assert np.array_equal(_warm_statuses(stat, basis, sx.lo, sx.hi),
                              loop_warm_statuses(basis, stat, sx.lo, sx.hi))
