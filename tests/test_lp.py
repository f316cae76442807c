"""Simplex engine: trivial cases, oracles, warm starts, limits."""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mipseries import lp
from mipseries.kernels import get_kernels
from mipseries.lp import AT_LOWER, BASIC, FREE, LpStatus, NodeRows, _Simplex
from mipseries.model import LinearRow, Sense, dense_block

from conftest import lp_solve, lp_vertex_oracle, make_instance, poison_lp, relaxation


def test_single_var_lower_bounded_row():
    inst = make_instance("a", [1.0], [([1.0], Sense.GE, 2.0)], [0], [10], [0])
    res = lp_solve(*relaxation(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.primal[0] == pytest.approx(2.0)
    assert res.objective == pytest.approx(2.0)


def test_two_var_box_vertex():
    inst = make_instance("b", [-1.0, -1.0], [([1.0, 1.0], Sense.LE, 1.0)],
                         [0, 0], [1, 1])
    res = lp_solve(*relaxation(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    # independent check: enumerate the vertices of the 2-D polytope
    assert lp_vertex_oracle(inst) == pytest.approx(-1.0)


@pytest.mark.parametrize("status", [LpStatus.OPTIMAL, LpStatus.ITER_LIMIT])
@pytest.mark.parametrize("method", ["run", "run_dual"])
def test_non_finite_lp_point_raises(monkeypatch, method, status):
    # x and y are both basic at the optimum (4/3, 4/3); a y <= 1 re-solve
    # from its token runs the dual loop
    inst = make_instance("nf", [-1.0, -1.0],
                         [([1.0, 2.0], Sense.LE, 4.0), ([2.0, 1.0], Sense.LE, 4.0)],
                         [0, 0], [10, 10])
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assert first.status is LpStatus.OPTIMAL
    hi[1] = 1.0
    warm = first.basis if method == "run_dual" else None
    poisoned = poison_lp(monkeypatch, status, methods=(method,))
    with pytest.raises(lp.NonFiniteLpError, match=f"^{status.value} solve"):
        lp_solve(rows, lo, hi, cost, warm)
    assert len(poisoned) == 1


def test_infeasible_rows():
    inst = make_instance("c", [1.0], [([1.0], Sense.GE, 1.0), ([1.0], Sense.LE, 0.0)],
                         [0], [10])
    assert lp_solve(*relaxation(inst)).status is LpStatus.INFEASIBLE


def test_unbounded():
    inst = make_instance("d", [-1.0], [], [0], [np.inf])
    assert lp_solve(*relaxation(inst)).status is LpStatus.UNBOUNDED


def test_iter_limit_returned_not_raised():
    inst = make_instance("e", [-1.0, -1.0],
                         [([1.0, 2.0], Sense.LE, 2.0),
                          ([2.0, 1.0], Sense.LE, 2.0)],
                         [0, 0], [2, 2])
    full = lp_solve(*relaxation(inst))
    assert full.status is LpStatus.OPTIMAL and full.iterations >= 2
    res = lp_solve(*relaxation(inst), iter_limit=1)
    assert res.status is LpStatus.ITER_LIMIT
    assert res.iterations == 1


def test_free_variable():
    inst = make_instance("f", [1.0], [([1.0], Sense.GE, -3.0)], [-np.inf], [np.inf])
    res = lp_solve(*relaxation(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-3.0)


def test_equality_row():
    inst = make_instance("g", [1.0, 1.0], [([1.0, 1.0], Sense.EQ, 3.0)],
                         [0, 0], [2, 2])
    res = lp_solve(*relaxation(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(3.0)


def _random_lp(rng, n_max=6, m_max=4, bounded=True):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    c = rng.integers(-5, 6, n).astype(float)
    A = rng.integers(-4, 5, (m, n)).astype(float)
    A[rng.random((m, n)) < 0.25] = 0.0
    b = rng.integers(-5, 9, m).astype(float)
    senses = [Sense.LE if rng.random() < 0.6 else Sense.GE for _ in range(m)]
    lo = np.zeros(n)
    hi = np.full(n, float(rng.integers(2, 7)))
    if not bounded:
        hi[rng.random(n) < 0.2] = np.inf
    rows = list(zip(A, senses, b))
    return make_instance(f"lp{rng.integers(1 << 30)}", c, rows, lo, hi)


def test_vertex_enumeration_oracle_on_random_lps():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(60):
        inst = _random_lp(rng)
        res = lp_solve(*relaxation(inst))
        ref = lp_vertex_oracle(inst)
        if ref is None:
            assert res.status is LpStatus.INFEASIBLE
        else:
            assert res.status is LpStatus.OPTIMAL
            assert res.objective == pytest.approx(ref, abs=1e-6)
            checked += 1
    assert checked >= 20


def test_against_scipy_including_unbounded():
    rng = np.random.default_rng(9)
    for _ in range(120):
        inst = _random_lp(rng, bounded=False)
        res = lp_solve(*relaxation(inst))
        A = inst.dense_matrix()
        b = inst.rhs_array()
        A_ub, b_ub = [], []
        for i, s in enumerate(inst.senses()):
            if s is Sense.LE:
                A_ub.append(A[i]); b_ub.append(b[i])
            else:
                A_ub.append(-A[i]); b_ub.append(-b[i])
        ref = linprog(inst.objective, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                      bounds=[(l, None if not np.isfinite(u) else u)
                              for l, u in zip(inst.lower, inst.upper)],
                      method="highs")
        if ref.status == 0:
            assert res.status is LpStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 2:
            assert res.status is LpStatus.INFEASIBLE
        elif ref.status == 3:
            assert res.status is LpStatus.UNBOUNDED


def test_optimal_point_is_feasible():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = _random_lp(rng)
        res = lp_solve(*relaxation(inst))
        if res.status is not LpStatus.OPTIMAL:
            continue
        x = res.primal
        assert np.all(x >= inst.lower - 1e-6) and np.all(x <= inst.upper + 1e-6)
        A = inst.dense_matrix()
        b = inst.rhs_array()
        for i, s in enumerate(inst.senses()):
            act = float(A[i] @ x)
            if s is Sense.LE:
                assert act <= b[i] + 1e-6
            else:
                assert act >= b[i] - 1e-6
        assert res.objective == pytest.approx(float(inst.objective @ x), abs=1e-9)


def test_warm_start_after_bound_tightening():
    rng = np.random.default_rng(77)
    agreements = 0
    for _ in range(40):
        inst = _random_lp(rng)
        rows, lo, hi, cost = relaxation(inst)
        cold = lp_solve(rows, lo, hi, cost)
        if cold.status is not LpStatus.OPTIMAL:
            continue
        j = int(rng.integers(inst.num_vars))
        hi = hi.copy()
        hi[j] = max(inst.lower[j], hi[j] - 1.0)
        warm = lp_solve(rows, lo, hi, cost, cold.basis)
        cold2 = lp_solve(rows, lo, hi, cost)
        assert warm.status == cold2.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold2.objective, abs=1e-8)
            agreements += 1
    assert agreements >= 15


def test_warm_start_with_appended_rows():
    inst = make_instance("h", [-1.0, -2.0],
                         [([1.0, 1.0], Sense.LE, 4.0)], [0, 0], [3, 3])
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assert first.status is LpStatus.OPTIMAL
    cut = LinearRow("cut", ((0, 1.0), (1, 1.0)), Sense.LE, 3.0)
    more = rows.extend(dense_block((cut,), inst.num_vars), (cut.sense,), [cut.rhs])
    warm = lp_solve(more, lo, hi, cost, first.basis)
    cold = lp_solve(more, lo, hi, cost)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_deterministic_repeat():
    rng = np.random.default_rng(123)
    inst = _random_lp(rng)
    r1 = lp_solve(*relaxation(inst))
    r2 = lp_solve(*relaxation(inst))
    assert r1.status == r2.status and r1.iterations == r2.iterations
    assert np.array_equal(r1.primal, r2.primal)


def test_cold_start_run_leaves_constraint_columns_intact():
    # pivots after a cold start must not overwrite [A | I], which a
    # refactorization on the same rows reads; the pivoted tableau agrees
    # with a fresh factorization of its basis
    rng = np.random.default_rng(5)
    pivoted = 0
    for _ in range(10):
        inst = _random_lp(rng)
        rows, lo, hi, cost = relaxation(inst)
        mat = rows.mat
        sx = _Simplex(rows, lo, hi, cost, get_kernels(), bland_after=50)
        sx.cold_start()
        sx.run(1000)
        assert np.array_equal(sx.all_cols, np.hstack([mat, np.eye(len(mat))]))
        fresh_tab, fresh_rhs = rows.factorization(sx.basis)
        assert np.allclose(sx.tab, fresh_tab, atol=1e-9)
        assert np.allclose(sx.rhs, fresh_rhs, atol=1e-9)
        pivoted += sx.iterations > 0
    assert pivoted >= 5


def test_carried_tableau_is_copied_and_matches_a_fresh_factorization():
    # a warm start on the token's own rows copies the token's tableau, with
    # no basis system solved; the copy agrees with a fresh factorization,
    # and pivoting it leaves the token's arrays alone
    rng = np.random.default_rng(8)
    pivoted = 0
    for _ in range(40):
        inst = _random_lp(rng)
        rows, lo, hi, cost = relaxation(inst)
        token = lp_solve(rows, lo, hi, cost).basis
        assert token.rows is rows and not token.tab.flags.writeable
        kept = token.tab.copy(), token.rhs.copy()
        factorized = []
        factorization = rows.factorization
        rows.factorization = lambda basis: factorized.append(basis) or factorization(basis)
        sx = _Simplex(rows, lo, lo + np.floor((hi - lo) / 3), cost, get_kernels(), 50)
        assert sx.warm_start(token)
        assert factorized == [] and sx.age == token.age
        assert sx.tab is not token.tab and np.array_equal(sx.tab, token.tab)
        fresh_tab, fresh_rhs = factorization(token.basis)
        assert np.allclose(sx.tab, fresh_tab, atol=1e-9)
        assert np.allclose(sx.rhs, fresh_rhs, atol=1e-9)
        if sx.run_dual(1000) is None:
            sx.run(1000)
        pivoted += sx.iterations > 0
        assert np.array_equal(token.tab, kept[0]) and np.array_equal(token.rhs, kept[1])
    assert pivoted >= 5


def test_carried_tableau_on_extended_rows_matches_a_fresh_factorization():
    # rows appended by extend come in as C - C_B T with their slacks basic
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(30):
        inst = _random_lp(rng)
        rows, lo, hi, cost = relaxation(inst)
        res = lp_solve(rows, lo, hi, cost)
        if res.status is not LpStatus.OPTIMAL:
            continue
        k = int(rng.integers(1, 3))
        more = rows.extend(rng.integers(-3, 4, (k, rows.n)).astype(float),
                           (Sense.LE,) * k, rng.integers(0, 6, k).astype(float))
        assert more.extends(rows) and not rows.extends(more)
        sx = _Simplex(more, lo, hi, cost, get_kernels(), 50)
        assert sx.warm_start(res.basis)
        assert np.array_equal(sx.basis[:rows.m], res.basis.basis)
        fresh_tab, fresh_rhs = more.factorization(sx.basis)
        assert np.allclose(sx.tab, fresh_tab, atol=1e-9)
        assert np.allclose(sx.rhs, fresh_rhs, atol=1e-9)
        checked += 1
    assert checked >= 15


def test_failed_factorization_returns_none():
    # columns 0 and 1 are equal, so a basis holding both is singular; with
    # column 2, B^-1 has an entry of about -1e10 / 1e-300, which overflows
    rows = NodeRows(np.array([[1.0, 1.0, 1e-300, 1e10], [3.0, 3.0, 0.0, 1.0]]),
                    (Sense.LE, Sense.LE), np.array([4.0, 5.0]))
    assert rows.factorization(np.array([0, 1], dtype=np.int64)) is None
    assert rows.factorization(np.array([2, 3], dtype=np.int64)) is None
    assert rows.factorization(np.array([0, 3], dtype=np.int64)) is not None


def test_node_rows_take_slack_bounds_from_the_sense():
    rows = NodeRows(np.ones((3, 2)), (Sense.LE, Sense.GE, Sense.EQ), np.zeros(3))
    assert rows.slack_lo.tolist() == [0.0, -math.inf, 0.0]
    assert rows.slack_hi.tolist() == [math.inf, 0.0, 0.0]
    more = rows.extend(np.ones((1, 2)), (Sense.GE,), [1.0])
    assert more.slack_lo.tolist()[3:] == [-math.inf] and more.slack_hi.tolist()[3:] == [0.0]


@pytest.mark.parametrize("sense", ["bogus", "LE", None])
def test_node_rows_reject_a_sense_that_is_not_a_sense_member(sense):
    # not EQ's slack bounds [0, 0] but an error; "LE" equals Sense.LE (a
    # str enum), so only the type tells them apart
    with pytest.raises(TypeError, match=re.escape(f"row 1: sense {sense!r} is not a Sense")):
        NodeRows(np.ones((2, 2)), (Sense.LE, sense), np.zeros(2))
    rows = NodeRows(np.ones((1, 2)), (Sense.LE,), np.zeros(1))
    with pytest.raises(TypeError):
        rows.extend(np.ones((1, 2)), (sense,), [0.0])


def test_warm_start_of_a_zero_row_lp():
    # an empty basis is a valid token: the warm start hits and solves
    rows = NodeRows(np.zeros((0, 2)), (), np.zeros(0))
    lo, hi, cost = np.zeros(2), np.array([1.0, 2.0]), np.array([1.0, -1.0])
    first = lp_solve(rows, lo, hi, cost, iter_limit=100)
    assert first.status is LpStatus.OPTIMAL and len(first.basis.basis) == 0
    sx = _Simplex(rows, lo, hi, cost, get_kernels(), 50)
    assert sx.warm_start(first.basis)
    again = lp_solve(rows, lo, hi, cost, first.basis, iter_limit=100)
    assert again.status is LpStatus.OPTIMAL
    assert np.array_equal(again.primal, [0.0, 2.0]) and again.objective == -2.0


def test_warm_start_takes_only_tokens_of_its_rows_or_the_rows_they_extend():
    # a token of rows with equal data, or of rows that extend the token's,
    # is not a token of these rows
    inst = make_instance("w", [-1.0, -2.0], [([1.0, 1.0], Sense.LE, 4.0)], [0, 0], [3, 3])
    rows, lo, hi, cost = relaxation(inst)
    token = lp_solve(rows, lo, hi, cost).basis
    more = rows.extend(np.array([[1.0, 0.0]]), (Sense.LE,), [2.0])
    assert _Simplex(more, lo, hi, cost, get_kernels(), 50).warm_start(token)
    twin = NodeRows(rows.mat, rows.senses, rows.rhs)
    for on, tok in ((twin, token), (rows, lp_solve(more, lo, hi, cost).basis)):
        with pytest.raises(ValueError):
            _Simplex(on, lo, hi, cost, get_kernels(), 50).warm_start(tok)
        with pytest.raises(ValueError):
            lp_solve(on, lo, hi, cost, tok)


def _breaks_down(monkeypatch, times):
    """Make the primal loop break down after at most two pivots on its
    first `times` calls; returns the list of calls."""
    real_run = _Simplex.run
    calls = []

    def run(self, iter_limit):
        calls.append(self.bland_after)
        if len(calls) > times:
            return real_run(self, iter_limit)
        real_run(self, min(iter_limit, 2))
        raise lp.SimplexTrouble("injected breakdown")

    monkeypatch.setattr(_Simplex, "run", run)
    return calls


def test_simplex_trouble_recovers_with_a_cold_bland_solve(monkeypatch):
    # a breakdown of the first run is answered by a fresh cold solve with
    # Bland from the first pivot: the result is that solve's, bit for bit
    rng = np.random.default_rng(17)
    optimal = 0
    for _ in range(30):
        rows, lo, hi, cost = relaxation(_random_lp(rng, bounded=False))
        clean = lp_solve(rows, lo, hi, cost, bland_after=0)
        with monkeypatch.context() as mp:
            calls = _breaks_down(mp, times=1)
            res = lp_solve(rows, lo, hi, cost)
        assert calls == [50, 0]
        assert res.status is clean.status and res.iterations == clean.iterations
        assert np.array_equal(res.primal, clean.primal)
        assert res.objective == clean.objective
        assert np.array_equal(res.basis.basis, clean.basis.basis)
        assert np.array_equal(res.basis.stat, clean.basis.stat)
        optimal += res.status is LpStatus.OPTIMAL
    assert optimal >= 10


def test_simplex_trouble_that_persists_reports_the_budget_spent(monkeypatch):
    # when the cold Bland solve breaks down too, the pivot budget is
    # reported as spent: ITER_LIMIT with a finite point and a token
    rng = np.random.default_rng(18)
    for _ in range(20):
        rows, lo, hi, cost = relaxation(_random_lp(rng))
        with monkeypatch.context() as mp:
            calls = _breaks_down(mp, times=2)
            res = lp_solve(rows, lo, hi, cost)
        assert calls == [50, 0]
        assert res.status is LpStatus.ITER_LIMIT
        assert np.all(np.isfinite(res.primal)) and np.isfinite(res.objective)
        assert res.basis is not None
        assert res.iterations <= 2


# ---------------------------------------------------------------------------
# Warm re-solves fuzzed against vertex enumeration
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def fuzz_lps(draw):
    """(inst, oracle_inst): a bounded LP with boxed, free and fixed columns
    and LE/GE/EQ rows, many of them tight at an integer point z (degenerate
    right-hand sides).  Each free column also gets the rows -3 <= x_j <= 3;
    `oracle_inst` has the same rows but finite bounds at -4 and 4 on the
    free columns, which leaves the feasible set unchanged, for the oracle."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    kind = draw(st.lists(st.sampled_from(["box", "box", "free", "fixed"]),
                         min_size=n, max_size=n))
    lo = np.array([float(draw(st.integers(-2, 1))) for _ in range(n)])
    hi = lo + np.array([float(draw(st.integers(1, 3))) for _ in range(n)])
    z = np.array([float(draw(st.integers(int(l), int(h)))) for l, h in zip(lo, hi)])
    fixed = np.array(kind) == "fixed"
    lo[fixed] = hi[fixed] = z[fixed]
    A = np.array([[float(draw(ints)) for _ in range(n)] for _ in range(m)])
    rows = []
    for i in range(m):
        sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
        gap = 0.0 if sense is Sense.EQ else float(draw(st.sampled_from([0, 0, 1, 2])))
        rows.append((A[i], sense, A[i] @ z + (gap if sense is Sense.LE else -gap)))
    free = np.array(kind) == "free"
    for j in np.flatnonzero(free):
        e = np.eye(n)[j]
        rows += [(e, Sense.LE, 3.0), (e, Sense.GE, -3.0)]
    c = [float(draw(st.integers(-5, 5))) for _ in range(n)]
    lo_inf, hi_inf = lo.copy(), hi.copy()
    lo_inf[free], hi_inf[free] = -np.inf, np.inf
    lo[free], hi[free] = -4.0, 4.0
    return (make_instance("fuzz", c, rows, lo_inf, hi_inf),
            make_instance("fuzz", c, rows, lo, hi))


def _with_bounds(inst, lo, hi):
    return make_instance(inst.name, inst.objective,
                         [(row, s, b) for row, s, b in zip(inst.dense_matrix(),
                                                           inst.senses(), inst.rhs_array())],
                         lo, hi)


def _assert_agrees(res, oracle_inst):
    ref = lp_vertex_oracle(oracle_inst)
    if ref is None:
        assert res.status is LpStatus.INFEASIBLE
    else:
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(ref, abs=1e-6)
    return ref


def _bound_change(data, first, lo, hi):
    """(lo2, hi2, oracle bounds) after branching on one or two boxed columns
    that are basic in the solve `first`, or None when there is none.  As
    branching does, each gets its upper bound moved to the nearest integer
    below its LP value or its lower bound to the nearest integer above it,
    whichever of the two stays inside the box."""
    boxed = np.isfinite(lo) & np.isfinite(hi) & (lo < hi)
    basic = np.sort(first.basis.basis)
    branchable = basic[basic < len(lo)]
    branchable = branchable[boxed[branchable]].tolist()
    if not branchable:
        return None
    lo2, hi2 = lo.copy(), hi.copy()
    for j in data.draw(st.lists(st.sampled_from(branchable), min_size=1, max_size=2,
                                unique=True)):
        v = first.primal[j]
        v = round(v) if abs(v - round(v)) <= 1e-9 else v
        below, above = math.ceil(v) - 1, math.floor(v) + 1
        sides = [side for side, ok in (("down", below >= lo[j]), ("up", above <= hi[j]))
                 if ok]
        if data.draw(st.sampled_from(sides)) == "down":
            hi2[j] = float(below)
        else:
            lo2[j] = float(above)
    return lo2, hi2, np.where(np.isfinite(lo2), lo2, -4.0), np.where(np.isfinite(hi2), hi2, 4.0)


@FUZZ
@given(fuzz_lps(), st.data())
def test_fuzz_warm_resolve_after_a_bound_change(lps, data):
    inst, oracle_inst = lps
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    _assert_agrees(first, oracle_inst)
    assume(first.status is LpStatus.OPTIMAL)
    change = _bound_change(data, first, lo, hi)
    assume(change is not None)
    lo2, hi2, oracle_lo, oracle_hi = change
    ref = _assert_agrees(lp_solve(rows, lo2, hi2, cost, first.basis),
                         _with_bounds(oracle_inst, oracle_lo, oracle_hi))
    # the dual simplex objective bounds the optimum from below at every
    # pivot, and the beta it carries through pivots and flips is the beta a
    # fresh computation gives
    for limit in range(6):
        res = lp_solve(rows, lo2, hi2, cost, first.basis, iter_limit=limit)
        if res.status is LpStatus.ITER_LIMIT and ref is not None:
            assert res.objective <= ref + 1e-6
        sx = _Simplex(rows, lo2, hi2, cost, get_kernels(), 50)
        assert sx.warm_start(first.basis)
        status, beta = sx.run_dual(limit)
        assert np.allclose(beta, sx.compute_beta(sx.vals), rtol=0.0, atol=1e-9)


@FUZZ
@given(fuzz_lps(), st.data())
def test_fuzz_warm_resolve_after_appended_rows(lps, data):
    inst, oracle_inst = lps
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assume(first.status is LpStatus.OPTIMAL)
    k = data.draw(st.integers(1, 2))
    mat = np.array([[float(data.draw(st.integers(-3, 3))) for _ in range(rows.n)]
                    for _ in range(k)])
    senses = [data.draw(st.sampled_from([Sense.LE, Sense.GE])) for _ in range(k)]
    # cutting the LP point off by 1 or 4 (below it for an LE row, above it
    # for a GE row), or through it; hypothesis draws the first choice most
    away = [float(data.draw(st.sampled_from([1, 4, 0]))) for _ in range(k)]
    rhs = mat @ first.primal + np.array(
        [-a if s is Sense.LE else a for a, s in zip(away, senses)])
    more = rows.extend(mat, senses, rhs)
    extended = make_instance(
        "fuzz", oracle_inst.objective,
        [(row, s, b) for row, s, b in zip(more.mat, more.senses, more.rhs)],
        oracle_inst.lower, oracle_inst.upper)
    _assert_agrees(lp_solve(more, lo, hi, cost, first.basis), extended)


@FUZZ
@given(fuzz_lps(), st.data())
def test_fuzz_cutoff_stops_only_at_or_above_the_optimum(lps, data):
    # A warm re-solve with a cutoff returns CUTOFF only when the optimum is at
    # least the cutoff, with an objective between the two; otherwise it is
    # the solve without a cutoff, bit for bit.  The re-solve moves bounds and
    # adds a row that cuts the parent's point off, so that it pivots.
    inst, oracle_inst = lps
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assume(first.status is LpStatus.OPTIMAL)
    change = _bound_change(data, first, lo, hi)
    assume(change is not None)
    lo2, hi2, oracle_lo, oracle_hi = change
    cut = np.array([[float(data.draw(st.integers(-3, 3))) for _ in range(rows.n)]])
    assume(cut.any())
    sense = data.draw(st.sampled_from([Sense.LE, Sense.GE]))
    away = float(data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    rows = rows.extend(cut, [sense], cut @ first.primal
                       + (-away if sense is Sense.LE else away))
    ref = lp_vertex_oracle(make_instance(
        "fuzz", cost, list(zip(rows.mat, rows.senses, rows.rhs)), oracle_lo, oracle_hi))
    optimum = np.inf if ref is None else ref
    # between the parent's optimum and this one, on either, or past either
    # (an infeasible LP's optimum counts as the parent's plus 4)
    top = first.objective + 4.0 if ref is None else ref
    share = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]))
    cutoff = first.objective + share * (top - first.objective) \
        + data.draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
    plain = lp_solve(rows, lo2, hi2, cost, first.basis)
    res = lp_solve(rows, lo2, hi2, cost, first.basis, cutoff=cutoff)
    if res.status is LpStatus.CUTOFF:
        assert optimum >= cutoff - 1e-6
        assert cutoff <= res.objective <= optimum + 1e-6
        assert res.iterations <= plain.iterations
    else:
        assert res.status is plain.status
        assert res.iterations == plain.iterations
        assert res.primal.tobytes() == plain.primal.tobytes()
        assert np.array_equal(res.basis.basis, plain.basis.basis)
        assert np.array_equal(res.basis.stat, plain.basis.stat)


@pytest.mark.parametrize("knob", ["REFACTOR_AGE", "DUAL_STALL_AFTER"])
@FUZZ
@given(fuzz_lps(), st.data())
def test_fuzz_dual_refactorizing_or_stalling_every_pivot(knob, lps, data):
    # REFACTOR_AGE 1: the cold primal loop and the dual loop factorize after
    # every pivot (the dual one also reprices), so every token has age 0.
    # DUAL_STALL_AFTER 1: the first degenerate dual pivot hands the basis to
    # the primal loop.
    inst, oracle_inst = lps
    rows, lo, hi, cost = relaxation(inst)
    hi2 = hi.copy()
    boxed = np.isfinite(lo) & np.isfinite(hi)
    hi2[boxed] = lo[boxed] + np.floor((hi[boxed] - lo[boxed]) / 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, knob, 1)
        first = lp_solve(rows, lo, hi, cost)
        _assert_agrees(first, oracle_inst)
        assume(first.status is LpStatus.OPTIMAL)
        res = lp_solve(rows, lo, hi2, cost, first.basis)
        assert first.basis.age < lp.REFACTOR_AGE and res.basis.age < lp.REFACTOR_AGE
    _assert_agrees(res, _with_bounds(oracle_inst, oracle_inst.lower,
                                     np.where(np.isfinite(hi2), hi2, 4.0)))


def _solve_bytes(res):
    """Everything a warm re-solve hands on, as bytes."""
    tok = res.basis
    return (res.status, res.iterations, np.float64(res.objective).tobytes(),
            res.primal.tobytes(), tok.basis.tobytes(), tok.stat.tobytes(),
            tok.tab.tobytes(), tok.rhs.tobytes(), tok.age)


def _kept_start_used(token, rows, lo, hi, cost):
    """Whether a warm start from `token` copies the start kept on it."""
    sx = _Simplex(rows, lo, hi, cost, get_kernels(), 50)
    assert sx.warm_start(token)
    return token.start is not None and sx._kept is token.start


@FUZZ
@given(fuzz_lps(), st.data())
def test_fuzz_kept_dual_start_changes_no_bit(lps, data):
    # Re-solves from one token, the first of which keeps its dual start on
    # the token for the others, hand on the bytes that re-solves from fresh
    # copies of the token, each deriving its own start, hand on.  The re-solves move a
    # bound of one basic column down or up, as branching does, with or
    # without a cutoff and under small iteration limits; each copies the
    # kept start.  A nonbasic bound that differs (-0.0 for +0.0 too) and
    # extended rows derive their own.
    inst, _ = lps
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assume(first.status is LpStatus.OPTIMAL)
    token = first.basis
    boxed = np.isfinite(lo) & np.isfinite(hi) & (lo < hi)
    basic = [j for j in sorted(token.basis.tolist()) if j < rows.n and boxed[j]]
    assume(basic)
    j = data.draw(st.sampled_from(basic))
    v = first.primal[j]
    sides = []
    if math.ceil(v) - 1 >= lo[j]:
        hi2 = hi.copy()
        hi2[j] = math.ceil(v) - 1
        sides.append((lo, hi2))
    if math.floor(v) + 1 <= hi[j]:
        lo2 = lo.copy()
        lo2[j] = math.floor(v) + 1
        sides.append((lo2, hi))
    assume(sides)
    cutoffs = [np.inf, first.objective + 0.5, first.objective + 2.0]
    solves = data.draw(st.lists(st.tuples(st.sampled_from(range(len(sides))),
                                          st.sampled_from(cutoffs),
                                          st.sampled_from([1000, 0, 1, 2])),
                                min_size=2, max_size=5))

    def both(rows, lo, hi, iter_limit=1000, cutoff=np.inf):
        shared = lp_solve(rows, lo, hi, cost, token, iter_limit, cutoff=cutoff)
        fresh = lp_solve(rows, lo, hi, cost, replace(token), iter_limit, cutoff=cutoff)
        assert _solve_bytes(shared) == _solve_bytes(fresh)

    for k, (side, cutoff, limit) in enumerate(solves):
        lo_k, hi_k = sides[side]
        if k:   # the first re-solve derived the start, the others copy it
            assert _kept_start_used(token, rows, lo_k, hi_k, cost) \
                == (token.start is not None)
        both(rows, lo_k, hi_k, limit, cutoff)
    assume(token.start is not None)

    # a nonbasic bound moves, or a resting bound of 0.0 turns into -0.0
    lo_k, hi_k = (a.copy() for a in sides[0])
    nonbasic = np.flatnonzero((token.stat[:rows.n] == AT_LOWER) & np.isfinite(lo_k))
    if len(nonbasic):
        j = int(data.draw(st.sampled_from(nonbasic.tolist())))
        lo_k[j] = -0.0 if lo_k[j] == 0.0 else lo_k[j] - 1.0
        assert not _kept_start_used(token, rows, lo_k, hi_k, cost)
        both(rows, lo_k, hi_k)
    # rows appended to the token's rows
    more = rows.extend(np.ones((1, rows.n)), (Sense.LE,), [float(np.sum(first.primal))])
    assert not _kept_start_used(token, more, *sides[0], cost)
    both(more, *sides[0])


def test_token_views_and_contiguous_copies_warm_start_alike():
    # A solve's token holds tab and rhs as strided views of one tableau
    # array.  Re-solves from it, on its rows after a bound change and on
    # rows extended by new ones, hand on the bytes that re-solves from a
    # token holding contiguous copies hand on (a BLAS product over a strided
    # vector may sum in another order).
    rng = np.random.default_rng(14)
    checked = {"same": 0, "extended": 0}
    for _ in range(40):
        inst = _random_lp(rng, n_max=30, m_max=24)
        rows, lo, hi, cost = relaxation(inst)
        first = lp_solve(rows, lo, hi, cost)
        if first.status is not LpStatus.OPTIMAL or rows.m < 2:   # one row is contiguous
            continue
        token = first.basis
        assert not token.tab.flags.c_contiguous and not token.rhs.flags.c_contiguous
        copied = replace(token, tab=np.ascontiguousarray(token.tab),
                         rhs=np.ascontiguousarray(token.rhs))
        basic = [j for j in token.basis.tolist() if j < rows.n]
        hi2 = hi.copy()
        if basic:
            j = basic[int(rng.integers(len(basic)))]
            hi2[j] = math.floor(first.primal[j] / 2)
        k = int(rng.integers(1, 4))
        mat = rng.integers(-3, 4, (k, rows.n)).astype(float)
        more = rows.extend(mat, (Sense.LE,) * k, mat @ first.primal - 1.0)
        for kind, (on, lo_k, hi_k) in (("same", (rows, lo, hi2)),
                                       ("extended", (more, lo, hi))):
            assert _solve_bytes(lp_solve(on, lo_k, hi_k, cost, token)) \
                == _solve_bytes(lp_solve(on, lo_k, hi_k, cost, copied))
            checked[kind] += 1
    assert min(checked.values()) >= 20


def test_dual_enters_a_free_column_and_hands_a_stall_to_the_primal_loop():
    # min x with x in [0, 2] and y free, x + y >= 0, -3 <= y <= 3: the cold
    # solve leaves y nonbasic at 0 (d_y = 0).  The appended row y >= 1 can
    # only be met by y entering, a dual-degenerate pivot (theta_d = 0).
    inst = make_instance("free", [1.0, 0.0],
                         [([1.0, 1.0], Sense.GE, 0.0), ([0.0, 1.0], Sense.LE, 3.0),
                          ([0.0, 1.0], Sense.GE, -3.0)],
                         [0.0, -np.inf], [2.0, np.inf])
    rows, lo, hi, cost = relaxation(inst)
    first = lp_solve(rows, lo, hi, cost)
    assert first.status is LpStatus.OPTIMAL and first.basis.stat[1] == FREE
    more = rows.extend(np.array([[0.0, 1.0]]), (Sense.GE,), np.array([1.0]))
    sx = _Simplex(more, lo, hi, cost, get_kernels(), 50)
    assert sx.warm_start(first.basis)
    status, _ = sx.run_dual(100)
    assert status is LpStatus.OPTIMAL and sx.stat[1] == BASIC and sx.iterations == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "DUAL_STALL_AFTER", 1)
        sx = _Simplex(more, lo, hi, cost, get_kernels(), 50)
        assert sx.warm_start(first.basis)
        assert sx.run_dual(100) is None and sx.iterations == 1
        res = lp_solve(more, lo, hi, cost, first.basis)
    assert res.status is LpStatus.OPTIMAL and res.objective == 0.0
    assert res.primal[1] == pytest.approx(1.0)


def test_dual_carries_beta_and_the_bound_through_flips():
    # binary knapsack LPs with several columns fixed against their LP value:
    # the dual passes boxed breakpoints (bound flips) on the way, and at every
    # iteration limit the beta it carries is the beta the tableau gives and
    # its objective bounds the optimum from below
    rng = np.random.default_rng(12)
    flips = 0
    for _ in range(30):
        n, m = 12, 3
        inst = make_instance("knap", -rng.integers(5, 30, n).astype(float),
                             [(row, Sense.LE, float(row.sum() // 2))
                              for row in rng.integers(1, 20, (m, n)).astype(float)],
                             np.zeros(n), np.ones(n))
        rows, lo, hi, cost = relaxation(inst)
        first = lp_solve(rows, lo, hi, cost)
        lo2, hi2 = lo.copy(), hi.copy()
        pick = rng.choice(n, size=4, replace=False)
        up = first.primal[pick] < 0.5
        lo2[pick[up]] = 1.0
        hi2[pick[~up]] = 0.0
        full = lp_solve(rows, lo2, hi2, cost, first.basis)
        for limit in range(full.iterations):
            sx = _Simplex(rows, lo2, hi2, cost, get_kernels(), 50)
            assert sx.warm_start(first.basis)
            status, beta = sx.run_dual(limit)
            assert status is LpStatus.ITER_LIMIT
            assert np.allclose(beta, sx.compute_beta(sx.vals), rtol=0.0, atol=1e-9)
            if full.status is LpStatus.OPTIMAL:
                x = sx.primal_point(beta, sx.vals)[:n]
                assert float(cost @ x) <= full.objective + 1e-9
        flips += full.iterations - full.basis.age + first.basis.age
    assert flips >= 10


def test_dual_ratio_ties_go_to_the_largest_pivot():
    # min x1 + 2 x2 with x1 + 2 x2 >= 2: both columns reach the row's bound
    # at the same dual step (1/1 = 2/2); the larger |alpha| enters
    # from the slack basis, which a solve with no pivots leaves
    rows = NodeRows(np.array([[1.0, 2.0]]), (Sense.GE,), [2.0])
    lo, hi, cost = np.zeros(2), np.full(2, 5.0), np.array([1.0, 2.0])
    first = lp_solve(rows, lo, hi, cost, iter_limit=0)
    assert first.status is LpStatus.ITER_LIMIT and first.basis.basis.tolist() == [2]
    res = lp_solve(rows, lo, hi, cost, first.basis)
    assert res.status is LpStatus.OPTIMAL and res.iterations == 1
    assert res.primal.tolist() == [0.0, 1.0] and res.objective == 2.0


def test_dual_moves_boxed_columns_priced_on_the_wrong_side():
    # a token from the opposite objective prices most columns on the wrong
    # side; where they are all boxed the dual moves them to their other
    # bound and solves, otherwise the primal loop does; both match a cold solve
    rng = np.random.default_rng(13)
    dual_runs = 0
    for _ in range(40):
        inst = _random_lp(rng)
        rows, lo, hi, cost = relaxation(inst)
        first = lp_solve(rows, lo, hi, -cost)
        if first.status is not LpStatus.OPTIMAL:
            continue
        sx = _Simplex(rows, lo, hi, cost, get_kernels(), 50)
        assert sx.warm_start(first.basis)
        dual_runs += sx.run_dual(1000) is not None
        warm, cold = lp_solve(rows, lo, hi, cost, first.basis), lp_solve(rows, lo, hi, cost)
        assert warm.status is cold.status
        if cold.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert dual_runs >= 5
