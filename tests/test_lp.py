"""Simplex engine: trivial cases, oracles, warm starts, limits."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from mipseries.kernels import get_kernels
from mipseries.lp import (AT_LOWER, BASIC, LpProblem, LpStatus, NodeRows,
                          SimplexBasis, _Simplex, solve_arrays, solve_lp)
from mipseries.model import LinearRow, Sense

from conftest import lp_vertex_oracle, make_instance


def test_single_var_lower_bounded_row():
    inst = make_instance("a", [1.0], [([1.0], Sense.GE, 2.0)], [0], [10], [0])
    res = solve_lp(LpProblem(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.primal[0] == pytest.approx(2.0)
    assert res.objective == pytest.approx(2.0)


def test_two_var_box_vertex():
    inst = make_instance("b", [-1.0, -1.0], [([1.0, 1.0], Sense.LE, 1.0)],
                         [0, 0], [1, 1])
    res = solve_lp(LpProblem(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    # independent check: enumerate the vertices of the 2-D polytope
    assert lp_vertex_oracle(inst) == pytest.approx(-1.0)


def test_infeasible_rows():
    inst = make_instance("c", [1.0], [([1.0], Sense.GE, 1.0), ([1.0], Sense.LE, 0.0)],
                         [0], [10])
    assert solve_lp(LpProblem(inst)).status is LpStatus.INFEASIBLE


def test_unbounded():
    inst = make_instance("d", [-1.0], [], [0], [np.inf])
    assert solve_lp(LpProblem(inst)).status is LpStatus.UNBOUNDED


def test_iter_limit_returned_not_raised():
    inst = make_instance("e", [-1.0, -1.0],
                         [([1.0, 2.0], Sense.LE, 2.0),
                          ([2.0, 1.0], Sense.LE, 2.0)],
                         [0, 0], [2, 2])
    full = solve_lp(LpProblem(inst))
    assert full.status is LpStatus.OPTIMAL and full.iterations >= 2
    res = solve_lp(LpProblem(inst), iter_limit=1)
    assert res.status is LpStatus.ITER_LIMIT
    assert res.iterations == 1


def test_free_variable():
    inst = make_instance("f", [1.0], [([1.0], Sense.GE, -3.0)], [-np.inf], [np.inf])
    res = solve_lp(LpProblem(inst))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-3.0)


def test_equality_row():
    inst = make_instance("g", [1.0, 1.0], [([1.0, 1.0], Sense.EQ, 3.0)],
                         [0, 0], [2, 2])
    res = solve_lp(LpProblem(inst))
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
        res = solve_lp(LpProblem(inst))
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
        res = solve_lp(LpProblem(inst))
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
        res = solve_lp(LpProblem(inst))
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
        cold = solve_lp(LpProblem(inst))
        if cold.status is not LpStatus.OPTIMAL:
            continue
        hi = np.array(inst.upper)
        j = int(rng.integers(inst.num_vars))
        hi[j] = max(inst.lower[j], hi[j] - 1.0)
        warm = solve_lp(LpProblem(inst, local_upper=hi), warm=cold.basis)
        cold2 = solve_lp(LpProblem(inst, local_upper=hi))
        assert warm.status == cold2.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold2.objective, abs=1e-8)
            agreements += 1
    assert agreements >= 15


def test_warm_start_with_appended_rows():
    inst = make_instance("h", [-1.0, -2.0],
                         [([1.0, 1.0], Sense.LE, 4.0)], [0, 0], [3, 3])
    first = solve_lp(LpProblem(inst))
    assert first.status is LpStatus.OPTIMAL
    cut = LinearRow("cut", ((0, 1.0), (1, 1.0)), Sense.LE, 3.0)
    warm = solve_lp(LpProblem(inst, extra_rows=(cut,)), warm=first.basis)
    cold = solve_lp(LpProblem(inst, extra_rows=(cut,)))
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_deterministic_repeat():
    rng = np.random.default_rng(123)
    inst = _random_lp(rng)
    r1 = solve_lp(LpProblem(inst))
    r2 = solve_lp(LpProblem(inst))
    assert r1.status == r2.status and r1.iterations == r2.iterations
    assert np.array_equal(r1.primal, r2.primal)


def test_cold_start_run_leaves_constraint_columns_intact():
    # pivots after a cold start must not overwrite [A | I], which a later
    # warm start on the same object factorizes
    rng = np.random.default_rng(5)
    pivoted = 0
    for _ in range(10):
        inst = _random_lp(rng)
        rows, lo, hi, cost = LpProblem(inst).build()
        arrays = (rows.mat, rows.senses, rows.rhs, lo, hi, cost)
        mat = rows.mat
        sx = _Simplex(*arrays, get_kernels(), bland_after=50)
        sx.cold_start()
        sx.run(1000)
        assert np.array_equal(sx.all_cols, np.hstack([mat, np.eye(len(mat))]))
        token = SimplexBasis(sx.basis.copy(), sx.stat.copy())
        fresh = _Simplex(*arrays, get_kernels(), bland_after=50)
        assert fresh.warm_start(token)
        assert sx.warm_start(token)
        assert np.array_equal(sx.tab, fresh.tab)
        assert np.array_equal(sx.rhs, fresh.rhs)
        pivoted += sx.iterations > 0
    assert pivoted >= 5


def _assert_bits_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_factorization_memo_is_bit_identical_to_a_fresh_one():
    # warm starts on shared rows reuse the last factorization; it must be
    # the very arrays a fresh factorization of the same basis gives
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(20):
        inst = _random_lp(rng)
        res = solve_lp(LpProblem(inst))
        if res.basis is None:
            continue
        rows, lo, hi, cost = LpProblem(inst).build()
        tight_hi = np.maximum(lo, hi - 1.0)
        shared = [_Simplex.on_rows(rows, lo, b, cost, get_kernels(), 50)
                  for b in (hi, tight_hi, hi)]
        if not all(sx.warm_start(res.basis) for sx in shared):
            continue
        hits += 1
        assert rows._factor[0] == shared[0].basis.tobytes()
        fresh = _Simplex(rows.mat, rows.senses, rows.rhs, lo, hi, cost, get_kernels(), 50)
        assert fresh.warm_start(res.basis)
        for sx in shared:
            _assert_bits_equal(sx.tab, fresh.tab)
            _assert_bits_equal(sx.rhs, fresh.rhs)
        # each simplex pivots its own copy, never the kept factorization
        assert shared[0].tab is not shared[2].tab
        shared[0].run(1000)
        shared[0].tab[:] = 7.0
        again = rows.factorization(res.basis.basis)
        _assert_bits_equal(again[0], fresh.tab)
        _assert_bits_equal(again[1], fresh.rhs)
    assert hits >= 10


def test_failed_factorization_is_never_kept():
    # columns 0 and 1 are equal, so a basis holding both is singular; with
    # column 2, B^-1 has an entry of about -1e10 / 1e-300, which overflows
    rows = NodeRows(np.array([[1.0, 1.0, 1e-300, 1e10], [3.0, 3.0, 0.0, 1.0]]),
                    (Sense.LE, Sense.LE), np.array([4.0, 5.0]))
    assert rows.factorization(np.array([0, 1], dtype=np.int64)) is None
    assert rows.factorization(np.array([2, 3], dtype=np.int64)) is None
    assert rows._factor is None
    good = np.array([0, 3], dtype=np.int64)
    assert rows.factorization(good) is not None
    kept = rows._factor
    assert kept[0] == good.tobytes()
    for bad in ([1, 0], [2, 3]):
        assert rows.factorization(np.array(bad, dtype=np.int64)) is None
        assert rows._factor is kept
    sx = _Simplex.on_rows(rows, np.zeros(4), np.full(4, 5.0), np.zeros(4),
                          get_kernels(), 50)
    assert not sx.warm_start(SimplexBasis(np.array([0, 1]), np.zeros(6, dtype=np.int8)))
    assert rows._factor is kept


def test_warm_start_of_a_zero_row_lp():
    # an empty basis is a valid token: the warm start hits and solves
    rows = NodeRows(np.zeros((0, 2)), (), np.zeros(0))
    lo, hi, cost = np.zeros(2), np.array([1.0, 2.0]), np.array([1.0, -1.0])
    first = solve_arrays(rows, lo, hi, cost, None, 100, False, get_kernels(), 50)
    assert first.status is LpStatus.OPTIMAL and len(first.basis.basis) == 0
    sx = _Simplex.on_rows(rows, lo, hi, cost, get_kernels(), 50)
    assert sx.warm_start(first.basis)
    again = solve_arrays(rows, lo, hi, cost, first.basis, 100, False, get_kernels(), 50)
    assert again.status is LpStatus.OPTIMAL
    assert np.array_equal(again.primal, [0.0, 2.0]) and again.objective == -2.0


def test_warm_start_rejects_repeated_and_out_of_range_basis_columns():
    rows = NodeRows(np.array([[1.0, 1.0], [1.0, -1.0]]), (Sense.LE, Sense.LE),
                    np.array([4.0, 1.0]))
    lo, hi, cost = np.zeros(2), np.full(2, 3.0), np.array([-1.0, -2.0])
    stat = np.array([AT_LOWER, AT_LOWER, BASIC, BASIC], dtype=np.int8)
    factorized = []
    factorization = rows.factorization
    rows.factorization = lambda basis: factorized.append(basis) or factorization(basis)
    for basis in ([2, 2], [2, 4], [-1, 2], [2], [0, 1, 2]):
        sx = _Simplex.on_rows(rows, lo, hi, cost, get_kernels(), 50)
        assert not sx.warm_start(SimplexBasis(np.array(basis, dtype=np.int64), stat))
    assert factorized == []   # rejected before any basis system is solved
    sx = _Simplex.on_rows(rows, lo, hi, cost, get_kernels(), 50)
    assert sx.warm_start(SimplexBasis(np.array([3, 2], dtype=np.int64), stat))
    assert len(factorized) == 1
