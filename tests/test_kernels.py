"""Backend parity: the compiled kernels and the numpy fallback must produce
bit-identical results.

The compiled extension is optional, so the numpy kernels are also checked
against row- and column-loop reference kernels kept here.  The loops do the
compiled kernels' arithmetic in the compiled kernels' order, so these checks
run on every machine."""
from __future__ import annotations

import numpy as np
import pytest

from mipseries import kernels as K
from mipseries.lp import LpProblem, solve_lp
from mipseries.solver import SolverConfig, solve

from conftest import DET_WPS, hard_knapsack, make_instance, random_feasible_mip

needs_compiled = pytest.mark.skipif(not K.HAVE_COMPILED,
                                    reason="compiled extension not built")


def loop_eliminate(tab, rhs, r, j):
    piv = tab[r, j]
    tab[r, :] /= piv
    rhs[r] /= piv
    prow = tab[r]
    pr = rhs[r]
    for i in range(tab.shape[0]):
        if i == r:
            continue
        f = tab[i, j]
        if f != 0.0:
            tab[i, :] -= f * prow
            rhs[i] -= f * pr


def loop_accumulate_rowsum(out, weights, tab):
    for i in range(tab.shape[0]):
        w = weights[i]
        if w != 0.0:
            out -= w * tab[i]


def loop_subtract_scaled_columns(beta, tab, cols, vals):
    for k in range(len(cols)):
        beta -= vals[k] * tab[:, cols[k]]


def assert_bits_equal(a, b):
    """Equal values, and equal signs on the zeros (0.0 == -0.0 otherwise)."""
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def sprinkle_zeros(rng, a, p_zero=0.25, p_negzero=0.1):
    u = rng.random(a.shape)
    a[u < p_zero] = 0.0
    a[u > 1.0 - p_negzero] = -0.0
    return a


def random_tableau(rng, m, ncol):
    """Entries over 16 orders of magnitude with exact +0.0 and -0.0."""
    tab = rng.standard_normal((m, ncol)) * 10.0 ** rng.integers(-8, 9, (m, ncol))
    return sprinkle_zeros(rng, tab)


def test_numpy_eliminate_matches_row_loop():
    rng = np.random.default_rng(10)
    py = K.get_kernels("python")
    for trial in range(400):
        m = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        ncol = int(rng.integers(1, 80))
        tab = random_tableau(rng, m, ncol)
        r, j = int(rng.integers(m)), int(rng.integers(ncol))
        tab[r, j] = rng.standard_normal() + 3.0
        if trial % 7 == 0:
            tab[:, j] = np.where(np.arange(m) == r, tab[r, j], -0.0)
        rhs = sprinkle_zeros(rng, rng.standard_normal(m))
        tab_l, rhs_l = tab.copy(), rhs.copy()
        loop_eliminate(tab_l, rhs_l, r, j)
        py.eliminate(tab, rhs, r, j)
        assert_bits_equal(tab, tab_l)
        assert_bits_equal(rhs, rhs_l)


def test_numpy_rowsum_matches_row_loop():
    rng = np.random.default_rng(11)
    py = K.get_kernels("python")
    for trial in range(400):
        m = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        ncol = int(rng.integers(1, 80))
        tab = random_tableau(rng, m, ncol)
        w = sprinkle_zeros(rng, rng.standard_normal(m), p_zero=0.4)
        if trial % 9 == 0:
            w[:] = 0.0
            w[::2] = -0.0
        out = sprinkle_zeros(rng, rng.standard_normal(ncol))
        out_l = out.copy()
        loop_accumulate_rowsum(out_l, w, tab)
        py.accumulate_rowsum(out, w, tab)
        assert_bits_equal(out, out_l)


def test_numpy_columns_match_column_loop():
    rng = np.random.default_rng(12)
    py = K.get_kernels("python")
    for trial in range(400):
        m = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        ncol = int(rng.integers(1, 80))
        tab = random_tableau(rng, m, ncol)
        k = 0 if trial % 8 == 0 else int(rng.integers(1, ncol + 1))
        cols = rng.choice(ncol, size=k, replace=False).astype(np.int64)
        vals = sprinkle_zeros(rng, rng.standard_normal(k), p_zero=0.2)
        if trial % 9 == 0:
            vals[:] = 0.0
        beta = sprinkle_zeros(rng, rng.standard_normal(m))
        beta_l = beta.copy()
        loop_subtract_scaled_columns(beta_l, tab, cols, vals)
        py.subtract_scaled_columns(beta, tab, cols, vals)
        assert_bits_equal(beta, beta_l)


def test_numpy_kernels_signed_zero_cases():
    py = K.get_kernels("python")
    # -0.0 pivot-column entries and weights are skipped like exact zeros
    tab = np.array([[2.0, 4.0, -0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 3.0]])
    rhs = np.array([2.0, -0.0, 0.0])
    tab_l, rhs_l = tab.copy(), rhs.copy()
    loop_eliminate(tab_l, rhs_l, 0, 0)
    py.eliminate(tab, rhs, 0, 0)
    assert_bits_equal(tab, tab_l)
    assert_bits_equal(rhs, rhs_l)

    out = np.array([-0.0, 0.0, 1.0])
    py.accumulate_rowsum(out, np.array([-0.0, 0.0, 0.0]), tab)
    assert_bits_equal(out, np.array([-0.0, 0.0, 1.0]))

    # zero weights are not skipped here: -0.0 - (+0.0 * x) stays -0.0 but
    # -0.0 - (-0.0) is +0.0, as in the loop
    beta = np.array([-0.0, -0.0, 5.0])
    beta_l = beta.copy()
    cols = np.array([1, 2], dtype=np.int64)
    vals = np.array([0.0, -0.0])
    loop_subtract_scaled_columns(beta_l, tab, cols, vals)
    py.subtract_scaled_columns(beta, tab, cols, vals)
    assert_bits_equal(beta, beta_l)


def test_backend_selection():
    assert K.get_kernels("python").name == "python"
    if K.HAVE_COMPILED:
        assert K.get_kernels("compiled").name == "compiled"
        assert K.get_kernels("auto").name == "compiled"
    with pytest.raises(ValueError):
        K.get_kernels("nope")


@needs_compiled
def test_eliminate_bitwise_identical():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, ncol = int(rng.integers(2, 30)), int(rng.integers(3, 60))
        tab = rng.standard_normal((m, ncol))
        tab[rng.random((m, ncol)) < 0.3] = 0.0
        r = int(rng.integers(m))
        j = int(rng.integers(ncol))
        tab[r, j] = rng.standard_normal() + 2.0
        rhs = rng.standard_normal(m)
        tab_c, rhs_c = tab.copy(), rhs.copy()
        tab_p, rhs_p = tab.copy(), rhs.copy()
        K.get_kernels("compiled").eliminate(tab_c, rhs_c, r, j)
        K.get_kernels("python").eliminate(tab_p, rhs_p, r, j)
        assert np.array_equal(tab_c, tab_p)
        assert np.array_equal(rhs_c, rhs_p)


@needs_compiled
def test_rowsum_and_columns_bitwise_identical():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m, ncol = int(rng.integers(2, 30)), int(rng.integers(3, 60))
        tab = np.ascontiguousarray(rng.standard_normal((m, ncol)))
        w = rng.standard_normal(m)
        w[rng.random(m) < 0.4] = 0.0
        out_c = rng.standard_normal(ncol)
        out_p = out_c.copy()
        K.get_kernels("compiled").accumulate_rowsum(out_c, w, tab)
        K.get_kernels("python").accumulate_rowsum(out_p, w, tab)
        assert np.array_equal(out_c, out_p)

        k = int(rng.integers(1, ncol))
        cols = rng.choice(ncol, size=k, replace=False).astype(np.int64)
        vals = rng.standard_normal(k)
        beta_c = rng.standard_normal(m)
        beta_p = beta_c.copy()
        K.get_kernels("compiled").subtract_scaled_columns(beta_c, tab, cols, vals)
        K.get_kernels("python").subtract_scaled_columns(beta_p, tab, cols, vals)
        assert np.array_equal(beta_c, beta_p)


@needs_compiled
def test_full_lp_solves_identical_across_backends():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m = int(rng.integers(3, 8)), int(rng.integers(1, 5))
        c = rng.integers(-5, 6, n).astype(float)
        A = rng.integers(-4, 5, (m, n)).astype(float)
        b = rng.integers(-4, 9, m).astype(float)
        from mipseries.model import Sense
        rows = [(A[i], Sense.LE if rng.random() < 0.7 else Sense.GE, b[i]) for i in range(m)]
        inst = make_instance("k", c, rows, np.zeros(n), np.full(n, 5.0))
        rc = solve_lp(LpProblem(inst), kernels="compiled")
        rp = solve_lp(LpProblem(inst), kernels="python")
        assert rc.status == rp.status
        assert rc.iterations == rp.iterations
        assert np.array_equal(rc.primal, rp.primal)
        assert rc.objective == rp.objective


@needs_compiled
def test_full_bb_solve_identical_across_backends():
    rng = np.random.default_rng(3)
    insts = [random_feasible_mip(rng, max_vars=8, max_rows=6) for _ in range(4)]
    insts.append(hard_knapsack())
    for inst in insts:
        oc = solve(inst, SolverConfig(det_work_per_second=DET_WPS, kernels="compiled"), 1e6)
        op = solve(inst, SolverConfig(det_work_per_second=DET_WPS, kernels="python"), 1e6)
        assert oc.status == op.status
        assert oc.primal_bound == op.primal_bound
        assert oc.dual_bound == op.dual_bound
        assert oc.stats.nodes == op.stats.nodes
        assert oc.stats.lp_iterations == op.stats.lp_iterations
        assert oc.solve_time == op.solve_time
