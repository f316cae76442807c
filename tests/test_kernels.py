"""The numpy kernels against row- and column-loop reference kernels kept
here: the loops do the plain arithmetic in the plain order, and the numpy
kernels must match them bit for bit.  Also checks that `solve_lp` and the
tree build the same tableau rows for the same cuts."""
from __future__ import annotations

import numpy as np
import pytest

from mipseries import kernels as K
from mipseries.lp import LpProblem
from mipseries.model import LinearRow, Sense
from mipseries.solver import SolverConfig
from mipseries.solver.bb import _TreeSolver

from conftest import hard_knapsack


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
    assert K.get_kernels().name == "python"
    assert K.get_kernels("python") is K.get_kernels(None)
    with pytest.raises(ValueError):
        K.get_kernels("compiled")


def test_lp_problem_and_tree_build_the_same_node_rows():
    inst = hard_knapsack()
    cuts = (LinearRow("c0", ((0, 1.5), (3, -2.25)), Sense.LE, 4.0),
            LinearRow("c1", ((2, 1.0), (5, 1.0), (13, 0.5)), Sense.GE, 1.0),
            LinearRow("c2", (), Sense.LE, 0.0),
            LinearRow("c3", ((1, -1.0),), Sense.EQ, -0.0))
    tree = _TreeSolver(inst, SolverConfig(), 1e6)
    tree._set_base_rows(inst.rhs_array())
    for rows in ((), cuts[:1], cuts):
        lp_rows, _, _, _ = LpProblem(inst, extra_rows=rows).build()
        node_rows = tree.base_rows.extend(rows)
        assert_bits_equal(lp_rows.mat, node_rows.mat)
        assert list(lp_rows.senses) == list(node_rows.senses)
        assert_bits_equal(lp_rows.rhs, node_rows.rhs)
        assert len(node_rows.slack_int) == len(node_rows.rhs)
    # cut rounds extend a node's rows one round at a time
    stepwise = tree.base_rows.extend(cuts[:1]).extend(cuts[1:3]).extend(cuts[3:])
    at_once = tree.base_rows.extend(cuts)
    for field in ("mat", "rhs", "slack_lo", "slack_hi", "all_cols"):
        assert_bits_equal(getattr(stepwise, field), getattr(at_once, field))
    assert stepwise.senses == at_once.senses
    assert np.array_equal(stepwise.slack_int, at_once.slack_int)
    m = len(at_once.rhs)
    assert_bits_equal(at_once.all_cols, np.hstack([at_once.mat, np.eye(m)]))
    assert not at_once.slack_int[inst.num_rows:].any()
