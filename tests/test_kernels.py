"""The numpy kernels against row- and column-loop reference kernels kept
here: the loops do the plain arithmetic in the plain order, and the numpy
kernels must match them bit for bit.  Also checks that an instance's
`NodeRows` and the tree's base rows, extended by the same cuts, hold the same
rows, and the same slack bounds as those rows built from scratch."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from mipseries import kernels as K
from mipseries.lp import NodeRows
from mipseries.model import LinearRow, Sense, dense_block
from mipseries.solver import SolverConfig
from mipseries.solver.bb import _TreeSolver

from conftest import hard_knapsack, relaxation


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


def nan_bits(a):
    """The IEEE bit patterns, with every NaN mapped to one pattern."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


def sprinkle_zeros(rng, a, p_zero=0.25, p_negzero=0.1):
    u = rng.random(a.shape)
    a[u < p_zero] = 0.0
    a[u > 1.0 - p_negzero] = -0.0
    return a


def random_tableau(rng, m, ncol):
    """Entries over 16 orders of magnitude with exact +0.0 and -0.0."""
    tab = rng.standard_normal((m, ncol)) * 10.0 ** rng.integers(-8, 9, (m, ncol))
    return sprinkle_zeros(rng, tab)


def check_eliminate(tab, rhs, r, j):
    """The kernel's pivot of [tab | rhs] against the row loop's of tab and rhs."""
    aug = np.column_stack([tab, rhs])
    tab_l, rhs_l = tab.copy(), rhs.copy()
    loop_eliminate(tab_l, rhs_l, r, j)
    K.get_kernels("python").eliminate(aug, r, j)
    assert_bits_equal(aug[:, :-1], tab_l)
    assert_bits_equal(aug[:, -1], rhs_l)


def test_numpy_eliminate_matches_row_loop():
    rng = np.random.default_rng(10)
    for trial in range(400):
        m = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        ncol = int(rng.integers(1, 80))
        tab = random_tableau(rng, m, ncol)
        r, j = int(rng.integers(m)), int(rng.integers(ncol))
        tab[r, j] = rng.standard_normal() + 3.0
        if trial % 7 == 0:
            tab[:, j] = np.where(np.arange(m) == r, tab[r, j], -0.0)
        check_eliminate(tab, sprinkle_zeros(rng, rng.standard_normal(m)), r, j)


def test_numpy_eliminate_whole_array_path_matches_row_loop():
    # a pivot column without a zero takes the one whole-array update; the
    # other columns and the rhs hold +0.0, -0.0 and 16 orders of magnitude
    rng = np.random.default_rng(13)
    for trial in range(300):
        m = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        ncol = int(rng.integers(1, 80))
        tab = random_tableau(rng, m, ncol)
        r, j = int(rng.integers(m)), int(rng.integers(ncol))
        col = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m)
        col[col == 0.0] = 1.0
        tab[:, j] = col
        assert tab[:, j].all()
        rhs = sprinkle_zeros(rng, rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m))
        check_eliminate(tab, rhs, r, j)


def test_numpy_eliminate_skips_a_negative_zero_in_the_pivot_column():
    # row 1 is left alone, as the loop leaves it: -0.0 - (-0.0 * x) would
    # turn its -0.0 entries into +0.0
    tab = np.array([[2.0, 4.0, 1e-8], [-0.0, -0.0, -0.0], [3.0, -0.0, 1e8]])
    rhs = np.array([2.0, -0.0, 5.0])
    check_eliminate(tab, rhs, 0, 0)
    aug = np.column_stack([tab, rhs])
    K.get_kernels("python").eliminate(aug, 0, 0)
    assert_bits_equal(aug[1], [-0.0] * 4)


def test_numpy_eliminate_zero_test_on_nonfinite_pivot_columns():
    # NaN and +-inf in the pivot column are nonzeros, as `f != 0.0` says in
    # the loop; +0.0 and -0.0 are zeros.  Entries compare as bit patterns,
    # every NaN mapped to one pattern (the loop and a whole-array update may
    # carry a NaN's sign differently).
    rng = np.random.default_rng(15)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -2.5])
    for trial in range(300):
        m = int(rng.integers(2, 12))
        ncol = int(rng.integers(2, 20))
        tab = random_tableau(rng, m, ncol)
        tab[rng.random((m, ncol)) < 0.05] = rng.choice(specials[:4])
        r, j = int(rng.integers(m)), int(rng.integers(ncol))
        col = rng.choice(specials, m)
        if trial % 2:   # no zero: the whole-array update
            col[(col == 0.0)] = np.inf
        col[r] = rng.standard_normal() + 3.0
        tab[:, j] = col
        rhs = sprinkle_zeros(rng, rng.standard_normal(m))
        aug = np.column_stack([tab, rhs])
        tab_l, rhs_l = tab.copy(), rhs.copy()
        with np.errstate(invalid="ignore"):
            loop_eliminate(tab_l, rhs_l, r, j)
            K.get_kernels("python").eliminate(aug, r, j)
        assert np.array_equal(nan_bits(aug), nan_bits(np.column_stack([tab_l, rhs_l])))


@pytest.mark.parametrize("a", [
    np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -3.0]),
    np.array([-0.0] * 5),
    np.zeros(0),
    np.array([True, False, True]),
    np.array([[1.0, -0.0], [np.nan, 0.0]]),
])
def test_count_nonzero_counts_like_numpys_public_function(a):
    assert K.count_nonzero(a) == np.count_nonzero(a)
    assert K._c_count_nonzero()(a) == np.count_nonzero(a)


def test_count_nonzero_is_numpys_c_function_where_numpy_has_one():
    multiarray = pytest.importorskip("numpy._core.multiarray")
    assert K.count_nonzero is multiarray.count_nonzero is not np.count_nonzero


def test_count_nonzero_falls_back_to_the_public_function(monkeypatch):
    # a numpy without the C entry point (None in sys.modules makes its
    # import fail) gets np.count_nonzero
    monkeypatch.setitem(sys.modules, "numpy._core.multiarray", None)
    assert K._c_count_nonzero() is np.count_nonzero


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
    check_eliminate(tab, np.array([2.0, -0.0, 0.0]), 0, 0)
    tab[0] /= 2.0   # the pivot row as eliminate leaves it

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
    # no presolve keeps the model rhs; node limit 0 sets the base rows up
    # and processes no node
    tree = _TreeSolver(inst, SolverConfig(enabled_presolvers=frozenset(), node_limit=0), 1e6)
    tree.solve()
    model_rows = relaxation(inst)[0]

    def block(rows):
        return (dense_block(rows, inst.num_vars), tuple(row.sense for row in rows),
                [row.rhs for row in rows])

    expected = np.zeros((4, inst.num_vars))
    expected[0, [0, 3]] = 1.5, -2.25
    expected[1, [2, 5, 13]] = 1.0, 1.0, 0.5
    expected[3, 1] = -1.0
    assert_bits_equal(block(cuts)[0], expected)
    repeated = LinearRow("r", ((4, 2.0), (4, -0.0)), Sense.LE, 1.0)
    assert_bits_equal(dense_block((repeated,), inst.num_vars)[0, 4:5], [-0.0])

    for rows in ((), cuts[:1], cuts):
        lp_rows = model_rows.extend(*block(rows))
        node_rows = tree.base_rows.extend(*block(rows))
        assert_bits_equal(lp_rows.mat, node_rows.mat)
        assert list(lp_rows.senses) == list(node_rows.senses)
        assert_bits_equal(lp_rows.rhs, node_rows.rhs)
        assert len(node_rows.slack_int) == len(node_rows.rhs)
        # extended rows take the slack bounds of the rows they extend
        scratch = NodeRows(node_rows.mat, node_rows.senses, node_rows.rhs)
        for built in (lp_rows, node_rows):
            assert_bits_equal(built.slack_lo, scratch.slack_lo)
            assert_bits_equal(built.slack_hi, scratch.slack_hi)
    # cut rounds extend a node's rows one round at a time
    stepwise = tree.base_rows.extend(*block(cuts[:1])).extend(
        *block(cuts[1:3])).extend(*block(cuts[3:]))
    at_once = tree.base_rows.extend(*block(cuts))
    for field in ("mat", "rhs", "slack_lo", "slack_hi", "all_cols"):
        assert_bits_equal(getattr(stepwise, field), getattr(at_once, field))
    assert stepwise.senses == at_once.senses
    scratch = NodeRows(at_once.mat, at_once.senses, at_once.rhs)
    for field in ("slack_lo", "slack_hi"):
        assert_bits_equal(getattr(stepwise, field), getattr(scratch, field))
    assert np.array_equal(stepwise.slack_int, at_once.slack_int)
    m = len(at_once.rhs)
    assert_bits_equal(at_once.all_cols, np.hstack([at_once.mat, np.eye(m)]))
    assert not at_once.slack_int[inst.num_rows:].any()
