"""Cut separation: toggle contracts, violation, brute-force validity, and
whole `generate_cuts` rounds against a per-row, per-column loop kept here as
reference."""
from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from mipseries.lp import (AT_LOWER, AT_UPPER, BASIC, FIXED, FREE, LpResult, LpStatus,
                          NodeRows, SimplexBasis)
from mipseries.model import DEFAULT_INT_TOL, LinearRow, Sense, dense_block
from mipseries.solver import (SEP_GOMORY, SolverConfig, SolveStatus, generate_cuts,
                              slack_integrality, solve)
from mipseries.solver import bb
from mipseries.solver import cuts as C

from conftest import (DET_WPS, enumerate_integer_points, lp_solve, make_instance,
                      random_feasible_mip, relaxation)


def _fractional_instance():
    # LP optimum (0, 1.125, 1.625) is fractional in two integer variables
    return make_instance("frak", [-3.0, -5.0, -4.0],
                         [([2.0, 3.0, 1.0], Sense.LE, 5.0),
                          ([4.0, 1.0, 3.0], Sense.LE, 6.0)],
                         [0, 0, 0], [10, 10, 10], ints=(0, 1, 2))


@pytest.mark.parametrize("coefs, rhs, ints, integral", [
    ([2.0, 3.0], 5.0, (0, 1), True),
    ([2.0 + 1e-10, -3.0], -5.0, (0, 1), True),
    ([2.0, 0.0], 5.0, (0,), True),
    ([2.0, 3.0], 4.5, (0, 1), False),
    ([2.0, 1.5], 5.0, (0, 1), False),
    ([2.0, 3.0], 5.0, (0,), False),
    ([0.0, 0.0], 0.0, (0, 1), False),
    # 1e-10 x0 lies within 1e-9 of the integer 0, but the slack 3 - 1e-10 x0
    # - 2 x1 is no integer at x0 = 1: a zero-rounding coefficient is not
    # integral (presolve's GCD rule takes the same view)
    ([1e-10, 2.0], 3.0, (0, 1), False),
])
def test_slack_integrality(coefs, rhs, ints, integral):
    is_int = np.isin(np.arange(2), ints)
    got = slack_integrality(np.array([coefs]), np.array([rhs]), is_int)
    assert got.tolist() == [integral]


def test_classic_half_integral_vertex_cut():
    # min -x-y s.t. 2x+2y <= 3 over binaries: the derived cut is x+y <= 1
    inst = make_instance("half", [-1.0, -1.0], [([2.0, 2.0], Sense.LE, 3.0)],
                         [0, 0], [1, 1], ints=(0, 1))
    cuts = generate_cuts(_optimal_relaxation(inst), inst.is_integer())
    assert len(cuts) == 1
    w0, w1 = cuts.mat[0][np.flatnonzero(cuts.mat[0])]
    assert w0 == pytest.approx(w1)
    assert cuts.rhs[0] / w0 == pytest.approx(1.0)   # scaled x + y <= 1
    assert cuts.senses == (Sense.GE,)


def _optimal_relaxation(inst):
    res = lp_solve(*relaxation(inst))
    assert res.status is LpStatus.OPTIMAL
    return res


def test_toggles_off_never_separate(monkeypatch):
    # the root/tree toggles are decided once, in bb._process_node: with both
    # off the separator is never called and no cut is counted
    def fail(*args):
        raise AssertionError("generate_cuts called with both cut toggles off")

    monkeypatch.setattr(bb, "generate_cuts", fail)
    cfg = SolverConfig(use_cuts_root=False, use_cuts_tree=False,
                       det_work_per_second=DET_WPS)
    out = solve(_fractional_instance(), cfg, 100.0)
    assert out.status is SolveStatus.OPTIMAL and out.stats.nodes > 1
    assert out.stats.separators[SEP_GOMORY].cuts_generated == 0


def test_integral_point_yields_no_cuts():
    inst = make_instance("int", [-1.0], [([1.0], Sense.LE, 2.0)], [0], [5], ints=(0,))
    assert len(generate_cuts(_optimal_relaxation(inst), inst.is_integer())) == 0


def test_no_cuts_from_a_result_that_is_not_optimal():
    inst = _fractional_instance()
    rows, lo, hi, cost = relaxation(inst)
    res = lp_solve(rows, lo, hi, cost, iter_limit=0)
    assert res.status is LpStatus.ITER_LIMIT
    cuts = generate_cuts(res, inst.is_integer())
    assert len(cuts) == 0 and cuts.mat.shape == (0, inst.num_vars)


def test_cuts_are_violated_by_lp_point():
    inst = _fractional_instance()
    res = _optimal_relaxation(inst)
    cuts = generate_cuts(res, inst.is_integer())
    assert cuts, "expected at least one cut at a fractional vertex"
    for w, cut_rhs in zip(cuts.mat, cuts.rhs):
        act = sum(w[j] * res.primal[j] for j in np.flatnonzero(w))
        assert act < cut_rhs - 1e-6


def _assert_cuts_valid(inst, cuts):
    points = enumerate_integer_points(inst)
    assert len(points), "test instance must have integer-feasible points"
    for i, (w, cut_rhs) in enumerate(zip(cuts.mat, cuts.rhs)):
        acts = points @ w
        assert np.all(acts >= cut_rhs - 1e-7), \
            f"cut {i} violated by an integer-feasible point"


def test_cut_validity_small_fixture():
    inst = _fractional_instance()
    cuts = generate_cuts(_optimal_relaxation(inst), inst.is_integer())
    _assert_cuts_valid(inst, cuts)


def test_cut_validity_random_instances():
    rng = np.random.default_rng(21)
    produced = 0
    for _ in range(40):
        inst = random_feasible_mip(rng, max_vars=6, max_rows=5)
        res = lp_solve(*relaxation(inst))
        if res.status is not LpStatus.OPTIMAL:
            continue
        cuts = generate_cuts(res, inst.is_integer())
        if cuts:
            produced += 1
            _assert_cuts_valid(inst, cuts)
    assert produced >= 5


def test_cut_validity_with_continuous_variables():
    # mixed instance: continuous variable in the row forces the mixed-integer
    # form; the cut must hold at every (integer, best-continuous) point
    inst = make_instance("mix", [-2.0, -3.0, 1.0],
                         [([3.0, 4.0, -1.0], Sense.LE, 6.0),
                          ([1.0, 3.0, 1.0], Sense.LE, 4.0)],
                         [0, 0, 0], [4, 4, 10], ints=(0, 1))
    cuts = generate_cuts(_optimal_relaxation(inst), inst.is_integer())
    mat, rhs = inst.dense_matrix(), inst.rhs_array()
    # validity over a grid of integer assignments x continuous samples
    for x0 in range(5):
        for x1 in range(5):
            for x2 in np.linspace(0, 10, 21):
                point = np.array([x0, x1, x2], dtype=float)
                acts = mat @ point
                if np.any(acts > rhs + 1e-9):
                    continue
                for w, cut_rhs in zip(cuts.mat, cuts.rhs):
                    assert float(w @ point) >= cut_rhs - 1e-7


# ---------------------------------------------------------------------------
# Whole rounds of the numpy GMI derivation against the row and column loops
# it replaced
# ---------------------------------------------------------------------------

# Why `loop_gmi_from_row` gave no cut for a non-finite row, counted: its
# basic value, an integral coefficient, or the cut itself was not finite.
NONFINITE = Counter()


def loop_gmi_from_row(snap, r, is_int, row_matrix, row_rhs, slack_int):
    """Reference: one cut (w, rhs) from tableau row r, column by column, or
    None.  `snap` holds the tableau `tab`, the statuses `stat`, the bounds
    `lo` and `hi` of every column (slacks last), the basic values `beta` and
    the structural column count `n_struct`.  A non-finite basic value, a
    non-finite integral coefficient or a cut with a non-finite entry or rhs
    gives no cut."""
    n = snap.n_struct
    b0 = snap.beta[r]
    if not math.isfinite(b0):
        NONFINITE["basic"] += 1
        return None
    f0 = b0 - math.floor(b0)
    if f0 < C.MIN_FRACTIONALITY or f0 > 1.0 - C.MIN_FRACTIONALITY:
        return None

    w = np.zeros(n)
    const = 0.0
    for j in range(snap.tab.shape[1]):
        st = snap.stat[j]
        if st == BASIC or st == FIXED:
            continue
        a = snap.tab[r, j]
        if abs(a) <= C.ZERO_COEF:
            continue
        if st == FREE:
            return None
        if st == AT_LOWER:
            shift = snap.lo[j]
            coef = a
        else:  # AT_UPPER
            shift = snap.hi[j]
            coef = -a
        if not math.isfinite(shift):
            return None

        if j < n:
            integral = bool(is_int[j]) and abs(shift - round(shift)) <= 1e-9
        else:
            integral = bool(slack_int[j - n])

        if integral:
            if not math.isfinite(coef):
                NONFINITE["coef"] += 1
                return None
            fj = coef - math.floor(coef)
            gamma = fj / f0 if fj <= f0 else (1.0 - fj) / (1.0 - f0)
        else:
            gamma = coef / f0 if coef > 0 else -coef / (1.0 - f0)
        if gamma == 0.0:
            continue

        if j < n:
            if st == AT_LOWER:
                w[j] += gamma
                const -= gamma * shift
            else:
                w[j] -= gamma
                const += gamma * shift
        else:
            k = j - n
            if st == AT_LOWER:
                w -= gamma * row_matrix[k]
                const += gamma * row_rhs[k]
            else:
                w += gamma * row_matrix[k]
                const -= gamma * row_rhs[k]

    rhs = 1.0 - const
    if not (np.isfinite(w).all() and math.isfinite(rhs)):
        NONFINITE["cut"] += 1
        return None
    w[np.abs(w) <= C.ZERO_COEF] = 0.0
    nz = np.abs(w[w != 0.0])
    if len(nz) == 0:
        return None
    if nz.max() / nz.min() > C.MAX_DYNAMISM:
        return None
    return w, rhs


def loop_generate_cuts(snap, x, is_int):
    """Reference: one round of cuts, row by row in basis order with the
    per-round cap, each row's cut from `loop_gmi_from_row` and kept when it
    cuts `x` off.  `snap` also holds the basis `basis` and the rows `rows`."""
    n = snap.n_struct
    rows = snap.rows
    ws, rhss = [], []
    for r, j0 in enumerate(snap.basis.tolist()):
        if len(ws) >= C.MAX_CUTS_PER_ROUND:
            break
        if j0 >= n or not is_int[j0]:
            continue
        # a non-finite value's fractional part is NaN, in neither band below
        frac = x[j0] - math.floor(x[j0]) if math.isfinite(x[j0]) else math.nan
        if frac <= DEFAULT_INT_TOL or frac >= 1.0 - DEFAULT_INT_TOL:
            continue
        derived = loop_gmi_from_row(snap, r, is_int, rows.mat, rows.rhs, rows.slack_int)
        if derived is None:
            continue
        w, rhs = derived
        if float(w @ x) >= rhs - C.MIN_VIOLATION:
            continue
        ws.append(w)
        rhss.append(rhs)
    return np.array(ws) if ws else np.zeros((0, n)), np.array(rhss, dtype=float)


def _bits(a):
    """The IEEE bit patterns, with every NaN mapped to one pattern."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


def _assert_same_round(got, want):
    """The `CutBlock` `got` is the reference round `want`, (mat, rhs), bit
    for bit."""
    assert got.mat.shape == want[0].shape
    assert np.array_equal(_bits(got.mat), _bits(want[0]))
    assert np.array_equal(_bits(got.rhs), _bits(want[1]))


def _random_snapshot(rng, nonfinite=False):
    """A tableau state with every column status, integral and fractional
    shifts, infinite shifts, integral coefficients (zero gammas), tiny and
    signed-zero entries, and slack rows over 16 orders of magnitude; with
    `nonfinite`, NaN and infinite entries and basic values too.

    Returns (result, snap, is_int): `result` is an OPTIMAL `LpResult` that
    ended in this state, `snap` holds the same state for
    `loop_generate_cuts`."""
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 8))
    ncol = n + m
    tab = rng.standard_normal((m, ncol)) * 10.0 ** rng.integers(-6, 4, (m, ncol))
    u = rng.random((m, ncol))
    tab[u < 0.15] = rng.integers(-3, 4, (m, ncol))[u < 0.15]   # integral: zero gammas
    tab[(u >= 0.15) & (u < 0.22)] = 0.0
    tab[(u >= 0.22) & (u < 0.27)] = -0.0
    tab[(u >= 0.27) & (u < 0.32)] = 1e-12
    if nonfinite:
        v = rng.random((m, ncol))
        tab[v < 0.05] = np.nan
        tab[v > 0.95] = rng.choice([np.inf, -np.inf])
    basis = rng.choice(ncol, size=m, replace=False)
    p_free = 0.1 if rng.random() < 0.3 else 0.0
    stat = rng.choice([AT_LOWER, AT_UPPER, FIXED, FREE], size=ncol,
                      p=[0.5 - p_free / 2, 0.3 - p_free / 2, 0.2, p_free]).astype(np.int8)
    stat[basis] = BASIC
    lo = rng.integers(-3, 3, n).astype(float)
    frac = rng.random(n)
    lo[frac < 0.25] += 0.5
    lo[(frac >= 0.25) & (frac < 0.35)] += 1e-10   # integral within 1e-9
    lo[frac > 0.97] = -0.0
    hi = lo + rng.integers(0, 4, n)
    st = stat[:n]
    hi[st == FIXED] = lo[st == FIXED]
    inf_shift = rng.random(n) < 0.04
    lo[inf_shift & (st == AT_LOWER)] = -np.inf
    hi[inf_shift & (st == AT_UPPER)] = np.inf
    lo[st == FREE], hi[st == FREE] = -np.inf, np.inf
    beta = rng.integers(-4, 5, m) + rng.random(m)
    beta[rng.random(m) < 0.15] = np.round(beta[0]) + 1e-6   # below MIN_FRACTIONALITY
    if nonfinite:
        beta[rng.random(m) < 0.03] = rng.choice([np.nan, np.inf, -np.inf])
    row_matrix = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 9, (m, n))
    row_matrix[rng.random((m, n)) < 0.3] = 0.0
    row_rhs = rng.standard_normal(m) * 10.0 ** rng.integers(-4, 5, m)
    row_rhs[rng.random(m) < 0.3] = rng.integers(-5, 6)
    senses = [(Sense.LE, Sense.GE, Sense.EQ)[k] for k in rng.integers(0, 3, m)]
    rows = NodeRows(row_matrix, senses, row_rhs, rng.random(m) < 0.5)
    # A nonbasic slack mostly rests at its finite bound (0); 4% of them at
    # the infinite one, which stops a derivation.
    ss = stat[n:]
    finite_side = np.where(rows.slack_lo == 0.0, AT_LOWER, AT_UPPER)
    moved = ((ss == AT_LOWER) | (ss == AT_UPPER)) & (rng.random(m) >= 0.04)
    ss[moved] = finite_side[moved]
    # the point a solve reports: nonbasic columns at their bound, basic at beta
    x = np.where(st == AT_UPPER, hi, lo)
    x[(st == BASIC) | (st == FREE)] = 0.0
    struct_rows = basis < n
    x[basis[struct_rows]] = beta[struct_rows]
    # an integer basic column makes its row a candidate
    is_int = rng.random(n) < np.where(np.isin(np.arange(n), basis), 0.9, 0.6)
    token = SimplexBasis(basis, stat, tab, beta.copy(), 0, rows)
    snap = SimpleNamespace(tab=tab, stat=stat, beta=beta, n_struct=n, rows=rows,
                           basis=basis, lo=np.concatenate([lo, rows.slack_lo]),
                           hi=np.concatenate([hi, rows.slack_hi]))
    return LpResult(LpStatus.OPTIMAL, x, 0.0, token, 0, None), snap, is_int


# Random states seldom cut their own point off; with no violation asked for
# (-inf), every cut derived is kept, so every derivation is compared.
# (MIN_VIOLATION, least cuts the 1500 rounds must make; they make 444 and 600)
VIOLATIONS = [(C.MIN_VIOLATION, 400), (-np.inf, 550)]


def _slack_kinds(snap):
    """The LE slacks, GE slacks and nonbasic slacks at an infinite bound
    of a snapshot, counted."""
    rows, ss = snap.rows, snap.stat[snap.n_struct:]
    at_inf = (((ss == AT_LOWER) & (rows.slack_lo == -np.inf))
              | ((ss == AT_UPPER) & (rows.slack_hi == np.inf)))
    return np.array([np.sum(rows.slack_hi == np.inf), np.sum(rows.slack_lo == -np.inf),
                     np.sum(at_inf)])


def test_gmi_matches_column_loop_on_random_snapshots(monkeypatch):
    for min_violation, min_cuts in VIOLATIONS:
        monkeypatch.setattr(C, "MIN_VIOLATION", min_violation)
        rng = np.random.default_rng(31)
        cuts = empty = 0
        kinds = np.zeros(3, dtype=int)
        with np.errstate(invalid="ignore"):   # w . x at infinite shifts
            for _ in range(1500):
                result, snap, is_int = _random_snapshot(rng)
                want = loop_generate_cuts(snap, result.primal, is_int)
                _assert_same_round(generate_cuts(result, is_int), want)
                cuts += len(want[1])
                empty += not len(want[1])
                kinds += _slack_kinds(snap)
        assert cuts > min_cuts and empty > 300
        # they read 1979, 1956 and 32
        le, ge, at_inf = kinds.tolist()
        assert le > 1700 and ge > 1700 and at_inf > 25


def loop_columns(token, primal, is_int):
    """Reference: `_Columns.of`'s column data, one column at a time."""
    rows, n = token.rows, token.rows.n
    out = {name: [] for name in ("nonbasic", "at_lower", "shift", "stop", "integral")}
    for j, st in enumerate(token.stat.tolist()):
        at_lower = st == AT_LOWER
        if j < n:
            shift = float(primal[j])
            integral = bool(is_int[j]) and math.isfinite(shift) \
                and abs(shift - round(shift)) <= 1e-9
        else:
            shift = float(rows.slack_lo[j - n] if at_lower else rows.slack_hi[j - n])
            integral = bool(rows.slack_int[j - n])
        out["nonbasic"].append(st != BASIC and st != FIXED)
        out["at_lower"].append(at_lower)
        out["shift"].append(shift)
        out["stop"].append(st == FREE or not math.isfinite(shift))
        out["integral"].append(integral)
    return out


def test_column_data_matches_column_loop_with_signed_zeros_and_nonfinite_points():
    rng = np.random.default_rng(34)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2.0, -3.0, 0.5, 1e-10])
    for _ in range(300):
        result, _, is_int = _random_snapshot(rng, nonfinite=rng.random() < 0.5)
        x = result.primal.copy()
        pick = rng.random(len(x)) < 0.4
        x[pick] = rng.choice(specials, int(pick.sum()))
        with np.errstate(invalid="ignore"):
            got = C._Columns.of(result.basis, x, is_int)
        want = loop_columns(result.basis, x, is_int)
        for name in ("nonbasic", "at_lower", "stop", "integral"):
            assert getattr(got, name).tolist() == want[name], name
        assert np.array_equal(_bits(got.shift), _bits(want["shift"]))


def test_gmi_nonfinite_rows_give_no_cut_like_the_loop(monkeypatch):
    for min_violation, _ in VIOLATIONS:
        monkeypatch.setattr(C, "MIN_VIOLATION", min_violation)
        rng = np.random.default_rng(32)
        NONFINITE.clear()
        cuts = 0
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(1500):
                result, snap, is_int = _random_snapshot(rng, True)
                want = loop_generate_cuts(snap, result.primal, is_int)
                got = generate_cuts(result, is_int)
                _assert_same_round(got, want)
                assert np.isfinite(got.mat).all() and np.isfinite(got.rhs).all()
                cuts += len(got)
        # every kind of non-finite row occurs, and finite rows still cut:
        # each pass meets 91 non-finite basic values, 377 non-finite
        # integral coefficients and 332 non-finite cuts; the two passes
        # make 316 and 403 cuts
        assert min(NONFINITE[kind] for kind in ("basic", "coef", "cut")) > 20, NONFINITE
        assert cuts > 100


def _capped_round(nonfinite_row, value):
    """An OPTIMAL result with 25 tableau rows, each basic in an integer
    column at 0.5 and cut off by its cut 0.6 x_25 + (i + 1)/32 x_26 >= 1 (row
    i), but row `nonfinite_row`, which has the coefficient `value` on the
    integer column 27 as well; and the loop reference's state for it."""
    m, n = 25, 30
    tab = np.zeros((m, n + m))
    tab[np.arange(m), np.arange(m)] = 1.0
    tab[:, 25] = 0.3
    tab[:, 26] = (np.arange(m) + 1) / 64
    tab[nonfinite_row, 27] = value
    basis = np.arange(m)
    stat = np.full(n + m, AT_LOWER, dtype=np.int8)
    stat[basis] = BASIC
    rows = NodeRows(np.ones((m, n)), (Sense.LE,) * m, np.full(m, 20.0))
    x = np.concatenate([np.full(m, 0.5), np.zeros(n - m)])
    lo, hi = np.zeros(n), np.ones(n)
    token = SimplexBasis(basis, stat, tab, x[:m].copy(), 0, rows)
    snap = SimpleNamespace(tab=tab, stat=stat, beta=x[:m].copy(), n_struct=n, rows=rows,
                           basis=basis, lo=np.concatenate([lo, rows.slack_lo]),
                           hi=np.concatenate([hi, rows.slack_hi]))
    return LpResult(LpStatus.OPTIMAL, x, 0.0, token, 0, None), snap


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_nonfinite_row_gives_no_cut_before_or_after_the_cap(value):
    is_int = np.ones(30, dtype=bool)
    # row 20 is the first row after the 20th cut (rows 0-19): the round
    # stops there; row 5 comes before it, and row 20 cuts in its place
    for nonfinite_row, cut_rows in ((20, list(range(20))),
                                    (5, [*range(5), *range(6, 21)])):
        result, snap = _capped_round(nonfinite_row, value)
        want = loop_generate_cuts(snap, result.primal, is_int)
        got = generate_cuts(result, is_int)
        _assert_same_round(got, want)
        assert (got.mat[:, 26] * 32 - 1).tolist() == cut_rows


_SLACK_BOUNDS = {Sense.LE: (0.0, np.inf), Sense.GE: (-np.inf, 0.0), Sense.EQ: (0.0, 0.0)}


def _loop_state(inst, token):
    """The loop's state for a solve of the relaxation of `inst` that ended in
    `token`, with nothing read from the solve's point: the bounds are the
    instance's and the slack bounds of its senses, and beta is B^-1 b less
    the tableau's nonbasic columns times their bounds, column by column."""
    slo, shi = zip(*(_SLACK_BOUNDS[s] for s in inst.senses()))
    lo = np.concatenate([inst.lower, slo])
    hi = np.concatenate([inst.upper, shi])
    stat = token.stat
    vals = np.where(stat == AT_UPPER, hi, lo)
    vals[(stat == BASIC) | (stat == FREE)] = 0.0
    beta = token.rhs.copy()
    for j in np.flatnonzero(vals):
        beta = beta - vals[j] * token.tab[:, j]
    return SimpleNamespace(tab=token.tab, stat=stat, lo=lo, hi=hi, beta=beta,
                           n_struct=inst.num_vars)


def test_generate_cuts_matches_column_loop_on_solved_instances():
    # real tableaus: the block equals the loop's cuts, and turning each cut
    # into sparse coefficients and back (as cut rows once were) loses no bit
    rng = np.random.default_rng(33)
    produced = 0
    for _ in range(60):
        inst = random_feasible_mip(rng, max_vars=8, max_rows=6)
        res = lp_solve(*relaxation(inst))
        if res.status is not LpStatus.OPTIMAL:
            continue
        is_int = inst.is_integer()
        mat, rhs = inst.dense_matrix(), inst.rhs_array()
        slack_int = slack_integrality(mat, rhs, is_int)
        snap = _loop_state(inst, res.basis)
        struct = res.basis.basis < inst.num_vars
        assert np.array_equal(_bits(snap.beta[struct]),
                              _bits(res.primal[res.basis.basis[struct]]))

        snap.basis, snap.rows = res.basis.basis, res.basis.rows
        assert np.array_equal(snap.rows.slack_int, slack_int)

        block = generate_cuts(res, is_int)
        _assert_same_round(block, loop_generate_cuts(snap, res.primal, is_int))
        assert block.mat.shape == (len(block), inst.num_vars)
        rows = [LinearRow("c", tuple((int(j), float(w[j])) for j in np.nonzero(w)[0]),
                          Sense.GE, float(b)) for w, b in zip(block.mat, block.rhs)]
        assert np.array_equal(_bits(dense_block(rows, inst.num_vars)), _bits(block.mat))
        produced += len(block)
    assert produced >= 20
