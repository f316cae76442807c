"""Bound propagation and coefficient tightening."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mipseries.model import LinearRow, MipInstance, Sense, load_instance
from mipseries.solver import (PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN, BranchingRule,
                              SolveStatus, SolverConfig, run_presolve, solve)

from conftest import make_instance


def test_already_tight_binary_row():
    inst = make_instance("a", [1.0, 1.0], [([1.0, 1.0], Sense.LE, 1.0)],
                         [0, 0], [1, 1], ints=(0, 1))
    res = run_presolve(inst, SolverConfig())
    assert res.changes[PRE_BOUND_TIGHTEN] == 0
    assert not res.infeasible


def test_integer_bound_floor():
    # 2x <= 3, x integer with u=10 tightens to u=1
    inst = make_instance("b", [1.0], [([2.0], Sense.LE, 3.0)], [0], [10], ints=(0,))
    cfg = SolverConfig(enabled_presolvers=frozenset({PRE_BOUND_TIGHTEN}))
    res = run_presolve(inst, cfg)
    assert res.upper[0] == 1.0
    assert res.changes[PRE_BOUND_TIGHTEN] == 1


def test_disabled_rule_records_zero():
    inst = make_instance("c", [1.0], [([2.0], Sense.LE, 3.0)], [0], [10], ints=(0,))
    cfg = SolverConfig(enabled_presolvers=frozenset())
    res = run_presolve(inst, cfg)
    assert res.changes == {PRE_BOUND_TIGHTEN: 0, PRE_COEF_TIGHTEN: 0}
    assert res.upper[0] == 10.0


def test_coef_tighten_gcd_rhs():
    # 2x + 2y <= 3 with x,y integer: every integer point has even activity
    inst = make_instance("d", [1.0, 1.0], [([2.0, 2.0], Sense.LE, 3.0)],
                         [0, 0], [5, 5], ints=(0, 1))
    cfg = SolverConfig(enabled_presolvers=frozenset({PRE_COEF_TIGHTEN}))
    res = run_presolve(inst, cfg)
    assert res.changes[PRE_COEF_TIGHTEN] == 1
    assert res.rhs[0] == 2.0


def test_coef_tighten_skips_continuous_support():
    inst = make_instance("e", [1.0, 1.0], [([2.0, 2.0], Sense.LE, 3.0)],
                         [0, 0], [5, 5], ints=(0,))
    cfg = SolverConfig(enabled_presolvers=frozenset({PRE_COEF_TIGHTEN}))
    res = run_presolve(inst, cfg)
    assert res.changes[PRE_COEF_TIGHTEN] == 0
    assert res.rhs[0] == 3.0


def test_eq_row_gcd_infeasibility():
    # 2x + 4y == 3 has no integer solution
    inst = make_instance("f", [1.0, 1.0], [([2.0, 4.0], Sense.EQ, 3.0)],
                         [0, 0], [5, 5], ints=(0, 1))
    res = run_presolve(inst, SolverConfig())
    assert res.infeasible


def test_crossed_bounds_detected():
    # x >= 4 and 2x <= 3 force u < l for integer x
    inst = make_instance("g", [1.0], [([1.0], Sense.GE, 4.0), ([2.0], Sense.LE, 3.0)],
                         [0], [10], ints=(0,))
    res = run_presolve(inst, SolverConfig())
    assert res.infeasible


def test_propagation_runs_to_fixpoint():
    # x <= 3 and y <= x - 1 chain: y <= 2, then z <= y - 1 <= 1
    inst = make_instance(
        "h", [0.0, 0.0, 0.0],
        [([1.0, 0.0, 0.0], Sense.LE, 3.0),
         ([-1.0, 1.0, 0.0], Sense.LE, -1.0),
         ([0.0, -1.0, 1.0], Sense.LE, -1.0)],
        [0, 0, 0], [10, 10, 10], ints=(0, 1, 2))
    res = run_presolve(inst, SolverConfig())
    assert res.upper[0] == 3.0
    assert res.upper[1] == 2.0
    assert res.upper[2] == 1.0


def zero_term_instances(y_integer, tmp_path):
    """min -x - y subject to 2x + 0y <= 4, x integer and y in [0, 3], with
    the zero term, built in code and read from a file, and without it."""
    ints = frozenset({0, 1} if y_integer else {0})

    def built(coefs):
        return MipInstance("z", ("x", "y"), np.array([-1.0, -1.0]), np.zeros(2),
                           np.full(2, 3.0), ints, (LinearRow("r", coefs, Sense.LE, 4.0),))

    path = tmp_path / "z.json"
    path.write_text(json.dumps({
        "name": "z",
        "vars": [{"name": v, "lb": 0, "ub": 3, "integer": j in ints, "obj": -1}
                 for j, v in enumerate("xy")],
        "rows": [{"name": "r", "coefs": {"x": 2, "y": 0}, "sense": "LE", "rhs": 4}]}))
    return built(((0, 2.0), (1, 0.0))), load_instance(path), built(((0, 2.0),))


@pytest.mark.parametrize("y_integer", [False, True])
def test_zero_coefficient_presolves_like_a_missing_term(y_integer, tmp_path):
    # dividing the row slack by the zero coefficient would give a continuous
    # y an infinite bound (a feasible MIP reported INFEASIBLE) and make an
    # integer y raise OverflowError
    in_code, from_file, without = zero_term_instances(y_integer, tmp_path)
    assert [len(inst.rows[0].coefs) for inst in (in_code, from_file)] == [2, 2]
    want = run_presolve(without, SolverConfig())
    assert not want.infeasible and list(want.upper) == [2.0, 3.0]
    for inst in (in_code, from_file):
        res = run_presolve(inst, SolverConfig())
        assert not res.infeasible and res.changes == want.changes
        for field in ("lower", "upper", "rhs"):
            assert np.array_equal(getattr(res, field), getattr(want, field))
        out = solve(inst, SolverConfig(), 10.0)
        assert out.status is SolveStatus.OPTIMAL and out.primal_bound == -5.0


def test_an_implied_bound_beyond_float_range_tightens_nothing():
    # 1e10 / 1e-300 overflows to inf: x's implied upper bound is +inf, which
    # tightens nothing (math.floor of it would raise OverflowError)
    inst = make_instance("ovf", [-1.0, -1.0], [([1e-300, 1.0], Sense.LE, 1e10)],
                         [0, 0], [4, 4], ints=(0, 1))
    res = run_presolve(inst, SolverConfig())
    assert not res.infeasible and res.upper.tolist() == [4.0, 4.0]
    for rule in BranchingRule:
        out = solve(inst, SolverConfig(branching_rule=rule), 10.0)
        assert out.status is SolveStatus.OPTIMAL and out.primal_bound == -8.0


@pytest.mark.parametrize("sign, sense", [(1.0, Sense.LE), (-1.0, Sense.GE)])
def test_an_implied_bound_of_minus_infinity_proves_infeasibility(sign, sense):
    # 1e-300 x <= -1e10 (or its mirror) implies x <= -1e10 / 1e-300, which
    # overflows to -inf: below x's lower bound 0
    inst = make_instance("neg", [1.0], [([sign * 1e-300], sense, sign * -1e10)],
                         [0], [4], ints=(0,))
    assert run_presolve(inst, SolverConfig()).infeasible
    assert solve(inst, SolverConfig(), 10.0).status is SolveStatus.INFEASIBLE


def _fold(values) -> float:
    """The floats in `values` added left to right from 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def _loop_tighten_row_le(coefs, rhs, lower, upper, is_int) -> int:
    """Reference: propagate a <= row given as (column, coefficient) terms
    once, term by term on Python floats; returns the number of improved
    bounds."""
    changes = 0
    contrib_lo = []
    for j, a in coefs:
        lo = float(lower[j] if a > 0 else upper[j])
        contrib_lo.append(a * lo if math.isfinite(lo) else -math.inf)
    total = _fold(contrib_lo) if all(math.isfinite(v) for v in contrib_lo) else None
    for k, (j, a) in enumerate(coefs):
        if total is not None:
            rest = total - contrib_lo[k]
        else:
            vals = [v for i, v in enumerate(contrib_lo) if i != k]
            if any(not math.isfinite(v) for v in vals):
                continue
            rest = _fold(vals)
        slack = rhs - rest
        if a > 0:
            new_ub = slack / a
            if is_int[j] and math.isfinite(new_ub):
                new_ub = math.floor(new_ub + 1e-9)
            if new_ub < upper[j] - 1e-9:
                upper[j] = new_ub
                changes += 1
        else:
            new_lb = slack / a
            if is_int[j] and math.isfinite(new_lb):
                new_lb = math.ceil(new_lb - 1e-9)
            if new_lb > lower[j] + 1e-9:
                lower[j] = new_lb
                changes += 1
    return changes


def loop_presolve(inst, cfg):
    """Reference: the sparse-row presolve, which reads each row's
    `LinearRow.coefs` without its zero terms, sorted by column, and adds
    with `_fold`.  Returns (lower, upper, rhs, infeasible, changes)."""
    lower, upper = np.array(inst.lower), np.array(inst.upper)
    rhs = np.array([row.rhs for row in inst.rows], dtype=float)
    is_int = inst.is_integer()
    terms = [tuple((j, float(a)) for j, a in sorted(row.coefs) if a != 0.0)
             for row in inst.rows]
    changes = {PRE_BOUND_TIGHTEN: 0, PRE_COEF_TIGHTEN: 0}
    infeasible = False
    if PRE_COEF_TIGHTEN in cfg.enabled_presolvers:
        for i, (row, coefs) in enumerate(zip(inst.rows, terms)):
            if not coefs or not all(is_int[j] for j, _ in coefs):
                continue
            rounded = [round(a) for _, a in coefs]
            if any(abs(a - r) > 1e-9 or r == 0 for (_, a), r in zip(coefs, rounded)):
                continue
            g = 0
            for r in rounded:
                g = math.gcd(g, abs(int(r)))
            if g <= 1:
                continue
            b = rhs[i]
            if row.sense is Sense.LE:
                nb = g * math.floor(b / g + 1e-9)
                if nb < b - 1e-9:
                    rhs[i] = nb
                    changes[PRE_COEF_TIGHTEN] += 1
            elif row.sense is Sense.GE:
                nb = g * math.ceil(b / g - 1e-9)
                if nb > b + 1e-9:
                    rhs[i] = nb
                    changes[PRE_COEF_TIGHTEN] += 1
            elif abs(b / g - round(b / g)) > 1e-9:
                infeasible = True
                break
    if not infeasible and PRE_BOUND_TIGHTEN in cfg.enabled_presolvers:
        for _ in range(10):
            sweep = 0
            for i, (row, coefs) in enumerate(zip(inst.rows, terms)):
                if row.sense in (Sense.LE, Sense.EQ):
                    sweep += _loop_tighten_row_le(coefs, float(rhs[i]), lower, upper, is_int)
                if row.sense in (Sense.GE, Sense.EQ):
                    neg = tuple((j, -a) for j, a in coefs)
                    sweep += _loop_tighten_row_le(neg, -float(rhs[i]), lower, upper, is_int)
            changes[PRE_BOUND_TIGHTEN] += sweep
            if np.any(lower > upper + 1e-9):
                infeasible = True
                break
            if sweep == 0:
                break
    return lower, upper, rhs, infeasible, changes


# coefficients, rhs values and bounds that reach every branch of the rules:
# integral and fractional data, explicit zeros, overflowing and underflowing
# products, and infinite bounds
_COEFS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 4.0, -6.0, 0.5, -2.5, 1e-10,
          1e300, -1e300, 1e-300, -1e-300]
_RHS = [0.0, 1.0, -1.0, 3.0, 4.5, -2.0, 7.0, 1e10, -1e10, 1e300, 2.000000001]
_LOWER = [-math.inf, -1e300, -5.0, -1.5, 0.0, 0.25, 1.0]
_UPPER = [math.inf, 1e300, 6.0, 2.5, 1.0, 0.0, 3.0]


def random_presolve_instance(rng):
    """A random instance over the values above; rows list their terms in a
    random order, some with zero terms, under each sense."""
    n = int(rng.integers(1, 6))
    lower = rng.choice(_LOWER, size=n)
    upper = rng.choice(_UPPER, size=n)
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    ints = frozenset(np.flatnonzero(rng.random(n) < 0.6).tolist())
    rows = []
    for i in range(int(rng.integers(0, 5))):
        support = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        pool = _COEFS if rng.random() < 0.5 else _COEFS[:9]
        coefs = tuple((int(j), float(rng.choice(pool))) for j in support)
        sense = list(Sense)[rng.integers(3)]
        rows.append(LinearRow(f"r{i}", coefs, sense,
                              float(rng.choice(_RHS)) * rng.choice([1.0, -1.0])))
    return MipInstance("rand", tuple(f"x{j}" for j in range(n)), rng.normal(size=n),
                       lower, upper, ints, tuple(rows))


@pytest.mark.parametrize("presolvers", [
    frozenset({PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN}), frozenset({PRE_BOUND_TIGHTEN})],
    ids=["both", "bounds"])
def test_presolve_matches_the_sparse_row_loop_bit_for_bit(presolvers):
    # the dense rows, one <= list and array propagation give the sparse
    # loop's bounds, rhs, change counts and verdict, down to signed zeros
    rng = np.random.default_rng(36)
    cfg = SolverConfig(enabled_presolvers=presolvers)
    seen = {"infeasible": 0, "bound": 0, "coef": 0}
    for _ in range(1500):
        inst = random_presolve_instance(rng)
        with np.errstate(over="ignore"):
            lower, upper, rhs, infeasible, changes = loop_presolve(inst, cfg)
        res = run_presolve(inst, cfg)
        for got, want in ((res.lower, lower), (res.upper, upper), (res.rhs, rhs)):
            assert got.tobytes() == want.tobytes(), (inst.rows, got, want)
        assert (res.infeasible, res.changes) == (infeasible, changes), inst.rows
        seen["infeasible"] += infeasible
        seen["bound"] += changes[PRE_BOUND_TIGHTEN] > 0
        seen["coef"] += changes[PRE_COEF_TIGHTEN] > 0
    assert seen["infeasible"] > 300 and seen["bound"] > 500
    assert (seen["coef"] > 100) == (PRE_COEF_TIGHTEN in presolvers)
