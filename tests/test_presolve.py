"""Bound propagation and coefficient tightening."""
from __future__ import annotations

import json

import numpy as np
import pytest

from mipseries.model import LinearRow, MipInstance, Sense, load_instance
from mipseries.solver import (PRE_BOUND_TIGHTEN, PRE_COEF_TIGHTEN,
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
