"""Instance/series loading, validation, feasibility and the series generator."""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from mipseries import model
from mipseries.model import (INF, Component, FeasibilityResult, InstanceError,
                             LinearRow, MipInstance, Sense, SeriesError,
                             SeriesManifest, Violation, check_feasibility,
                             generate_series_files, instance_from_dict,
                             load_instance, load_series, objective_value,
                             perturb_series, save_instance)
from mipseries.solver import SolverConfig, SolveStatus, solve

from conftest import (MALFORMED_INSTANCES, MALFORMED_MANIFESTS, MINIMAL, hard_knapsack,
                      instance_dict, make_instance, malformed_instance, same_data)


def test_minimal_instance_roundtrip(tmp_path):
    inst = instance_from_dict(MINIMAL)
    assert inst.num_vars == 1 and inst.num_rows == 1
    assert inst.integer_mask == frozenset({0})
    path = tmp_path / "mini.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert same_data(again, inst)


def test_unknown_variable_in_row():
    bad = json.loads(json.dumps(MINIMAL))
    bad["rows"][0]["coefs"] = {"y": 1.0}
    with pytest.raises(InstanceError, match="unknown variable"):
        instance_from_dict(bad)


def test_crossed_bounds():
    bad = json.loads(json.dumps(MINIMAL))
    bad["vars"][0]["lb"] = 3
    bad["vars"][0]["ub"] = 1
    with pytest.raises(InstanceError, match=re.escape("variable 'x': crossed bounds (lb=3.0")):
        instance_from_dict(bad)


def test_integer_bounds_without_an_integer_are_reported_as_given():
    message = re.escape("variable 'x0': no integer value in [0.2, 0.8]")
    with pytest.raises(InstanceError, match=message):
        make_instance("f", [1.0], [], [0.2], [0.8], ints=(0,))
    with pytest.raises(InstanceError, match=message):
        instance_from_dict(instance_dict("f", [1.0], [], [0.2], [0.8], ints=(0,)))
    # crossed bounds are reported before any rounding
    with pytest.raises(InstanceError, match=re.escape("crossed bounds (lb=0.8 > ub=0.2)")):
        make_instance("f", [1.0], [], [0.8], [0.2], ints=(0,))
    # the same bounds on a continuous column are fine
    assert make_instance("f", [1.0], [], [0.2], [0.8]).lower[0] == 0.2


def test_duplicate_names_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["vars"].append(dict(bad["vars"][0]))
    with pytest.raises(InstanceError, match="duplicate"):
        instance_from_dict(bad)


def test_maximization_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["objective_sense"] = "max"
    with pytest.raises(InstanceError, match="minimization only"):
        instance_from_dict(bad)


def test_infinite_bounds_parse():
    data = json.loads(json.dumps(MINIMAL))
    data["vars"][0].update({"lb": "-inf", "ub": "inf", "integer": False})
    inst = instance_from_dict(data)
    assert inst.lower[0] == -np.inf and inst.upper[0] == np.inf


def test_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"name\": ,\n}")
    with pytest.raises(InstanceError, match="line 2"):
        load_instance(path)


def test_integer_too_long_to_parse_names_the_file(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(MINIMAL).replace('"obj": 1.0', '"obj": 1' + "0" * 5000))
    with pytest.raises(InstanceError, match="digits") as info:
        load_instance(path)
    assert str(info.value).startswith(f"{path}: ")


def test_integer_bounds_normalized():
    data = json.loads(json.dumps(MINIMAL))
    data["vars"][0].update({"lb": 0.4, "ub": 9.7})
    inst = instance_from_dict(data)
    assert inst.lower[0] == 1.0 and inst.upper[0] == 9.0


def test_integer_bounds_rounded_in_code_as_in_a_file(tmp_path):
    # the integer variable's [0.2, 2.7] becomes [1, 2]; the continuous one keeps its own
    args = ("r", [1.0, 1.0], [([1.0, 1.0], Sense.LE, 3.0)], [0.2, 0.2], [2.7, 2.7], (0,))
    built = make_instance(*args)
    assert built.lower.tolist() == [1.0, 0.2] and built.upper.tolist() == [2.0, 2.7]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(instance_dict(*args)))
    assert same_data(load_instance(path), built)
    # the rounding writes into a copy: the caller's array keeps its values and stays writable
    lo = np.array([0.2, 0.2])
    cost = np.array([1.0, 1.0])
    inst = MipInstance("r", ("x0", "x1"), cost, lo, [2.7, 2.7], frozenset({0}), ())
    assert lo.tolist() == [0.2, 0.2] and lo.flags.writeable
    # the costs too: the instance neither freezes nor shares the caller's array
    assert cost.flags.writeable and not np.shares_memory(cost, inst.objective)
    cost[0] = 5.0
    assert inst.objective.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("lb", [0, 0.0, -0.0, -0.5, 1e-10])
def test_integer_lower_bound_of_zero_stays_positive_zero(tmp_path, lb):
    inst = make_instance("z", [1.0], [], [lb], [3.0], ints=(0,))
    assert inst.lower[0] == 0.0 and not np.signbit(inst.lower[0])
    save_instance(inst, tmp_path / "z.json")
    assert '"lb": 0.0' in (tmp_path / "z.json").read_text()


def test_check_feasibility_cases():
    inst = instance_from_dict(MINIMAL)
    assert check_feasibility(inst, [2.0]).feasible
    assert objective_value(inst, [2.0]) == 2.0

    res = check_feasibility(inst, [1.5])
    assert not res.feasible
    assert res.violation.kind == "integrality" and res.violation.index == 0

    # violation below tolerance passes
    inst2 = make_instance("t", [1.0], [([1.0], Sense.LE, 1.0)], [0], [2])
    assert check_feasibility(inst2, [1.0 + 1e-9], feas_tol=1e-6).feasible
    res = check_feasibility(inst2, [1.1])
    assert not res.feasible and res.violation.kind == "row"


@pytest.mark.parametrize("point, index, amount", [
    ([1.0, np.nan, 0.0], 1, INF), ([1.0, 1.0, np.nan], 2, INF), ([1.0, 1.0, np.inf], 2, INF),
    ([1.0, 9.0, np.nan], 1, 6.0)])
def test_non_finite_entries_violate_their_bounds(point, index, amount):
    # x integer in [0, 3], y in [0, 3], z in [0, inf), x + y <= 4: every
    # comparison with NaN is false, and inf is within z's bounds, yet none of
    # these points is feasible.  A non-finite entry is a bound violation by
    # inf, found in index order with the other bound violations.
    inst = make_instance("nf", [1.0, 1.0, 1.0], [([1.0, 1.0, 0.0], Sense.LE, 4.0)],
                         [0, 0, 0], [3, 3, np.inf], ints=(0,))
    res = check_feasibility(inst, point)
    assert res == FeasibilityResult(False, Violation("bound", index, amount))
    assert loop_check_feasibility(inst, point) == res


def loop_check_feasibility(inst, point, feas_tol=1e-6, int_tol=1e-6):
    """check_feasibility as a plain loop over columns and rows; a row's
    terms are summed in column order."""
    point = np.asarray(point, dtype=float)
    for j in range(inst.num_vars):
        if not math.isfinite(point[j]):
            return FeasibilityResult(False, Violation("bound", j, INF))
        if point[j] < inst.lower[j] - feas_tol:
            return FeasibilityResult(False, Violation("bound", j, float(inst.lower[j] - point[j])))
        if point[j] > inst.upper[j] + feas_tol:
            return FeasibilityResult(False, Violation("bound", j, float(point[j] - inst.upper[j])))
    for j in sorted(inst.integer_mask):
        frac = abs(point[j] - round(point[j]))
        if frac > int_tol:
            return FeasibilityResult(False, Violation("integrality", j, float(frac)))
    for i, row in enumerate(inst.rows):
        act = float(sum(c * point[j] for j, c in sorted(row.coefs)))
        if row.sense is Sense.LE and act > row.rhs + feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(act - row.rhs)))
        if row.sense is Sense.GE and act < row.rhs - feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(row.rhs - act)))
        if row.sense is Sense.EQ and abs(act - row.rhs) > feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(abs(act - row.rhs))))
    return FeasibilityResult(True)


def _random_rows_instance(rng, k):
    """Rows with unsorted distinct indices, empty rows, all three senses;
    some columns free or half-bounded, about half of them integer."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 7))
    lo = rng.choice([0.0, -2.0, -INF], n)
    hi = np.maximum(lo, rng.choice([1.0, 3.0, 0.0, INF], n))
    rows = []
    for i in range(m):
        size = int(rng.integers(0, n + 1))
        coefs = tuple((int(j), float(c)) for j, c in
                      zip(rng.permutation(n)[:size], rng.normal(0.0, 1e3 ** rng.random(), size)))
        sense = (Sense.LE, Sense.GE, Sense.EQ)[int(rng.integers(0, 3))]
        rows.append(LinearRow(f"r{i}", coefs, sense, float(rng.normal(0.0, 5.0))))
    ints = frozenset(int(j) for j in np.nonzero(rng.random(n) < 0.5)[0])
    return MipInstance(f"f{k}", tuple(f"x{j}" for j in range(n)), rng.normal(size=n),
                       lo, hi, ints, tuple(rows))


def _random_point(rng, inst):
    x = np.clip(rng.normal(0.0, 2.0, inst.num_vars), inst.lower, inst.upper)
    ints = sorted(inst.integer_mask)
    x[ints] = np.round(x[ints])
    for j in ints:
        if rng.random() < 0.2:
            x[j] += rng.choice([0.5, 1e-7, -3e-6])       # fractional or nearly integral
    if rng.random() < 0.2:
        j = int(rng.integers(0, inst.num_vars))
        x[j] = rng.choice([inst.lower[j] - 1e-3, inst.upper[j] + 2e-7, -0.0, np.nan])
    return x


def test_check_feasibility_matches_loop_on_random_points():
    rng = np.random.default_rng(19)
    kinds = set()
    for k in range(400):
        inst = _random_rows_instance(rng, k)
        for _ in range(5):
            x = _random_point(rng, inst)
            for tol in (1e-6, 1e-2):
                want = loop_check_feasibility(inst, x, feas_tol=tol, int_tol=tol)
                got = check_feasibility(inst, x, feas_tol=tol, int_tol=tol)
                assert got.feasible == want.feasible
                if want.feasible:
                    kinds.add("feasible")
                    continue
                g, w = got.violation, want.violation
                assert (g.kind, g.index) == (w.kind, w.index)
                assert np.array_equal(np.float64(g.amount), np.float64(w.amount))
                kinds.add(w.kind)
    assert kinds == {"bound", "integrality", "row", "feasible"}


def test_feasibility_dimension_mismatch():
    inst = instance_from_dict(MINIMAL)
    with pytest.raises(ValueError):
        check_feasibility(inst, [1.0, 2.0])
    with pytest.raises(ValueError):
        objective_value(inst, [1.0, 2.0])


def test_objective_value_examples():
    inst = make_instance("o", [1.0, 2.0], [], [0, 0], [10, 10])
    assert objective_value(inst, [3.0, 4.0]) == 11.0
    zero = make_instance("z", [0.0, 0.0], [], [0, 0], [10, 10])
    assert objective_value(zero, [5.0, 7.0]) == 0.0
    neg = make_instance("n", [-1.0], [], [0], [10])
    assert objective_value(neg, [5.0]) == -5.0


def test_load_series_and_validation(tmp_path):
    inst = instance_from_dict(MINIMAL)
    for i in range(3):
        save_instance(inst, tmp_path / f"i{i}.json")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "series_name": "s", "time_limit": 60.0, "changing": ["RHS"],
        "instances": [f"i{i}.json" for i in range(3)]}))
    manifest = load_series(manifest_path)
    assert len(manifest) == 3
    assert manifest.time_limit_per_instance == 60.0
    assert manifest.changing_components == frozenset({Component.RHS})

    # renamed variable in one instance -> mismatch
    other = json.loads(json.dumps(MINIMAL))
    other["vars"][0]["name"] = "y"
    other["rows"][0]["coefs"] = {"y": 1.0}
    (tmp_path / "i1.json").write_text(json.dumps(other))
    with pytest.raises(SeriesError, match="variable set mismatch"):
        load_series(manifest_path)


def test_series_files_are_parsed_once(tmp_path, monkeypatch):
    inst = instance_from_dict(MINIMAL)
    save_instance(inst, tmp_path / "i.json")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "series_name": "s", "time_limit": 60.0, "changing": ["RHS"],
        "instances": ["i.json", "i.json"]}))
    parsed = []
    monkeypatch.setattr(model, "load_instance",
                        lambda path: parsed.append(path) or load_instance(path))
    manifest = load_series(manifest_path)
    assert len(parsed) == 2
    first, second = manifest.load(0), manifest.load(1)
    assert list(manifest.instances()) == [first, second]
    assert manifest.load(0) is first and len(parsed) == 2
    assert same_data(first, inst)
    # a manifest built directly parses each file on its first use
    direct = SeriesManifest("s", manifest.instance_paths, 60.0, frozenset({Component.RHS}))
    assert len(parsed) == 2
    assert same_data(direct.load(1), inst) and len(parsed) == 3
    assert direct.load(1) is direct.load(1) and len(parsed) == 3


def test_empty_series_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"series_name": "s", "time_limit": 10,
                                "changing": ["RHS"], "instances": []}))
    with pytest.raises(SeriesError, match="empty series"):
        load_series(path)


def test_missing_instance_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"series_name": "s", "time_limit": 10,
                                "changing": ["RHS"], "instances": ["nope.json"]}))
    with pytest.raises(SeriesError, match="missing instance"):
        load_series(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_malformed_instance_field_is_instance_error(tmp_path, case):
    edit, message = MALFORMED_INSTANCES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(malformed_instance(edit)))
    with pytest.raises(InstanceError, match=message) as info:
        load_instance(path)
    assert str(info.value).startswith(str(path))


_BUILT = dict(c=[1.0, -1.0], rows=[([1.0, 1.0], Sense.LE, 3.0)], lo=[0.0, 0.0],
              hi=[2.0, 2.0])


@pytest.mark.parametrize("field, value, message", [
    ("c", [-INF, 1.0], "objective coefficient of 'x0' is not finite: -inf"),
    ("c", [1.0, float("nan")], "objective coefficient of 'x1' is not finite: nan"),
    ("rows", [([1.0, 1.0], Sense.LE, float("nan"))], "row 'r0': rhs is not finite: nan"),
    ("rows", [([1.0, 1.0], Sense.GE, INF)], "row 'r0': rhs is not finite: inf"),
    ("rows", [([1.0, -INF], Sense.LE, 3.0)],
     "row 'r0': coefficient of 'x1' is not finite: -inf"),
    ("rows", [([float("nan"), 1.0], Sense.LE, 3.0)],
     "row 'r0': coefficient of 'x0' is not finite: nan"),
    ("lo", [float("nan"), 0.0], "variable 'x0': bad lower bound nan"),
    ("hi", [2.0, float("nan")], "variable 'x1': bad upper bound nan"),
    ("lo", [INF, 0.0], "variable 'x0': bad lower bound inf"),
    ("hi", [2.0, -INF], "variable 'x1': bad upper bound -inf"),
])
def test_instance_built_in_code_rejects_nonfinite_data(tmp_path, field, value, message):
    # MipInstance is the one validator: the same data in a file gets the
    # same message, prefixed with the file's path
    kw = {**_BUILT, field: value}
    args = ("built", kw["c"], kw["rows"], kw["lo"], kw["hi"], (0, 1))
    with pytest.raises(InstanceError) as built:
        make_instance(*args)
    assert str(built.value) == f"built: {message}"
    path = tmp_path / "built.json"
    path.write_text(json.dumps(instance_dict(*args)))
    with pytest.raises(InstanceError) as loaded:
        load_instance(path)
    assert str(loaded.value) == f"{path}: {built.value}"


def _two_integers(sense, rhs, c):
    """x, y integer in [0, 3] with the one row x + y (sense) rhs, the
    sense given as a plain string."""
    row = LinearRow("r", ((0, 1.0), (1, 1.0)), sense, rhs)
    return MipInstance("plain", ("x", "y"), np.array(c), np.zeros(2), np.full(2, 3.0),
                       frozenset({0, 1}), (row,))


@pytest.mark.parametrize("sense", ["LE", "GE", "EQ"])
def test_row_sense_given_as_a_string_becomes_a_sense(sense):
    inst = _two_integers(sense, 2.0, [1.0, 1.0])
    assert inst.rows[0].sense is Sense(sense)


@pytest.mark.parametrize("sense, rhs, point, feasible", [
    ("LE", 1.0, [1.0, 1.0], False),
    ("LE", 2.0, [1.0, 1.0], True),
    ("GE", 3.0, [1.0, 1.0], False),
    ("GE", 2.0, [3.0, 3.0], True),
])
def test_row_sense_given_as_a_string_is_checked(sense, rhs, point, feasible):
    inst = _two_integers(sense, rhs, [1.0, 1.0])
    assert check_feasibility(inst, np.array(point)).feasible is feasible


@pytest.mark.parametrize("sense, c, optimum", [
    ("LE", [1.0, 1.0], 0.0),     # min x + y, x + y <= 2
    ("GE", [-1.0, -1.0], -6.0),  # min -x - y, x + y >= 2
])
def test_row_sense_given_as_a_string_is_solved(sense, c, optimum):
    out = solve(_two_integers(sense, 2.0, c), SolverConfig(), INF)
    assert out.status is SolveStatus.OPTIMAL and out.primal_bound == optimum


@pytest.mark.parametrize("sense", ["bogus", "le", None, 1])
def test_unknown_row_sense_is_rejected(sense):
    with pytest.raises(InstanceError, match=re.escape(f"plain: row 'r': bad sense {sense!r}")):
        _two_integers(sense, 2.0, [1.0, 1.0])


def test_row_naming_a_variable_twice_is_rejected():
    # a dense matrix would read this row as x <= 2, a sum over its terms
    # as 2x <= 2
    row = LinearRow("r", ((0, 1.0), (0, 1.0)), Sense.LE, 2.0)
    with pytest.raises(InstanceError, match=re.escape("one: row 'r' names 'x' twice")):
        MipInstance("one", ("x",), np.array([-1.0]), np.zeros(1), np.full(1, 3.0),
                    frozenset({0}), (row,))


@pytest.mark.parametrize("value", [True, np.False_, "1.5", None, 10 ** 400],
                         ids=["bool", "numpy_bool", "string", "none", "huge_int"])
@pytest.mark.parametrize("field", ["rhs", "coefficient"])
def test_row_data_that_is_not_a_number_is_an_instance_error(field, value):
    # a bool rhs used to build an instance whose saved file did not load,
    # and a string raised TypeError from math.isfinite
    if field == "rhs":
        row, what = LinearRow("r", ((0, 1.0),), Sense.LE, value), "rhs"
    else:
        row, what = LinearRow("r", ((0, value),), Sense.LE, 1.0), "coefficient of 'x'"
    message = f"one: row 'r': {what} is not a number: {value!r}"
    with pytest.raises(InstanceError, match=re.escape(message)):
        MipInstance("one", ("x",), np.zeros(1), np.zeros(1), np.ones(1), frozenset(), (row,))


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), np.float64(2.0)])
def test_row_data_of_any_real_number_type_builds(value):
    inst = MipInstance("one", ("x",), np.array([-1.0]), np.zeros(1), np.full(1, 3.0),
                       frozenset(), (LinearRow("r", ((0, value),), Sense.LE, value),))
    assert inst.dense_matrix().tolist() == [[2.0]] and inst.rhs_array().tolist() == [2.0]


def test_replace_derives_the_arrays_of_the_new_rows():
    base = _two_integers(Sense.LE, 4.0, [-1.0, -1.0])
    assert base.rhs_array().tolist() == [4.0]
    assert check_feasibility(base, np.array([3.0, 1.0])).feasible
    tight = dataclasses.replace(
        base, rows=(LinearRow("r", ((0, 1.0), (1, 1.0)), Sense.LE, 1.0),))
    assert tight.rhs_array().tolist() == [1.0]
    assert not check_feasibility(tight, np.array([3.0, 1.0])).feasible
    out = solve(tight, SolverConfig(), INF)
    assert out.status is SolveStatus.OPTIMAL and out.primal_bound == -1.0
    assert solve(base, SolverConfig(), INF).primal_bound == -4.0


def test_fields_cannot_be_assigned_after_validation():
    base = _two_integers(Sense.LE, 4.0, [-1.0, -1.0])
    assert base.rhs_array().tolist() == [4.0]
    twice = (LinearRow("r", ((0, 1.0), (0, 1.0)), Sense.LE, 1.0),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.rows = twice
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.lower = np.zeros(2)
    assert base.rhs_array().tolist() == [4.0]
    assert check_feasibility(base, np.array([3.0, 1.0])).feasible
    # replace() validates the new rows
    with pytest.raises(InstanceError, match="names 'x' twice"):
        dataclasses.replace(base, rows=twice)


def _three_senses():
    """x, y integer in [0, 3] under one LE, one GE and one EQ row."""
    rows = tuple(LinearRow(f"r{i}", ((0, 1.0), (1, float(i + 1))), sense, 4.0)
                 for i, sense in enumerate((Sense.LE, Sense.GE, Sense.EQ)))
    return MipInstance("three", ("x", "y"), np.array([1.0, 1.0]), np.zeros(2),
                       np.full(2, 3.0), frozenset({1}), rows)


def test_derived_arrays_are_read_only_and_built_once():
    inst = _three_senses()
    accessors = (inst.is_integer, inst.integer_indices, inst.dense_matrix,
                 inst.rhs_array, inst.senses)
    for get in accessors:
        assert get() is get()
    assert inst.var_index("y") == 1
    le, ge, eq = inst._sense_rows
    assert le.tolist() == [True, False, False] and ge.tolist() == [False, True, False]
    assert eq.tolist() == [False, False, True]
    assert inst.senses() == (Sense.LE, Sense.GE, Sense.EQ)
    assert inst.dense_matrix().tolist() == [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
    assert inst.integer_indices().tolist() == [1]
    for arr in (inst.objective, inst.lower, inst.upper, inst.is_integer(),
                inst.integer_indices(), inst.dense_matrix(), inst.rhs_array(), le, ge, eq):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_instance_without_rows_derives_empty_arrays():
    inst = MipInstance("none", ("x",), np.array([1.0]), np.zeros(1), np.ones(1),
                       frozenset(), ())
    assert inst.dense_matrix().shape == (0, 1) and inst.rhs_array().shape == (0,)
    assert inst.senses() == () and all(m.shape == (0,) for m in inst._sense_rows)
    assert inst.integer_indices().shape == (0,) and not inst.is_integer().any()
    assert check_feasibility(inst, np.array([0.5])).feasible


@pytest.mark.parametrize("index", [1.5, 1.0, True, np.float64(1.0), -1, 2, "1", None])
def test_row_index_that_is_not_a_variable_index_fails_when_built(index):
    # the row used to build and fail inside presolve at the first solve
    row = LinearRow("r", ((0, 1.0), (index, 1.0)), Sense.LE, 2.0)
    message = re.escape(f"two: row 'r': variable index {index!r} is not an integer in [0, 2)")
    with pytest.raises(InstanceError, match=message):
        MipInstance("two", ("x", "y"), np.array([-1.0, -1.0]), np.zeros(2), np.ones(2),
                    frozenset({0, 1}), (row,))


@pytest.mark.parametrize("index", [1.0, True, np.float64(0.0), np.bool_(True), -1, 2])
def test_integer_index_that_is_not_a_variable_index_is_an_instance_error(index):
    message = re.escape(f"two: integer index {index!r} is not a variable index in [0, 2)")
    with pytest.raises(InstanceError, match=message):
        MipInstance("two", ("x", "y"), np.zeros(2), np.zeros(2), np.ones(2),
                    frozenset({index}), ())


def test_numpy_integer_indices_are_accepted():
    c, lo, hi = np.array([-1.0, -2.0]), np.zeros(2), np.full(2, 3.0)
    plain = MipInstance("p", ("x", "y"), c, lo, hi, frozenset({0, 1}),
                        (LinearRow("r", ((0, 1.0), (1, 2.0)), Sense.LE, 4.0),))
    numpy = MipInstance("p", ("x", "y"), c, lo, hi, frozenset({np.int64(0), np.int32(1)}),
                        (LinearRow("r", ((np.int64(0), 1.0), (np.intp(1), 2.0)), Sense.LE, 4.0),))
    for get in ("is_integer", "integer_indices", "dense_matrix", "rhs_array"):
        assert np.array_equal(getattr(numpy, get)(), getattr(plain, get)())
    assert numpy.integer_indices().dtype == plain.integer_indices().dtype
    assert solve(numpy, SolverConfig(), INF).primal_bound == solve(plain, SolverConfig(), INF).primal_bound


@pytest.mark.parametrize("names, message", [
    (("x", 1), "variable #1: name 1 is not a string"),
    ((b"x", "y"), "variable #0: name b'x' is not a string"),
    ((["x"], "y"), "variable #0: name ['x'] is not a string"),
    (("x", "x"), "duplicate variable name 'x'"),
])
def test_variable_names_must_be_distinct_strings(names, message):
    # ("x", 1) used to build and make save_instance fail on sorting its keys
    with pytest.raises(InstanceError, match=re.escape(f"n: {message}")):
        MipInstance("n", names, np.zeros(2), np.zeros(2), np.ones(2), frozenset(), ())


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_field_is_series_error(tmp_path, case):
    save_instance(instance_from_dict(MINIMAL), tmp_path / "i0.json")
    update, message = MALFORMED_MANIFESTS[case]
    data = {"series_name": "s", "time_limit": 10.0, "changing": ["RHS"],
            "instances": ["i0.json"]}
    data = [data] if update is None else {**data, **update}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SeriesError, match=message) as info:
        load_series(path)
    assert str(info.value).startswith(str(path))


def _base_for_perturb():
    return make_instance(
        "base", [1.0, -2.0, 3.0],
        [([1.0, 2.0, 0.0], Sense.LE, 5.0), ([0.0, 1.0, 1.0], Sense.GE, 1.0)],
        [0, 0, 0], [4, 4, 4], ints=(0, 1, 2))


@pytest.mark.parametrize("kind,changed", [
    ("OBJECTIVE", "objective"), ("RHS", "rhs"), ("BOUNDS", "bounds"),
    ("MATRIX", "matrix")])
def test_perturb_only_named_fields_change(kind, changed):
    base = _base_for_perturb()
    series = perturb_series(base, {kind}, count=6, seed=7, magnitude=0.2)
    assert len(series) == 6
    for inst in series[1:]:
        assert inst.var_names == base.var_names
        same_obj = np.array_equal(inst.objective, base.objective)
        same_rhs = np.array_equal(inst.rhs_array(), base.rhs_array())
        same_bounds = (np.array_equal(inst.lower, base.lower)
                       and np.array_equal(inst.upper, base.upper))
        same_mat = np.array_equal(inst.dense_matrix(), base.dense_matrix())
        assert same_obj == (changed != "objective")
        assert same_rhs == (changed != "rhs")
        assert same_bounds == (changed != "bounds")
        assert same_mat == (changed != "matrix")
        assert np.all(inst.lower <= inst.upper)


def test_perturb_deterministic_files(tmp_path):
    base = _base_for_perturb()
    p1 = generate_series_files(base, {"RHS"}, 5, seed=7, magnitude=0.1,
                               out_dir=tmp_path / "a", time_limit=30)
    p2 = generate_series_files(base, {"RHS"}, 5, seed=7, magnitude=0.1,
                               out_dir=tmp_path / "b", time_limit=30)
    for f1, f2 in zip(sorted(p1.parent.iterdir()), sorted(p2.parent.iterdir())):
        assert f1.read_bytes() == f2.read_bytes()


def test_perturb_output_loads_as_series(tmp_path):
    base = _base_for_perturb()
    manifest_path = generate_series_files(base, {"OBJECTIVE"}, 4, seed=1,
                                          magnitude=0.3, out_dir=tmp_path,
                                          time_limit=10)
    manifest = load_series(manifest_path)
    assert len(manifest) == 4
    assert manifest.changing_components == frozenset({Component.OBJECTIVE})


@pytest.mark.parametrize("magnitude, moved", [(0.01, 1), (0.1, 2), (0.3, 8), (2.0, 25)])
def test_bounds_perturbation_moves_the_magnitude_share_of_columns(magnitude, moved):
    # the step of a binary used to be drawn from {0, 1} at any magnitude, so
    # about half of all binaries were fixed to 0 (13.05 of 25 over 20 draws)
    base = hard_knapsack(n=25)
    for inst in perturb_series(base, {"BOUNDS"}, count=21, seed=3, magnitude=magnitude)[1:]:
        lowered = inst.upper < base.upper
        assert np.count_nonzero(lowered) == moved
        assert np.all(inst.upper[lowered] == 0.0) and np.array_equal(inst.lower, base.lower)


def test_bounds_perturbation_of_integer_and_continuous_columns():
    # an integer column moves by 1 to round(magnitude x width) steps, a
    # continuous one by less than its width; unbounded columns stay
    base = make_instance("mix", [1.0] * 4, [([1.0, 1.0, 1.0, 1.0], Sense.LE, 40.0)],
                         [0, 0, 0, 0], [20, 20, 20, INF], ints=(0, 1))
    steps = set()
    for inst in perturb_series(base, {"BOUNDS"}, count=41, seed=5, magnitude=0.5)[1:]:
        lowered = np.flatnonzero(inst.upper < base.upper).tolist()
        assert len(lowered) == 2 and 3 not in lowered
        for j in lowered:
            step = base.upper[j] - inst.upper[j]
            assert (step in range(1, 11)) if j < 2 else 0 < step < 20
            steps.add(step if j < 2 else None)
    assert steps >= {1.0, 10.0}
