"""Instance/series loading, validation, feasibility and the series generator."""
from __future__ import annotations

import json

import numpy as np
import pytest

from mipseries.model import (INF, Component, FeasibilityResult, InstanceError,
                             LinearRow, MipInstance, Sense, SeriesError, Violation,
                             check_feasibility, generate_series_files,
                             instance_from_dict, load_instance, load_series,
                             objective_value, perturb_series, save_instance)

from conftest import make_instance

MINIMAL = {
    "name": "mini",
    "vars": [{"name": "x", "lb": 0, "ub": 10, "integer": True, "obj": 1.0}],
    "rows": [{"name": "c0", "coefs": {"x": 1.0}, "sense": "GE", "rhs": 2.0}],
}


def test_minimal_instance_roundtrip(tmp_path):
    inst = instance_from_dict(MINIMAL)
    assert inst.num_vars == 1 and inst.num_rows == 1
    assert inst.integer_mask == frozenset({0})
    path = tmp_path / "mini.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.same_data(inst)


def test_unknown_variable_in_row():
    bad = json.loads(json.dumps(MINIMAL))
    bad["rows"][0]["coefs"] = {"y": 1.0}
    with pytest.raises(InstanceError, match="unknown variable"):
        instance_from_dict(bad)


def test_crossed_bounds():
    bad = json.loads(json.dumps(MINIMAL))
    bad["vars"][0]["lb"] = 3
    bad["vars"][0]["ub"] = 1
    with pytest.raises(InstanceError, match="crossed bounds at index 0"):
        instance_from_dict(bad)


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


def test_integer_bounds_normalized():
    data = json.loads(json.dumps(MINIMAL))
    data["vars"][0].update({"lb": 0.4, "ub": 9.7})
    inst = instance_from_dict(data)
    assert inst.lower[0] == 1.0 and inst.upper[0] == 9.0


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


def loop_check_feasibility(inst, point, feas_tol=1e-6, int_tol=1e-6):
    """check_feasibility as a plain loop over columns and rows."""
    point = np.asarray(point, dtype=float)
    for j in range(inst.num_vars):
        if point[j] < inst.lower[j] - feas_tol:
            return FeasibilityResult(False, Violation("bound", j, float(inst.lower[j] - point[j])))
        if point[j] > inst.upper[j] + feas_tol:
            return FeasibilityResult(False, Violation("bound", j, float(point[j] - inst.upper[j])))
    for j in sorted(inst.integer_mask):
        frac = abs(point[j] - round(point[j]))
        if frac > int_tol:
            return FeasibilityResult(False, Violation("integrality", j, float(frac)))
    for i, row in enumerate(inst.rows):
        act = float(sum(c * point[j] for j, c in row.coefs))
        if row.sense is Sense.LE and act > row.rhs + feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(act - row.rhs)))
        if row.sense is Sense.GE and act < row.rhs - feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(row.rhs - act)))
        if row.sense is Sense.EQ and abs(act - row.rhs) > feas_tol:
            return FeasibilityResult(False, Violation("row", i, float(abs(act - row.rhs))))
    return FeasibilityResult(True)


def _random_rows_instance(rng, k):
    """Rows with unsorted and repeated indices, empty rows, all three senses;
    some columns free or half-bounded, about half of them integer."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 7))
    lo = rng.choice([0.0, -2.0, -INF], n)
    hi = np.maximum(lo, rng.choice([1.0, 3.0, 0.0, INF], n))
    rows = []
    for i in range(m):
        size = int(rng.integers(0, 2 * n + 1))
        coefs = tuple((int(j), float(c)) for j, c in
                      zip(rng.integers(0, n, size), rng.normal(0.0, 1e3 ** rng.random(), size)))
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


# points with infinite entries give inf - inf in both versions' row sums
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_check_feasibility_matches_loop_on_random_points():
    rng = np.random.default_rng(19)
    kinds = set()
    for k in range(400):
        inst = _random_rows_instance(rng, k)
        for _ in range(5):
            x = _random_point(rng, inst)
            for tol in (1e-6, 1e-2):
                try:
                    want = loop_check_feasibility(inst, x, feas_tol=tol, int_tol=tol)
                except (ValueError, OverflowError) as exc:   # round() of inf or NaN
                    with pytest.raises(type(exc)):
                        check_feasibility(inst, x, feas_tol=tol, int_tol=tol)
                    kinds.add("raises")
                    continue
                got = check_feasibility(inst, x, feas_tol=tol, int_tol=tol)
                assert got.feasible == want.feasible
                if want.feasible:
                    kinds.add("feasible")
                    continue
                g, w = got.violation, want.violation
                assert (g.kind, g.index) == (w.kind, w.index)
                assert np.array_equal(np.float64(g.amount), np.float64(w.amount))
                kinds.add(w.kind)
    assert kinds == {"bound", "integrality", "row", "feasible", "raises"}


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
