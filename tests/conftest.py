"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from mipseries.harness import CSV_COLUMNS
from mipseries import lp
from mipseries.kernels import get_kernels
from mipseries.lp import NodeRows, _Simplex, solve_arrays
from mipseries.model import DEFAULT_INT_TOL, INF, LinearRow, MipInstance, Sense
from mipseries.solver import BranchingRule
from mipseries.solver.bb import BLAND_AFTER, LP_ITER_LIMIT
from mipseries.solver.cuts import slack_integrality

# All tests run on the deterministic clock so they are machine-independent.
DET_WPS = 1e6


# A one-variable, one-row instance in the JSON file layout.
MINIMAL = {
    "name": "mini",
    "vars": [{"name": "x", "lb": 0, "ub": 10, "integer": True, "obj": 1.0}],
    "rows": [{"name": "c0", "coefs": {"x": 1.0}, "sense": "GE", "rhs": 2.0}],
}


def malformed_instance(edit):
    """MINIMAL with `edit` applied to a deep copy."""
    data = json.loads(json.dumps(MINIMAL))
    edit(data)
    return data


# Instance files with a wrong-typed or non-finite field: case -> (edit of
# MINIMAL, message).  A value that converts to a number is rejected by
# MipInstance, with the message an instance built in code gets.
MALFORMED_INSTANCES = {
    "coefs_list": (lambda d: d["rows"][0].update(coefs=[1]), "coefs must be an object"),
    "var_not_object": (lambda d: d.update(vars=["x"]), "variable #0 must be an object"),
    "vars_not_list": (lambda d: d.update(vars=5), "must be lists"),
    "var_name_not_string": (lambda d: d["vars"][0].update(name=[1]), "is not a string"),
    "rhs_null": (lambda d: d["rows"][0].update(rhs=None), "rhs: not a number"),
    "obj_text": (lambda d: d["vars"][0].update(obj="abc"), "obj: not a number"),
    "coef_null": (lambda d: d["rows"][0].update(coefs={"x": None}),
                  "coefficient of 'x': not a number"),
    "row_not_object": (lambda d: d.update(rows=[3]), "row #0 must be an object"),
    "obj_infinity": (lambda d: d["vars"][0].update(obj=math.inf),
                     "mini: objective coefficient of 'x' is not finite: inf"),
    "obj_nan": (lambda d: d["vars"][0].update(obj=math.nan),
                "mini: objective coefficient of 'x' is not finite: nan"),
    "obj_true": (lambda d: d["vars"][0].update(obj=True), "obj: not a number"),
    "obj_numeric_text": (lambda d: d["vars"][0].update(obj="1.5"),
                         "'x': obj: not a number: '1.5'"),
    "obj_huge_int": (lambda d: d["vars"][0].update(obj=10 ** 400), "'x': obj: not a number: 1000"),
    "rhs_nan_text": (lambda d: d["rows"][0].update(rhs="nan"), "rhs: not a number: 'nan'"),
    "rhs_minus_infinity": (lambda d: d["rows"][0].update(rhs=-math.inf),
                           "mini: row 'c0': rhs is not finite: -inf"),
    "rhs_huge_int": (lambda d: d["rows"][0].update(rhs=-10 ** 400), "rhs: not a number: -1000"),
    "coef_true": (lambda d: d["rows"][0].update(coefs={"x": True}),
                  "coefficient of 'x': not a number"),
    "coef_infinity": (lambda d: d["rows"][0].update(coefs={"x": math.inf}),
                      "mini: row 'c0': coefficient of 'x' is not finite: inf"),
    "coef_huge_int": (lambda d: d["rows"][0].update(coefs={"x": 10 ** 400}),
                      "row 'c0': coefficient of 'x': not a number: 1000"),
    "lb_nan_continuous": (lambda d: d["vars"][0].update(lb=math.nan, integer=False),
                          "mini: variable 'x': bad lower bound nan"),
    "ub_nan": (lambda d: d["vars"][0].update(ub=math.nan), "mini: variable 'x': bad upper bound nan"),
    "lb_plus_inf": (lambda d: d["vars"][0].update(lb="inf"),
                    "mini: variable 'x': bad lower bound inf"),
    "lb_plus_infinity": (lambda d: d["vars"][0].update(lb=math.inf),
                         "mini: variable 'x': bad lower bound inf"),
    "ub_minus_inf": (lambda d: d["vars"][0].update(ub="-inf"),
                     "mini: variable 'x': bad upper bound -inf"),
    "ub_true": (lambda d: d["vars"][0].update(ub=True), "'x': ub: not a number: True"),
    "ub_huge_int": (lambda d: d["vars"][0].update(ub=10 ** 400), "'x': ub: not a number: 1000"),
    "integer_text": (lambda d: d["vars"][0].update(integer="false", ub=2.5),
                     "variable 'x': integer must be true or false, got 'false'"),
    "integer_one": (lambda d: d["vars"][0].update(integer=1),
                    "variable 'x': integer must be true or false, got 1"),
    "integer_null": (lambda d: d["vars"][0].update(integer=None),
                     "variable 'x': integer must be true or false, got None"),
    "sense_unknown": (lambda d: d["rows"][0].update(sense="XX"),
                      "mini: row 'c0': bad sense 'XX'"),
}


# Manifests with a wrong-typed field: case -> (fields replaced in a valid
# manifest, or None for a top-level list; message).
MALFORMED_MANIFESTS = {
    "instances_int": ({"instances": 5}, "instances must be a list of file names"),
    "instances_of_int": ({"instances": [5]}, "instances must be a list of file names"),
    "time_limit_null": ({"time_limit": None}, "time_limit: not a number"),
    "time_limit_text": ({"time_limit": "60"}, "time_limit: not a number: '60'"),
    "time_limit_huge_int": ({"time_limit": 10 ** 400}, "time_limit: not a number: 1000"),
    "time_limit_nan": ({"time_limit": float("nan")}, "time limit must be positive and finite"),
    "time_limit_inf": ({"time_limit": float("inf")}, "time limit must be positive and finite"),
    "changing_int": ({"changing": 5}, "changing must be a list"),
    "top_level_list": (None, "top level must be an object"),
}


def older_journal(lines, version):
    """Parsed checkpoint journal `lines` in the layout of version 3 or 4.
    Each line then held the raw histories of the last solve, as a history
    store with that solve's index, and a pool entry and ledger whatever the
    techniques; version 3's histories also held conflict and inference
    counts."""
    counts = {} if version == 4 else dict.fromkeys(
        ["conflict_count_up", "conflict_count_down",
         "inference_count_up", "inference_count_down"], 0.0)
    old = [{**lines[0], "version": version}]
    for t, line in enumerate(lines[1:]):
        warm = line["warm"] or {"histories": {}, "global_history": {}}
        old.append({"record": line["record"], "pool_entry": line["pool_entry"],
                    "ledger": line["ledger"] or {}, "history_store": {
                        "source_index": t,
                        "global_history": {**warm["global_history"], **counts},
                        "histories": {name: {**h, **counts}
                                      for name, h in warm["histories"].items()}}})
    return old


def report_csv(path, totals, index=None, columns=CSV_COLUMNS):
    """Write a report CSV with these total scores, for rows index 0, 1, ...
    unless `index` is given, and 0 in every other column; returns `path`."""
    index = range(len(totals)) if index is None else index
    lines = [",".join(columns)]
    for i, total in zip(index, totals):
        cells = {"index": str(i), "total_score": repr(float(total))}
        lines.append(",".join(cells.get(c, "0") for c in columns))
    path.write_text("\n".join(lines) + "\n")
    return path


def make_instance(name, c, rows, lo, hi, ints=()):
    """rows: iterable of (dense coef list, Sense, rhs)."""
    n = len(c)
    built = tuple(
        LinearRow(f"r{i}", tuple((j, float(a)) for j, a in enumerate(coefs) if a),
                  sense, float(rhs))
        for i, (coefs, sense, rhs) in enumerate(rows))
    return MipInstance(name, tuple(f"x{j}" for j in range(n)),
                       np.asarray(c, dtype=float), np.asarray(lo, dtype=float),
                       np.asarray(hi, dtype=float), frozenset(ints), built)


def instance_dict(name, c, rows, lo, hi, ints=()):
    """The instance `make_instance` builds from these arguments, in the
    instance file layout and unvalidated."""
    names = [f"x{j}" for j in range(len(c))]
    return {
        "name": name,
        "vars": [{"name": v, "lb": float(lb), "ub": float(ub), "integer": j in ints,
                  "obj": float(cj)} for j, (v, cj, lb, ub) in enumerate(zip(names, c, lo, hi))],
        "rows": [{"name": f"r{i}", "coefs": {names[j]: float(a) for j, a in enumerate(coefs) if a},
                  "sense": sense.value, "rhs": float(rhs)}
                 for i, (coefs, sense, rhs) in enumerate(rows)]}


def relaxation(inst):
    """(rows, lo, hi, cost) of an instance's LP relaxation: its rows as a
    `NodeRows`, with the slack integrality branch and bound gives the model
    rows, and copies of its bounds and objective."""
    mat, rhs, senses = inst.dense_matrix(), inst.rhs_array(), inst.senses()
    rows = NodeRows(mat, senses, rhs, slack_integrality(mat, rhs, inst.is_integer()))
    return rows, np.array(inst.lower), np.array(inst.upper), np.array(inst.objective)


def lp_solve(rows, lo, hi, cost, warm=None, iter_limit=LP_ITER_LIMIT,
             bland_after=BLAND_AFTER, cutoff=INF):
    """`solve_arrays` with the solver's default pivot budget and Bland
    trigger, and no cutoff unless one is given."""
    return solve_arrays(rows, lo, hi, cost, warm, iter_limit, get_kernels(), bland_after,
                        cutoff)


def same_data(a: MipInstance, b: MipInstance) -> bool:
    """Field-for-field equality of two instances."""
    return (a.name == b.name
            and a.var_names == b.var_names
            and np.array_equal(a.objective, b.objective)
            and np.array_equal(a.lower, b.lower)
            and np.array_equal(a.upper, b.upper)
            and a.integer_mask == b.integer_mask
            and a.rows == b.rows)


def validate_hint_set(hint_set, target: MipInstance, int_tol=DEFAULT_INT_TOL) -> None:
    """Assert the hint invariants: known names, integer variables only,
    values integral and within the target bounds."""
    for hint in hint_set:
        for name, v in hint.assignment.items():
            j = target.var_index(name)
            if j not in target.integer_mask:
                raise ValueError(f"hint touches continuous variable {name!r}")
            if abs(v - round(v)) > int_tol:
                raise ValueError(f"hint value for {name!r} not integral: {v}")
            if v < target.lower[j] - int_tol or v > target.upper[j] + int_tol:
                raise ValueError(f"hint value for {name!r} out of bounds: {v}")


def hard_knapsack(seed=17, n=14, m=3):
    """Multi-row binary knapsack that needs a few dozen nodes under
    reliability branching (seed 17: ~100 nodes)."""
    rng = np.random.default_rng(seed)
    c = -rng.integers(5, 30, n).astype(float)
    A = rng.integers(1, 20, (m, n)).astype(float)
    b = (A.sum(axis=1) * 0.5).round()
    rows = tuple(LinearRow(f"r{i}", tuple((j, A[i, j]) for j in range(n)),
                           Sense.LE, float(b[i])) for i in range(m))
    return MipInstance(f"knap{seed}", tuple(f"x{j}" for j in range(n)), c,
                       np.zeros(n), np.ones(n), frozenset(range(n)), rows)


def mixed_knapsack(seed=3, n_int=14, n_cont=4, m=4):
    """Integer knapsack columns with bounds 0..3 plus a few continuous ones."""
    rng = np.random.default_rng(seed)
    n = n_int + n_cont
    c = -rng.integers(4, 25, n).astype(float)
    c[n_int:] = -rng.uniform(1.0, 6.0, n_cont).round(3)
    A = rng.integers(1, 15, (m, n)).astype(float)
    A[:, n_int:] = rng.uniform(0.5, 9.0, (m, n_cont)).round(3)
    upper = np.concatenate([rng.integers(1, 4, n_int), np.full(n_cont, 2.5)])
    b = (A @ upper * 0.4).round()
    rows = tuple(LinearRow(f"r{i}", tuple((j, A[i, j]) for j in range(n)),
                           Sense.LE, float(b[i])) for i in range(m))
    return MipInstance(f"mixknap{seed}", tuple(f"x{j}" for j in range(n)), c,
                       np.zeros(n), upper.astype(float), frozenset(range(n_int)), rows)


def random_feasible_mip(rng, max_vars=12, max_rows=10):
    """Random pure-integer instance made feasible by construction: the rhs is
    derived from a sampled lattice point."""
    n = int(rng.integers(3, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    # keep the lattice small enough to enumerate (<= 2**16 points)
    widths = []
    budget = 16
    for _ in range(n):
        w = int(rng.integers(1, 4))
        bits = {1: 1, 2: 2, 3: 2}[w]
        if budget - bits < 0:
            w = 1
            bits = 1
        budget -= bits
        widths.append(w)
    lo = np.zeros(n)
    hi = np.array(widths, dtype=float)
    c = rng.integers(-6, 7, n).astype(float)
    A = rng.integers(-4, 5, (m, n)).astype(float)
    A[rng.random((m, n)) < 0.3] = 0.0
    z = np.array([rng.integers(0, w + 1) for w in widths], dtype=float)
    rows = []
    for i in range(m):
        act = float(A[i] @ z)
        u = rng.random()
        if u < 0.55:
            rows.append((A[i], Sense.LE, act + float(rng.integers(0, 5))))
        elif u < 0.9:
            rows.append((A[i], Sense.GE, act - float(rng.integers(0, 5))))
        else:
            rows.append((A[i], Sense.EQ, act))
    return make_instance(f"rand{rng.integers(1 << 30)}", c, rows, lo, hi, range(n))


def pinned_mips():
    """(name, instance, branching rule) of the MIPs whose work counters
    `test_pivot_path.py` pins: knap17 and the random instances under
    reliability branching, knap5 under full strong branching."""
    yield "knap17", hard_knapsack(), BranchingRule.RELIABILITY
    yield "knap5", hard_knapsack(seed=5, n=12, m=4), BranchingRule.FULLSTRONG
    rng = np.random.default_rng(11)
    found = 0
    for i in range(29):
        inst = random_feasible_mip(rng, max_vars=12, max_rows=10)
        if inst.num_vars >= 10 and inst.num_rows >= 6 and found < 4:
            found += 1
            yield f"rand{i}", inst, BranchingRule.RELIABILITY


def highs(inst: MipInstance):
    """(milp status, optimum or None) from HiGHS (`scipy.optimize.milp`):
    0 is optimal, 2 infeasible."""
    A, b = inst.dense_matrix(), inst.rhs_array()
    row_lo = np.where([s is not Sense.LE for s in inst.senses()], b, -np.inf)
    row_hi = np.where([s is not Sense.GE for s in inst.senses()], b, np.inf)
    res = milp(inst.objective, integrality=inst.is_integer().astype(int),
               bounds=Bounds(inst.lower, inst.upper),
               constraints=LinearConstraint(A, row_lo, row_hi),
               options={"mip_rel_gap": 0.0})
    return res.status, (float(res.fun) if res.status == 0 else None)


def enumerate_mip(inst, tol=1e-9):
    """Brute-force lattice oracle for pure-integer instances with finite
    bounds; returns (feasible, optimum)."""
    n = inst.num_vars
    assert inst.integer_mask == frozenset(range(n))
    axes = [np.arange(int(inst.lower[j]), int(inst.upper[j]) + 1) for j in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n).astype(float)
    mask = np.ones(len(pts), dtype=bool)
    A = inst.dense_matrix()
    b = inst.rhs_array()
    for i, sense in enumerate(inst.senses()):
        act = pts @ A[i]
        if sense is Sense.LE:
            mask &= act <= b[i] + tol
        elif sense is Sense.GE:
            mask &= act >= b[i] - tol
        else:
            mask &= np.abs(act - b[i]) <= tol
    if not mask.any():
        return False, None
    vals = pts[mask] @ inst.objective
    return True, float(vals.min())


def enumerate_integer_points(inst, tol=1e-9):
    """All feasible lattice points of a pure-integer instance."""
    n = inst.num_vars
    axes = [np.arange(int(inst.lower[j]), int(inst.upper[j]) + 1) for j in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n).astype(float)
    mask = np.ones(len(pts), dtype=bool)
    A = inst.dense_matrix()
    b = inst.rhs_array()
    for i, sense in enumerate(inst.senses()):
        act = pts @ A[i]
        if sense is Sense.LE:
            mask &= act <= b[i] + tol
        elif sense is Sense.GE:
            mask &= act >= b[i] - tol
        else:
            mask &= np.abs(act - b[i]) <= tol
    return pts[mask]


def lp_vertex_oracle(inst, tol=1e-7):
    """Optimal LP value by enumerating basic solutions: every n-subset of the
    row/bound constraints taken active.  Requires finite bounds."""
    n = inst.num_vars
    cons = []
    A = inst.dense_matrix()
    b = inst.rhs_array()
    for i in range(inst.num_rows):
        cons.append((A[i], b[i]))
    eye = np.eye(n)
    for j in range(n):
        cons.append((eye[j], inst.lower[j]))
        cons.append((eye[j], inst.upper[j]))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        M = np.array([cons[k][0] for k in combo])
        rhs = np.array([cons[k][1] for k in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        ok = True
        for i, sense in enumerate(inst.senses()):
            act = float(A[i] @ x)
            if sense is Sense.LE and act > b[i] + tol:
                ok = False
            elif sense is Sense.GE and act < b[i] - tol:
                ok = False
            elif sense is Sense.EQ and abs(act - b[i]) > tol:
                ok = False
            if not ok:
                break
        if ok and np.all(x >= inst.lower - tol) and np.all(x <= inst.upper + tol):
            val = float(inst.objective @ x)
            if best is None or val < best:
                best = val
    return best


@pytest.fixture
def tmp_series_dir(tmp_path):
    return tmp_path / "series"


def awkward_values(rng, size):
    """Floats that stress rounding: exact .5 ties of both signs, -0.0,
    values a hair off an integer or off .5, large magnitudes and plain
    fractions."""
    base = rng.integers(-6, 7, size).astype(float)
    kind = rng.integers(0, 7, size)
    v = base + rng.random(size)
    v[kind == 1] = base[kind == 1] + 0.5
    v[kind == 2] = -0.0
    near = kind == 3
    v[near] = base[near] + rng.choice([-1e-7, 1e-7, -1e-12, 1e-12], near.sum())
    v[kind == 4] = rng.choice([0.49999999999999994, -0.49999999999999994,
                               2.0 ** 52 + 1.0, -(2.0 ** 52) - 1.0, 2.5e15 + 0.5,
                               1e300, -1e300], (kind == 4).sum())
    v[kind == 5] = base[kind == 5]
    return v


def poison_lp(mp, status, methods=("run", "run_dual"), when=lambda iter_limit: True):
    """Patch the simplex loops `methods` of `_Simplex` with `mp` so that a
    loop that ends with a result, when `when(iter_limit)` holds, reports
    `status` with every basic value NaN instead.  Returns the list of the
    iteration limits of the loops it poisoned, in call order."""
    poisoned = []
    for name in methods:
        def patched(self, iter_limit, *args, _real=getattr(_Simplex, name)):
            out = _real(self, iter_limit, *args)
            if out is None or not when(iter_limit):
                return out
            poisoned.append(iter_limit)
            return status, np.full_like(out[1], np.nan)
        mp.setattr(_Simplex, name, patched)
    return poisoned


def blind_ratio_test(mp):
    """Patch the pivot tolerances with `mp` so that no row blocks a move in
    the primal ratio test: a phase-1 move along an unbounded column is then
    a ray without a breakpoint."""
    mp.setattr(lp, "_PIVOT_TOL", np.array(np.inf))
    mp.setattr(lp, "_MINUS_PIVOT_TOL", np.array(-np.inf))
