"""Problem data model: MIP instances, solutions, series manifests and generators.

Instances are interchanged as JSON files with explicit variable/row objects,
minimization only.  All types are immutable after construction and safe to
share read-only across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

INF = float("inf")

DEFAULT_FEAS_TOL = 1e-6
DEFAULT_INT_TOL = 1e-6


class Sense(str, Enum):
    LE = "LE"
    GE = "GE"
    EQ = "EQ"


class SolutionStatus(str, Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNKNOWN = "UNKNOWN"


class Component(str, Enum):
    """Parts of an instance that may change across a series."""

    OBJECTIVE = "OBJECTIVE"
    RHS = "RHS"
    BOUNDS = "BOUNDS"
    MATRIX = "MATRIX"


class InstanceError(ValueError):
    """Raised when an instance file fails to parse or validate."""


class SeriesError(ValueError):
    """Raised when a series manifest fails to parse or validate."""


@dataclass(frozen=True)
class LinearRow:
    """One constraint row: sparse coefficients over variable indices."""

    name: str
    coefs: tuple[tuple[int, float], ...]
    sense: Sense
    rhs: float


@dataclass(eq=False)
class MipInstance:
    """Full problem data: minimize obj subject to rows, bounds and integrality."""

    name: str
    var_names: tuple[str, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: frozenset[int]
    rows: tuple[LinearRow, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        for arr in (self.objective, self.lower, self.upper):
            arr.setflags(write=False)
        self._validate()

    def _validate(self):
        n = len(self.var_names)
        if len(set(self.var_names)) != n:
            raise InstanceError(f"{self.name}: duplicate variable names")
        for arr, what in ((self.objective, "objective"),
                          (self.lower, "lower bounds"),
                          (self.upper, "upper bounds")):
            if arr.shape != (n,):
                raise InstanceError(f"{self.name}: {what} length {arr.shape} != {n}")
        for j in range(n):
            if self.lower[j] > self.upper[j]:
                raise InstanceError(
                    f"{self.name}: crossed bounds at index {j} "
                    f"(lb={self.lower[j]} > ub={self.upper[j]})")
        if not all(0 <= j < n for j in self.integer_mask):
            raise InstanceError(f"{self.name}: integer index out of range")
        for row in self.rows:
            for j, _ in row.coefs:
                if not 0 <= j < n:
                    raise InstanceError(
                        f"{self.name}: row '{row.name}' references variable index {j} >= {n}")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def var_index(self, name: str) -> int:
        idx = self._cache.get("name_to_idx")
        if idx is None:
            idx = {nm: j for j, nm in enumerate(self.var_names)}
            self._cache["name_to_idx"] = idx
        return idx[name]

    def is_integer(self) -> np.ndarray:
        """Boolean mask over variables, True for integer-constrained ones."""
        mask = self._cache.get("is_int")
        if mask is None:
            mask = np.zeros(self.num_vars, dtype=bool)
            mask[list(self.integer_mask)] = True
            mask.setflags(write=False)
            self._cache["is_int"] = mask
        return mask

    def dense_matrix(self) -> np.ndarray:
        """Row-major dense constraint matrix (m x n), built lazily."""
        mat = self._cache.get("dense")
        if mat is None:
            mat = np.zeros((self.num_rows, self.num_vars))
            for i, row in enumerate(self.rows):
                for j, c in row.coefs:
                    mat[i, j] = c
            mat.setflags(write=False)
            self._cache["dense"] = mat
        return mat

    def rhs_array(self) -> np.ndarray:
        b = self._cache.get("rhs")
        if b is None:
            b = np.array([row.rhs for row in self.rows])
            b.setflags(write=False)
            self._cache["rhs"] = b
        return b

    def senses(self) -> tuple[Sense, ...]:
        return tuple(row.sense for row in self.rows)

    def same_data(self, other: "MipInstance") -> bool:
        """Field-for-field equality (used by round-trip tests)."""
        return (self.name == other.name
                and self.var_names == other.var_names
                and np.array_equal(self.objective, other.objective)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper)
                and self.integer_mask == other.integer_mask
                and self.rows == other.rows)


@dataclass
class Solution:
    """A point with its objective and feasibility status."""

    values: np.ndarray
    objective: float
    status: SolutionStatus

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class Violation:
    kind: str          # "dimension" | "bound" | "integrality" | "row"
    index: int
    amount: float

    def message(self) -> str:
        return f"{self.kind} violation at index {self.index} (by {self.amount:g})"


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    violation: Violation | None = None


def objective_value(inst: MipInstance, point: np.ndarray) -> float:
    """Objective c . point; raises on dimension mismatch."""
    point = np.asarray(point, dtype=float)
    if point.shape != (inst.num_vars,):
        raise ValueError(f"point length {point.shape} != {inst.num_vars} variables")
    return float(inst.objective @ point)


def _feasibility_data(inst: MipInstance):
    """Cached arrays for check_feasibility: the integer indices, the rows as
    coefficient slots (slot k of row i holds its k-th coefficient, negated,
    and its variable index; `filled` marks real slots), the sense masks and
    the right-hand sides."""
    data = inst._cache.get("feasibility")
    if data is None:
        m = inst.num_rows
        width = max((len(row.coefs) for row in inst.rows), default=0)
        idx = np.zeros((width, m), dtype=np.int64)
        neg = np.zeros((width, m))
        filled = np.zeros((width, m), dtype=bool)
        for i, row in enumerate(inst.rows):
            for k, (j, c) in enumerate(row.coefs):
                idx[k, i], neg[k, i], filled[k, i] = j, -c, True
        senses = inst.senses()
        data = (np.flatnonzero(inst.is_integer()), idx, neg, filled,
                np.array([s is Sense.LE for s in senses], dtype=bool),
                np.array([s is Sense.GE for s in senses], dtype=bool),
                np.array([s is Sense.EQ for s in senses], dtype=bool),
                inst.rhs_array())
        inst._cache["feasibility"] = data
    return data


def check_feasibility(inst: MipInstance, point: np.ndarray,
                      feas_tol: float = DEFAULT_FEAS_TOL,
                      int_tol: float = DEFAULT_INT_TOL) -> FeasibilityResult:
    """Check bounds, integrality and rows in that order; report first violation.

    A row's activity is the sum of its terms c * x_j folded left to right in
    the row's coefficient order, starting from 0, so the amounts equal those
    of a plain loop over the rows bit for bit.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (inst.num_vars,):
        raise ValueError(f"point length {point.shape} != {inst.num_vars} variables")
    ints, idx, neg, filled, le, ge, eq, rhs = _feasibility_data(inst)

    below = point < inst.lower - feas_tol
    bad = below | (point > inst.upper + feas_tol)
    if bad.any():
        j = int(np.argmax(bad))
        amount = inst.lower[j] - point[j] if below[j] else point[j] - inst.upper[j]
        return FeasibilityResult(False, Violation("bound", j, float(amount)))

    vals = point[ints]
    with np.errstate(invalid="ignore"):   # inf - inf: flagged, then raised below
        bad = ~(np.abs(vals - np.round(vals)) <= int_tol)
    if bad.any():
        j = int(ints[np.argmax(bad)])
        # round() raises on NaN and inf, as it did for the first such entry
        frac = abs(point[j] - round(point[j]))
        return FeasibilityResult(False, Violation("integrality", j, float(frac)))

    if not len(rhs):
        return FeasibilityResult(True)
    # 0 - (-t1) - (-t2) ... is 0 + t1 + t2 ... exactly; subtract.reduce
    # folds in order (add.reduce may sum pairwise)
    terms = np.zeros((len(idx) + 1, len(rhs)))
    np.multiply(neg, point[idx], out=terms[1:], where=filled)
    act = np.subtract.reduce(terms, axis=0)
    bad = ((le & (act > rhs + feas_tol)) | (ge & (act < rhs - feas_tol))
           | (eq & (np.abs(act - rhs) > feas_tol)))
    if bad.any():
        i = int(np.argmax(bad))
        a, b = float(act[i]), inst.rows[i].rhs
        amount = a - b if le[i] else b - a if ge[i] else abs(a - b)
        return FeasibilityResult(False, Violation("row", i, float(amount)))
    return FeasibilityResult(True)


def evaluate_point(inst: MipInstance, point: np.ndarray,
                   feas_tol: float = DEFAULT_FEAS_TOL,
                   int_tol: float = DEFAULT_INT_TOL) -> Solution:
    """Build a Solution for a point, classifying it as FEASIBLE or INFEASIBLE."""
    res = check_feasibility(inst, point, feas_tol, int_tol)
    status = SolutionStatus.FEASIBLE if res.feasible else SolutionStatus.INFEASIBLE
    return Solution(np.array(point, dtype=float), objective_value(inst, point), status)


# ---------------------------------------------------------------------------
# Instance file I/O (JSON schema, see README)
# ---------------------------------------------------------------------------

def _parse_bound(value, *, path, var, side) -> float:
    if value == "inf":
        return INF
    if value == "-inf":
        return -INF
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InstanceError(f"{path}: variable '{var}': bad {side} bound {value!r}")


def _format_bound(value: float):
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    return value


def instance_from_dict(data: dict, path: str = "<memory>") -> MipInstance:
    """Build a validated MipInstance from the JSON dictionary layout."""
    if not isinstance(data, dict):
        raise InstanceError(f"{path}: top level must be an object")
    sense = data.get("objective_sense", "min")
    if sense != "min":
        raise InstanceError(f"{path}: objective_sense {sense!r} unsupported (minimization only)")
    try:
        name = data["name"]
        var_specs = data["vars"]
        row_specs = data["rows"]
    except KeyError as exc:
        raise InstanceError(f"{path}: missing top-level key {exc}") from None

    names, lower, upper, obj = [], [], [], []
    integer = set()
    for k, v in enumerate(var_specs):
        try:
            vname = v["name"]
            lb = _parse_bound(v["lb"], path=path, var=v.get("name", k), side="lower")
            ub = _parse_bound(v["ub"], path=path, var=v.get("name", k), side="upper")
            is_int = bool(v["integer"])
            cj = float(v["obj"])
        except KeyError as exc:
            raise InstanceError(f"{path}: variable #{k}: missing key {exc}") from None
        if is_int:
            # Integer variables keep integral bounds; rounding inward is
            # lossless for the integer feasible set.
            if math.isfinite(lb):
                lb = math.ceil(lb - 1e-9)
            if math.isfinite(ub):
                ub = math.floor(ub + 1e-9)
            integer.add(k)
        names.append(vname)
        lower.append(lb)
        upper.append(ub)
        obj.append(cj)

    if len(set(names)) != len(names):
        raise InstanceError(f"{path}: duplicate variable names")
    name_to_idx = {nm: j for j, nm in enumerate(names)}

    rows = []
    for i, r in enumerate(row_specs):
        try:
            rname = r["name"]
            coefs = r["coefs"]
            rsense = Sense(r["sense"])
            rhs = float(r["rhs"])
        except KeyError as exc:
            raise InstanceError(f"{path}: row #{i}: missing key {exc}") from None
        except ValueError:
            raise InstanceError(f"{path}: row #{i}: bad sense {r.get('sense')!r}") from None
        pairs = []
        for vname, coef in coefs.items():
            if vname not in name_to_idx:
                raise InstanceError(f"{path}: row '{rname}': unknown variable '{vname}'")
            pairs.append((name_to_idx[vname], float(coef)))
        pairs.sort()
        rows.append(LinearRow(rname, tuple(pairs), rsense, rhs))

    try:
        return MipInstance(name=name, var_names=tuple(names),
                           objective=np.array(obj), lower=np.array(lower),
                           upper=np.array(upper), integer_mask=frozenset(integer),
                           rows=tuple(rows))
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def instance_to_dict(inst: MipInstance) -> dict:
    var_specs = []
    for j, vname in enumerate(inst.var_names):
        var_specs.append({
            "name": vname,
            "lb": _format_bound(float(inst.lower[j])),
            "ub": _format_bound(float(inst.upper[j])),
            "integer": j in inst.integer_mask,
            "obj": float(inst.objective[j]),
        })
    row_specs = []
    for row in inst.rows:
        row_specs.append({
            "name": row.name,
            "coefs": {inst.var_names[j]: c for j, c in row.coefs},
            "sense": row.sense.value,
            "rhs": row.rhs,
        })
    return {"name": inst.name, "vars": var_specs, "rows": row_specs}


def load_instance(path) -> MipInstance:
    """Load and validate an instance file."""
    path = Path(path)
    if not path.exists():
        raise InstanceError(f"{path}: file not found")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    return instance_from_dict(data, str(path))


def save_instance(inst: MipInstance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


# ---------------------------------------------------------------------------
# Series manifests
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SeriesManifest:
    """Ordered series of instance files plus the per-instance time limit."""

    series_name: str
    instance_paths: tuple[Path, ...]
    time_limit_per_instance: float
    changing_components: frozenset[Component]

    def __len__(self) -> int:
        return len(self.instance_paths)

    def load(self, index: int) -> MipInstance:
        return load_instance(self.instance_paths[index])

    def instances(self):
        for p in self.instance_paths:
            yield load_instance(p)


def load_series(path) -> SeriesManifest:
    """Load a manifest and validate every referenced instance.

    All instances must share the variable name set; when MATRIX is not among
    the changing components the variable order must match as well.
    """
    path = Path(path)
    if not path.exists():
        raise SeriesError(f"{path}: file not found")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SeriesError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    try:
        series_name = data["series_name"]
        time_limit = float(data["time_limit"])
        changing = frozenset(Component(c) for c in data["changing"])
        rel_paths = data["instances"]
    except KeyError as exc:
        raise SeriesError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise SeriesError(f"{path}: {exc}") from None

    if not rel_paths:
        raise SeriesError(f"{path}: empty series")
    if time_limit <= 0:
        raise SeriesError(f"{path}: time limit must be positive")
    if not changing:
        raise SeriesError(f"{path}: changing components must be non-empty")

    base = path.parent
    abs_paths = tuple((base / p).resolve() for p in rel_paths)
    for p in abs_paths:
        if not p.exists():
            raise SeriesError(f"{path}: missing instance file {p}")

    manifest = SeriesManifest(series_name, abs_paths, time_limit, changing)
    first = manifest.load(0)
    order_matters = Component.MATRIX not in changing
    for i in range(1, len(manifest)):
        inst = manifest.load(i)
        if order_matters:
            if inst.var_names != first.var_names:
                raise SeriesError(
                    f"{path}: variable set mismatch between "
                    f"'{first.name}' and '{inst.name}'")
        elif set(inst.var_names) != set(first.var_names):
            raise SeriesError(
                f"{path}: variable set mismatch between "
                f"'{first.name}' and '{inst.name}'")
    return manifest


def save_series_manifest(manifest: SeriesManifest, path) -> None:
    path = Path(path)
    data = {
        "series_name": manifest.series_name,
        "time_limit": manifest.time_limit_per_instance,
        "changing": sorted(c.value for c in manifest.changing_components),
        "instances": [str(Path(p).relative_to(path.parent)) for p in manifest.instance_paths],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic series generation
# ---------------------------------------------------------------------------

def perturb_instance(base: MipInstance, kinds: frozenset[Component],
                     rng: np.random.Generator, magnitude: float,
                     name: str) -> MipInstance:
    """Perturb only the components named in `kinds`; everything else is shared."""
    obj = np.array(base.objective)
    lower = np.array(base.lower)
    upper = np.array(base.upper)
    rows = list(base.rows)

    if Component.OBJECTIVE in kinds:
        noise = rng.uniform(-1.0, 1.0, size=base.num_vars)
        obj = obj + magnitude * np.maximum(1.0, np.abs(obj)) * noise

    if Component.MATRIX in kinds:
        new_rows = []
        for row in rows:
            pairs = tuple(
                (j, c * (1.0 + magnitude * rng.uniform(-1.0, 1.0)))
                for j, c in row.coefs)
            new_rows.append(LinearRow(row.name, pairs, row.sense, row.rhs))
        rows = new_rows

    if Component.RHS in kinds:
        new_rows = []
        for row in rows:
            shift = magnitude * max(1.0, abs(row.rhs)) * rng.uniform(0.0, 1.0)
            # Shift toward relaxation so perturbed instances stay feasible.
            if row.sense is Sense.LE:
                rhs = row.rhs + shift
            elif row.sense is Sense.GE:
                rhs = row.rhs - shift
            else:
                rhs = row.rhs
            new_rows.append(LinearRow(row.name, row.coefs, row.sense, rhs))
        rows = new_rows

    if Component.BOUNDS in kinds:
        changed = False
        shrinkable = []
        for j in range(base.num_vars):
            if not (math.isfinite(lower[j]) and math.isfinite(upper[j])):
                continue
            width = upper[j] - lower[j]
            if width <= 0:
                continue
            shrinkable.append(j)
            if j in base.integer_mask:
                cap = max(1, int(round(magnitude * max(1.0, width))))
                step = min(int(rng.integers(0, cap + 1)), int(width))
                if step:
                    upper[j] -= step
                    changed = True
            else:
                shrink = width * magnitude * rng.uniform(0.0, 1.0)
                if shrink > 0:
                    upper[j] -= shrink
                    changed = True
        if not changed and shrinkable:
            j = shrinkable[0]
            upper[j] -= 1.0 if j in base.integer_mask else \
                (upper[j] - lower[j]) * min(magnitude, 0.5)

    return MipInstance(name=name, var_names=base.var_names, objective=obj,
                       lower=lower, upper=upper, integer_mask=base.integer_mask,
                       rows=tuple(rows))


def perturb_series(base: MipInstance, kinds, count: int, seed: int,
                   magnitude: float) -> list[MipInstance]:
    """Deterministic series of `count` instances; index 0 is the base itself."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    kinds = frozenset(Component(k) for k in kinds)
    out = []
    for i in range(count):
        name = f"{base.name}_{i:03d}"
        if i == 0:
            inst = MipInstance(name=name, var_names=base.var_names,
                               objective=np.array(base.objective),
                               lower=np.array(base.lower), upper=np.array(base.upper),
                               integer_mask=base.integer_mask, rows=base.rows)
        else:
            rng = np.random.default_rng([seed, i])
            inst = perturb_instance(base, kinds, rng, magnitude, name)
        out.append(inst)
    return out


def generate_series_files(base: MipInstance, kinds, count: int, seed: int,
                          magnitude: float, out_dir, time_limit: float,
                          series_name: str | None = None) -> Path:
    """Write a perturbed series plus its manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = frozenset(Component(k) for k in kinds)
    series_name = series_name or f"{base.name}_{'_'.join(sorted(k.value.lower() for k in kinds))}"
    instances = perturb_series(base, kinds, count, seed, magnitude)
    rel_paths = []
    for inst in instances:
        fname = f"{inst.name}.json"
        save_instance(inst, out_dir / fname)
        rel_paths.append(fname)
    manifest_path = out_dir / "manifest.json"
    data = {
        "series_name": series_name,
        "time_limit": time_limit,
        "changing": sorted(k.value for k in kinds),
        "instances": rel_paths,
    }
    manifest_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return manifest_path
