"""Problem data model: MIP instances, solutions, series manifests and generators.

Instances are interchanged as JSON files with explicit variable/row objects,
minimization only.  `MipInstance` is the one place that checks and
normalizes instance data, whether it comes from a file or is built in code:
it rounds integer bounds inward, turns each row's sense into a `Sense`, and
rejects non-finite costs, rhs values and coefficients, bad or crossed
bounds, duplicate names, indices out of range, a row that names a variable
twice and unknown senses.  The file loader only converts JSON types to
numbers and prefixes the validator's message with the file path.  All types
are immutable after construction and safe to share read-only across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .kernels import count_nonzero

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


def dense_block(rows, n: int) -> np.ndarray:
    """The coefficients of `rows` as a dense (len(rows), n) matrix; a
    repeated variable index keeps its last coefficient."""
    mat = np.zeros((len(rows), n))
    for i, row in enumerate(rows):
        for j, c in row.coefs:
            mat[i, j] = c
    return mat


@dataclass(eq=False, frozen=True)
class MipInstance:
    """Full problem data: minimize obj subject to rows, bounds and integrality."""

    name: str
    var_names: tuple[str, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: frozenset[int]
    rows: tuple[LinearRow, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # copies: the caller's arrays stay theirs and writable, and the
        # integer bounds are rounded below
        for name in ("objective", "lower", "upper"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        n = len(self.var_names)
        if len(set(self.var_names)) != n:
            raise InstanceError(f"{self.name}: duplicate variable names")
        for arr, what in ((self.objective, "objective"),
                          (self.lower, "lower bounds"),
                          (self.upper, "upper bounds")):
            if arr.shape != (n,):
                raise InstanceError(f"{self.name}: {what} length {arr.shape} != {n}")
        if not all(0 <= j < n for j in self.integer_mask):
            raise InstanceError(f"{self.name}: integer index out of range")
        # Sense is a str enum, so "LE" passes for Sense.LE in an equality
        # test; the solver and check_feasibility compare senses by identity.
        rows = []
        for row in self.rows:
            try:
                sense = Sense(row.sense)
            except ValueError:
                raise InstanceError(f"{self.name}: row '{row.name}': "
                                    f"bad sense {row.sense!r}") from None
            rows.append(row if row.sense is sense else replace(row, sense=sense))
        object.__setattr__(self, "rows", tuple(rows))
        # Integer variables keep integral bounds; rounding inward is lossless
        # for the integer feasible set.  NaN and infinities pass through to
        # the checks; + 0.0 turns a -0.0 into 0.0.
        ints = sorted(self.integer_mask)
        self.lower[ints] = np.ceil(self.lower[ints] - 1e-9) + 0.0
        self.upper[ints] = np.floor(self.upper[ints] + 1e-9) + 0.0
        for arr in (self.objective, self.lower, self.upper):
            arr.setflags(write=False)
        self._validate()

    def _validate(self):
        """InstanceError, naming the variable or row, for a cost, rhs or
        coefficient that is not finite, a NaN bound, a lower bound of +inf,
        an upper bound of -inf, crossed bounds, a row index out of range or
        a row that names a variable twice."""
        for vname, c, lb, ub in zip(self.var_names, self.objective.tolist(),
                                    self.lower.tolist(), self.upper.tolist()):
            if not math.isfinite(c):
                raise InstanceError(f"{self.name}: objective coefficient of "
                                    f"'{vname}' is not finite: {c}")
            where = f"{self.name}: variable '{vname}'"
            if math.isnan(lb) or lb == INF:
                raise InstanceError(f"{where}: bad lower bound {lb}")
            if math.isnan(ub) or ub == -INF:
                raise InstanceError(f"{where}: bad upper bound {ub}")
            if lb > ub:
                raise InstanceError(f"{where}: crossed bounds (lb={lb} > ub={ub})")
        n = self.num_vars
        for row in self.rows:
            if not math.isfinite(row.rhs):
                raise InstanceError(
                    f"{self.name}: row '{row.name}': rhs is not finite: {row.rhs}")
            seen = set()
            for j, c in row.coefs:
                if not 0 <= j < n:
                    raise InstanceError(
                        f"{self.name}: row '{row.name}' references variable index {j} >= {n}")
                if j in seen:
                    raise InstanceError(f"{self.name}: row '{row.name}' names "
                                        f"'{self.var_names[j]}' twice")
                seen.add(j)
                if not math.isfinite(c):
                    raise InstanceError(f"{self.name}: row '{row.name}': coefficient "
                                        f"of '{self.var_names[j]}' is not finite: {c}")

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

    def integer_indices(self) -> np.ndarray:
        """Indices of the integer variables, ascending (read-only, cached)."""
        idx = self._cache.get("int_idx")
        if idx is None:
            idx = np.flatnonzero(self.is_integer())
            idx.setflags(write=False)
            self._cache["int_idx"] = idx
        return idx

    def dense_matrix(self) -> np.ndarray:
        """Row-major dense constraint matrix (m x n), built lazily."""
        mat = self._cache.get("dense")
        if mat is None:
            mat = dense_block(self.rows, self.num_vars)
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


def _sense_masks(inst: MipInstance):
    """The LE, GE and EQ row masks of `inst` (cached)."""
    masks = inst._cache.get("sense_masks")
    if masks is None:
        senses = inst.senses()
        masks = tuple(np.array([s is sense for s in senses], dtype=bool)
                      for sense in (Sense.LE, Sense.GE, Sense.EQ))
        inst._cache["sense_masks"] = masks
    return masks


def check_feasibility(inst: MipInstance, point: np.ndarray,
                      feas_tol: float = DEFAULT_FEAS_TOL,
                      int_tol: float = DEFAULT_INT_TOL) -> FeasibilityResult:
    """Check bounds, integrality and rows in that order; report first violation.

    An entry that is NaN or infinite violates its bound by inf.  A row's
    activity is read from `inst.dense_matrix()`, the matrix the LP reads:
    its terms c * x_j folded left to right in column order, starting from
    0, so the amounts equal those of a plain loop over the row's columns
    bit for bit (an absent column adds a signed zero, which can change only
    the sign of an activity that is exactly zero).
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (inst.num_vars,):
        raise ValueError(f"point length {point.shape} != {inst.num_vars} variables")

    finite = np.isfinite(point)
    below = point < inst.lower - feas_tol
    bad = below | (point > inst.upper + feas_tol) | ~finite
    if count_nonzero(bad):
        j = int(np.argmax(bad))
        if not finite[j]:
            amount = INF
        else:
            amount = inst.lower[j] - point[j] if below[j] else point[j] - inst.upper[j]
        return FeasibilityResult(False, Violation("bound", j, float(amount)))

    ints = inst.integer_indices()
    vals = point[ints]
    bad = np.abs(vals - vals.round()) > int_tol
    if count_nonzero(bad):
        j = int(ints[np.argmax(bad)])
        frac = abs(point[j] - round(point[j]))
        return FeasibilityResult(False, Violation("integrality", j, float(frac)))

    rhs = inst.rhs_array()
    if not len(rhs):
        return FeasibilityResult(True)
    # 0 - (-t1) - (-t2) ... is 0 + t1 + t2 ... exactly; subtract.reduce
    # folds in order (add.reduce may sum pairwise)
    terms = np.zeros((len(rhs), inst.num_vars + 1))
    np.multiply(inst.dense_matrix(), -point, out=terms[:, 1:])
    act = np.subtract.reduce(terms, axis=1)
    le, ge, eq = _sense_masks(inst)
    bad = ((le & (act > rhs + feas_tol)) | (ge & (act < rhs - feas_tol))
           | (eq & (np.abs(act - rhs) > feas_tol)))
    if count_nonzero(bad):
        i = int(np.argmax(bad))
        a, b = float(act[i]), inst.rows[i].rhs
        amount = a - b if le[i] else b - a if ge[i] else abs(a - b)
        return FeasibilityResult(False, Violation("row", i, float(amount)))
    return FeasibilityResult(True)


# ---------------------------------------------------------------------------
# Instance file I/O (JSON schema, see README)
# ---------------------------------------------------------------------------

def _number(value, error, where: str) -> float:
    """A JSON number (not a boolean) or the string "inf" or "-inf" as a
    float, else `error` naming `where`; an integer beyond float range is
    not a number either.  Finiteness is MipInstance's to check."""
    if value == "inf" or value == "-inf":
        return float(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{where}: not a number: {value!r}")


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
    if not isinstance(var_specs, list) or not isinstance(row_specs, list):
        raise InstanceError(f"{path}: 'vars' and 'rows' must be lists")

    names, lower, upper, obj = [], [], [], []
    integer = set()
    for k, v in enumerate(var_specs):
        if not isinstance(v, dict):
            raise InstanceError(f"{path}: variable #{k} must be an object, got {v!r}")
        try:
            vname = v["name"]
            if not isinstance(vname, str):
                raise InstanceError(f"{path}: variable #{k}: name {vname!r} is not a string")
            where = f"{path}: variable '{vname}'"
            lower.append(_number(v["lb"], InstanceError, f"{where}: lb"))
            upper.append(_number(v["ub"], InstanceError, f"{where}: ub"))
            obj.append(_number(v["obj"], InstanceError, f"{where}: obj"))
            integral = v["integer"]
            if not isinstance(integral, bool):
                raise InstanceError(f"{where}: integer must be true or false, "
                                    f"got {integral!r}")
            if integral:
                integer.add(k)
        except KeyError as exc:
            raise InstanceError(f"{path}: variable #{k}: missing key {exc}") from None
        names.append(vname)
    name_to_idx = {nm: j for j, nm in enumerate(names)}

    rows = []
    for i, r in enumerate(row_specs):
        if not isinstance(r, dict):
            raise InstanceError(f"{path}: row #{i} must be an object, got {r!r}")
        try:
            rname = r["name"]
            coefs = r["coefs"]
            rsense = Sense(r["sense"])
            rhs = _number(r["rhs"], InstanceError, f"{path}: row #{i}: rhs")
        except KeyError as exc:
            raise InstanceError(f"{path}: row #{i}: missing key {exc}") from None
        except InstanceError:
            raise
        except ValueError:
            raise InstanceError(f"{path}: row #{i}: bad sense {r.get('sense')!r}") from None
        if not isinstance(coefs, dict):
            raise InstanceError(f"{path}: row '{rname}': coefs must be an object")
        pairs = []
        for vname, coef in coefs.items():
            if vname not in name_to_idx:
                raise InstanceError(f"{path}: row '{rname}': unknown variable '{vname}'")
            pairs.append((name_to_idx[vname], _number(
                coef, InstanceError, f"{path}: row '{rname}': coefficient of '{vname}'")))
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


def _read_json(path: Path, error):
    """The JSON value in the file at `path`, else `error` naming the file."""
    if not path.exists():
        raise error(f"{path}: file not found")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    except ValueError as exc:   # an integer of more digits than int() takes
        raise error(f"{path}: {exc}") from None


def load_instance(path) -> MipInstance:
    """Load and validate an instance file."""
    path = Path(path)
    return instance_from_dict(_read_json(path, InstanceError), str(path))


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
    _cache: dict = field(default_factory=dict, init=False, repr=False)  # index -> instance

    def __len__(self) -> int:
        return len(self.instance_paths)

    def load(self, index: int) -> MipInstance:
        """The instance at `index`, parsed on first use only."""
        if index not in self._cache:
            self._cache[index] = load_instance(self.instance_paths[index])
        return self._cache[index]

    def instances(self):
        for i in range(len(self)):
            yield self.load(i)


def _check_time_limit(time_limit: float, where) -> None:
    """A manifest's per-instance time limit must be positive and finite."""
    if not 0 < time_limit < INF:   # NaN fails too
        raise SeriesError(f"{where}: time limit must be positive and finite")


def load_series(path) -> SeriesManifest:
    """Load a manifest and validate every referenced instance; the manifest
    keeps the parsed instances, so each file is read once.

    All instances must share the variable name set; when MATRIX is not among
    the changing components the variable order must match as well.
    """
    path = Path(path)
    data = _read_json(path, SeriesError)
    if not isinstance(data, dict):
        raise SeriesError(f"{path}: top level must be an object")
    try:
        series_name = data["series_name"]
        time_limit = _number(data["time_limit"], SeriesError, f"{path}: time_limit")
        if not isinstance(data["changing"], list):
            raise SeriesError(f"{path}: changing must be a list")
        changing = frozenset(Component(c) for c in data["changing"])
        rel_paths = data["instances"]
    except KeyError as exc:
        raise SeriesError(f"{path}: missing key {exc}") from None
    except SeriesError:
        raise
    except ValueError as exc:
        raise SeriesError(f"{path}: {exc}") from None
    if not isinstance(rel_paths, list) or not all(isinstance(p, str) for p in rel_paths):
        raise SeriesError(f"{path}: instances must be a list of file names")

    if not rel_paths:
        raise SeriesError(f"{path}: empty series")
    _check_time_limit(time_limit, path)
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
    if not 0 < magnitude < INF:   # NaN fails too
        raise ValueError(f"magnitude must be positive and finite, got {magnitude!r}")
    kinds = frozenset(Component(k) for k in kinds)
    return [perturb_instance(base, kinds if i else frozenset(),
                             np.random.default_rng([seed, i]), magnitude,
                             f"{base.name}_{i:03d}")
            for i in range(count)]


def generate_series_files(base: MipInstance, kinds, count: int, seed: int,
                          magnitude: float, out_dir, time_limit: float,
                          series_name: str | None = None) -> Path:
    """Write a perturbed series plus its manifest; returns the manifest path.
    Every argument is checked before any file is written."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    _check_time_limit(time_limit, manifest_path)
    kinds = frozenset(Component(k) for k in kinds)
    series_name = series_name or f"{base.name}_{'_'.join(sorted(k.value.lower() for k in kinds))}"
    instances = perturb_series(base, kinds, count, seed, magnitude)
    out_dir.mkdir(parents=True, exist_ok=True)
    rel_paths = []
    for inst in instances:
        fname = f"{inst.name}.json"
        save_instance(inst, out_dir / fname)
        rel_paths.append(fname)
    data = {
        "series_name": series_name,
        "time_limit": time_limit,
        "changing": sorted(k.value for k in kinds),
        "instances": rel_paths,
    }
    manifest_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return manifest_path
