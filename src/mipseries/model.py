"""Problem data model: MIP instances, solutions, series manifests and generators.

Instances are interchanged as JSON files with explicit variable/row objects,
minimization only.  `MipInstance` is the one place that checks and
normalizes instance data, whether it comes from a file or is built in code:
it rounds integer bounds inward, turns each row's sense into a `Sense`, and
rejects non-finite costs, rhs values and coefficients that are not finite
real numbers (a bool or a string is none), bad or crossed bounds, integer
bounds that hold no integer, variable names that are not distinct strings,
indices that are not integers in range, a row that names a variable twice
and unknown senses.  It derives its arrays (integer mask and indices, name
index, dense matrix, rhs, senses and row-sense masks) once, at
construction, and hands them out read-only.  The file loader only converts
JSON types to numbers and prefixes the validator's message with the file
path.  All types are immutable after construction and safe to share
read-only across threads.
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
    lines = []
    for row in rows:
        line = [0.0] * n
        for j, c in row.coefs:
            line[j] = c
        lines.append(line)
    return np.array(lines, dtype=float).reshape(len(rows), n)


def integral_rows(mat: np.ndarray, is_int: np.ndarray) -> np.ndarray:
    """Per row of `mat`: True when the row has a nonzero and each nonzero
    lies on an integer column (`is_int`) within 1e-9 of a nonzero integer,
    so that its activity is an integer at every integer-feasible point.  A
    coefficient such as 1e-10 is not integral: it rounds to 0."""
    nonzero = mat != 0
    rounded = np.round(mat)
    integral = is_int & (np.abs(mat - rounded) <= 1e-9) & (rounded != 0)
    return (np.logical_or.reduce(nonzero, axis=1)
            & np.logical_and.reduce(integral | ~nonzero, axis=1))


def _is_integer(j) -> bool:
    """True for a Python or numpy integer, not a bool."""
    return isinstance(j, (int, np.integer)) and not isinstance(j, bool)


def _not_a_finite_number(value) -> str | None:
    """None for a finite Python or numpy real number, else what is wrong
    with `value`: a bool, a string, an integer beyond float range or any
    other object is not a number; an infinity or a NaN is not finite."""
    if type(value) is not float and (   # float: the common case, without a call
            isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        return f"is not a number: {value!r}"
    try:
        return None if math.isfinite(value) else f"is not finite: {value}"
    except OverflowError:   # an integer beyond float range, as in a file
        return f"is not a number: {value!r}"


@dataclass(eq=False, frozen=True)
class MipInstance:
    """Full problem data: minimize obj subject to rows, bounds and integrality.

    Construction validates the data and derives, once and read-only,
    everything the accessors return and the LE, GE and EQ row masks that
    `check_feasibility` reads."""

    name: str
    var_names: tuple[str, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: frozenset[int]
    rows: tuple[LinearRow, ...]

    def __post_init__(self):
        # copies: the caller's arrays stay theirs and writable, and the
        # integer bounds are rounded below
        for name in ("objective", "lower", "upper"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        self._validate()
        # Integer variables keep integral bounds; rounding inward is lossless
        # for the integer feasible set.  Infinities pass through; + 0.0 turns
        # a -0.0 into 0.0.
        ints = sorted(self.integer_mask)
        given_lo, given_hi = self.lower[ints], self.upper[ints]
        self.lower[ints] = np.ceil(given_lo - 1e-9) + 0.0
        self.upper[ints] = np.floor(given_hi + 1e-9) + 0.0
        empty = np.flatnonzero(self.lower[ints] > self.upper[ints])
        if len(empty):
            k = int(empty[0])
            raise InstanceError(f"{self.name}: variable '{self.var_names[ints[k]]}': no "
                                f"integer value in [{float(given_lo[k])}, {float(given_hi[k])}]")
        is_int = np.zeros(self.num_vars, dtype=bool)
        is_int[ints] = True
        senses = tuple(row.sense for row in self.rows)
        derived = {
            "_is_int": is_int,
            "_int_idx": np.flatnonzero(is_int),
            "_dense": dense_block(self.rows, self.num_vars),
            "_rhs": np.array([row.rhs for row in self.rows], dtype=float),
            "_senses": senses,
            "_sense_rows": tuple(np.array([s is sense for s in senses], dtype=bool)
                                 for sense in (Sense.LE, Sense.GE, Sense.EQ)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for arr in (self.objective, self.lower, self.upper, is_int, self._int_idx,
                    self._dense, self._rhs, *self._sense_rows):
            arr.setflags(write=False)

    def _validate(self):
        """InstanceError, naming the variable or row, for a name that is not
        a string or is repeated, an array of the wrong length, an index in
        `integer_mask` or a row that is not a Python or numpy integer (a bool
        is not) in range, a cost that is not finite, an rhs or coefficient
        that is not a finite Python or numpy real number (a bool is not),
        a NaN bound, a lower bound of +inf, an upper bound of -inf, crossed
        bounds, a bad row sense or a row that names a variable twice.  On
        the way it turns each row's sense into a `Sense` and builds the
        name index."""
        n = len(self.var_names)
        index = {}
        for j, vname in enumerate(self.var_names):
            if not isinstance(vname, str):
                raise InstanceError(f"{self.name}: variable #{j}: name {vname!r} "
                                    f"is not a string")
            if index.setdefault(vname, j) != j:
                raise InstanceError(f"{self.name}: duplicate variable name '{vname}'")
        for arr, what in ((self.objective, "objective"),
                          (self.lower, "lower bounds"),
                          (self.upper, "upper bounds")):
            if arr.shape != (n,):
                raise InstanceError(f"{self.name}: {what} length {arr.shape} != {n}")
        for j in self.integer_mask:
            if not (_is_integer(j) and 0 <= j < n):
                raise InstanceError(f"{self.name}: integer index {j!r} is not a "
                                    f"variable index in [0, {n})")
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
        rows = []
        for row in self.rows:
            where = f"{self.name}: row '{row.name}'"
            # Sense is a str enum, so "LE" passes for Sense.LE in an equality
            # test; the solver and check_feasibility compare senses by identity.
            try:
                sense = Sense(row.sense)
            except ValueError:
                raise InstanceError(f"{where}: bad sense {row.sense!r}") from None
            rows.append(row if row.sense is sense else replace(row, sense=sense))
            bad = _not_a_finite_number(row.rhs)
            if bad:
                raise InstanceError(f"{where}: rhs {bad}")
            seen = set()
            for j, c in row.coefs:
                # type(j) is int: the common case, without a call
                if not ((type(j) is int or _is_integer(j)) and 0 <= j < n):
                    raise InstanceError(f"{where}: variable index {j!r} is not an "
                                        f"integer in [0, {n})")
                if j in seen:
                    raise InstanceError(f"{where} names '{self.var_names[j]}' twice")
                seen.add(j)
                bad = _not_a_finite_number(c)
                if bad:
                    raise InstanceError(f"{where}: coefficient of "
                                        f"'{self.var_names[j]}' {bad}")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_name_to_idx", index)

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def var_index(self, name: str) -> int:
        return self._name_to_idx[name]

    def is_integer(self) -> np.ndarray:
        """Boolean mask over variables, True for integer-constrained ones."""
        return self._is_int

    def integer_indices(self) -> np.ndarray:
        """Indices of the integer variables, ascending."""
        return self._int_idx

    def dense_matrix(self) -> np.ndarray:
        """Row-major dense constraint matrix (m x n)."""
        return self._dense

    def rhs_array(self) -> np.ndarray:
        return self._rhs

    def senses(self) -> tuple[Sense, ...]:
        return self._senses


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
    le, ge, eq = inst._sense_rows
    bad = ((le & (act > rhs + feas_tol)) | (ge & (act < rhs - feas_tol))
           | (eq & (np.abs(act - rhs) > feas_tol)))
    if count_nonzero(bad):
        i = int(np.argmax(bad))
        a, b = float(act[i]), float(rhs[i])
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
            rsense = r["sense"]
            rhs = _number(r["rhs"], InstanceError, f"{path}: row #{i}: rhs")
        except KeyError as exc:
            raise InstanceError(f"{path}: row #{i}: missing key {exc}") from None
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
    names = tuple if Component.MATRIX not in changing else frozenset
    for i in range(1, len(manifest)):
        inst = manifest.load(i)
        if names(inst.var_names) != names(first.var_names):
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
        # a share `magnitude` of the columns with a finite, nonempty range
        # (at least one) lowers its upper bound: an integer column by 1 to
        # max(1, round(magnitude x width)) steps, a continuous one by up to
        # min(magnitude, 1) of its width
        movable = [j for j in range(base.num_vars)
                   if math.isfinite(lower[j]) and math.isfinite(upper[j])
                   and upper[j] > lower[j]]
        count = min(max(1, round(magnitude * len(movable))), len(movable))
        for j in sorted(rng.choice(movable, size=count, replace=False).tolist()):
            width = upper[j] - lower[j]
            if j in base.integer_mask:
                cap = max(1, int(round(magnitude * width)))
                upper[j] -= min(int(rng.integers(1, cap + 1)), int(width))
            else:
                upper[j] -= width * min(magnitude, 1.0) * rng.uniform(0.0, 1.0)

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
