"""Scoring, the sequential series orchestrator, and report emission.

Per instance the total score is the sum of a time score (fraction of the
time limit used when solved, 1 otherwise) and a gap score (relative
primal-dual gap, 1 on infinite bounds or sign-crossing bounds).  The
orchestrator wires solution hints, history transfer, the branching-rule
policy, online parameter tuning and component turn-off around the solver,
one instance at a time, and can checkpoint/resume a run through an
append-only journal.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .model import MipInstance, SeriesManifest
from .reopt import (PoolEntry, SolutionPool, assemble_hints, branching_policy,
                    completesol_params, record_outcome, transfer_histories)
from .solver import (ALL_HEURISTICS, ALL_PRESOLVERS, HEUR_COMPLETESOL,
                     HEUR_ROUNDING, SEP_GOMORY, BranchingRule, SolveStatus,
                     SolverConfig, VariableHistory, solve)
from .solver.config import check_det_clock
from .tuner import ON, PARAM_ORDER, TUNING_START_INDEX, Param, TunerState, left_sum
from .turnoff import ComponentLedger, ComponentRecord

GEOMEAN_SHIFT = 10.0
CHECKPOINT_VERSION = 5
BATCH_SIZE = 10

TECHNIQUES = ("hints", "history", "sb", "tuning", "turnoff")

CSV_COLUMNS = ("index", "status", "time", "pb", "db", "time_score",
               "gap_score", "total_score", "hint_converted", "rule",
               "hint", "cuts", "rootcuts")


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def time_score(solve_time: float, time_limit: float, solved: bool) -> float:
    """Fraction of the limit used when solved to optimality, 1 otherwise."""
    if time_limit <= 0:
        raise ValueError("time_limit must be positive")
    if not solved:
        return 1.0
    return min(solve_time / time_limit, 1.0)


def gap_score(pb: float, db: float) -> float:
    """Relative gap |pb-db| / max(|pb|,|db|); 1 on infinite or sign-crossing
    bounds; 0 at pb == db (including 0, 0)."""
    if math.isinf(pb) or math.isinf(db) or math.isnan(pb) or math.isnan(db):
        return 1.0
    if pb * db < 0:
        return 1.0
    if pb == db:
        return 0.0
    return abs(pb - db) / max(abs(pb), abs(db))


def shifted_geomean(times) -> float:
    """exp(mean(ln(t + GEOMEAN_SHIFT))) - GEOMEAN_SHIFT."""
    times = list(times)
    if not times:
        raise ValueError("shifted_geomean of an empty list")
    return math.exp(left_sum(math.log(t + GEOMEAN_SHIFT) for t in times)
                    / len(times)) - GEOMEAN_SHIFT


@dataclass
class ScoreRecord:
    instance_index: int
    status: str
    solve_time: float
    pb: float
    db: float
    time_score: float
    gap_score: float
    hint_converted: bool
    rule: str
    hint_value: str
    cuts_value: str
    root_cuts_value: str
    hints_provided: bool = False
    error: str | None = None

    @property
    def total_score(self) -> float:
        """Sum of the two equally weighted components."""
        return self.time_score + self.gap_score


# The JSON types a checkpoint may hold for each ScoreRecord annotation.
_JSON_TYPES = {"int": (int,), "float": (float,), "str": (str,), "bool": (bool,),
               "str | None": (str, type(None))}


# The statuses and rules a record may hold: a solve's, or a failed one's.
_RECORD_STATUSES = tuple(s.value for s in SolveStatus) + ("ERROR",)
_RECORD_RULES = tuple(r.value for r in BranchingRule) + ("-",)


def _record_from_json(data, where: str) -> ScoreRecord:
    """A record with each field of its JSON type, a known status and rule,
    an error message exactly when the status is ERROR, hints provided only
    where a solve gets them (after instance 0, with the hint value ON) and
    converted only where provided."""
    record = ScoreRecord(**data)     # TypeError on a missing or unknown field
    for f in fields(ScoreRecord):
        value, kinds = getattr(record, f.name), _JSON_TYPES[f.type]
        if type(value) not in kinds:     # exact, so a bool is not an int
            raise ValueError(f"{where}: record field {f.name!r} is {value!r}, expected "
                             + " or ".join(k.__name__ for k in kinds))
    for name, known in (("status", _RECORD_STATUSES), ("rule", _RECORD_RULES)):
        if getattr(record, name) not in known:
            raise ValueError(f"{where}: record field {name!r} is "
                             f"{getattr(record, name)!r}, expected one of {known}")
    if (record.error is None) != (record.status != "ERROR"):
        raise ValueError(f"{where}: record field 'error' is {record.error!r}, "
                         f"but field 'status' is {record.status!r}")
    if record.hints_provided and (record.instance_index < 1 or record.hint_value != ON):
        raise ValueError(f"{where}: record field 'hints_provided' is True, but instance "
                         f"{record.instance_index} with hint value "
                         f"{record.hint_value!r} gets no hints")
    if record.hint_converted and not record.hints_provided:
        raise ValueError(f"{where}: record field 'hint_converted' is True, "
                         "but no hints were provided")
    return record


def _finite(value, what: str, nonnegative: bool = False) -> float:
    """A journal's JSON number (an int or a float, not a bool) as a float;
    ValueError naming `what` unless it is finite (and >= 0 when
    `nonnegative`)."""
    if type(value) not in (int, float) or not math.isfinite(value) \
            or (nonnegative and value < 0):
        raise ValueError(f"{what} is {value!r}, expected a finite"
                         + (" non-negative" if nonnegative else "") + " number")
    return float(value)


def _pool_entry_from_json(data, index: int, var_names, where: str) -> PoolEntry:
    """An archived solution: a finite objective and a finite value on each
    of the instance's variable names."""
    entry = PoolEntry(index, **data)     # TypeError on a missing or unknown field
    if type(entry.values) is not dict or entry.values.keys() != set(var_names):
        raise ValueError(f"{where}: the pool entry's values do not name the "
                         "instance's variables")
    entry.objective = _finite(entry.objective, f"{where}: pool entry objective")
    entry.values = {name: _finite(v, f"{where}: pool entry value {name!r}")
                    for name, v in entry.values.items()}
    return entry


def _history_from_json(data, what: str) -> VariableHistory:
    """A history with finite sums and finite non-negative counts."""
    hist = VariableHistory(**data)       # TypeError on a missing or unknown field
    for name, value in vars(hist).items():
        setattr(hist, name, _finite(value, f"{what} field {name!r}",
                                    nonnegative=name.endswith("_count")))
    return hist


def _warm_from_json(data, where: str) -> tuple[dict, VariableHistory]:
    return ({name: _history_from_json(h, f"{where}: history of {name!r}")
             for name, h in data["histories"].items()},
            _history_from_json(data["global_history"], f"{where}: global history"))


def _ledger_from_json(data, where: str) -> ComponentLedger:
    """The component ledger: each known component once, under its own name
    and kind, with finite non-negative amounts and non-negative integer
    instance counts."""
    known = ComponentLedger().records
    ledger = ComponentLedger.from_json_dict(data)   # TypeError on a missing or unknown field
    if data.keys() != known.keys():
        raise ValueError(f"{where}: the ledger holds {sorted(data)}, "
                         f"expected {sorted(known)}")
    for name, rec in ledger.records.items():
        if (rec.name, rec.kind) != (name, known[name].kind):
            raise ValueError(f"{where}: ledger record {name!r} has name {rec.name!r} "
                             f"and kind {rec.kind!r}, expected {known[name].kind!r}")
        for f in fields(ComponentRecord)[2:]:   # after name and kind
            value, what = getattr(rec, f.name), f"{where}: ledger record {name!r} field {f.name!r}"
            if f.type == "float":
                setattr(rec, f.name, _finite(value, what, nonnegative=True))
            elif not ((type(value) is int and value >= 0)
                      or (value is None and f.type == "int | None")):
                raise ValueError(f"{what} is {value!r}, expected a non-negative integer")
    return ledger


def _batch_means(totals: list[float]) -> list[tuple[str, int, float]]:
    """(label "first-last", count, mean) per batch of BATCH_SIZE consecutive
    totals; the final partial batch is averaged over its actual size."""
    out = []
    for start in range(0, len(totals), BATCH_SIZE):
        chunk = totals[start:start + BATCH_SIZE]
        out.append((f"{start + 1}-{start + len(chunk)}", len(chunk),
                    left_sum(chunk) / len(chunk)))
    return out


def batch_averages(records) -> list[dict]:
    """Mean total score per batch of BATCH_SIZE consecutive instances."""
    return [{"batch": label, "count": count, "mean_total_score": mean}
            for label, count, mean in _batch_means([r.total_score for r in records])]


def improvement_pct(base: float, new: float) -> float:
    """Percent improvement of `new` over `base` (positive is better)."""
    if base == 0:
        return 0.0
    return 100.0 * (base - new) / base


# ---------------------------------------------------------------------------
# Series orchestration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    seed: int = 0
    det_work_per_second: float | None = None
    disable: frozenset = frozenset()
    alpha_pct: float = 90.0
    checkpoint_path: str | Path | None = None

    def __post_init__(self):
        bad = set(self.disable) - set(TECHNIQUES)
        if bad:
            raise ValueError(f"unknown technique(s) to disable: {sorted(bad)}")
        self.disable = frozenset(self.disable)
        check_det_clock(self.det_work_per_second)
        if not 0 <= self.alpha_pct <= 100:   # NaN fails too
            raise ValueError(f"alpha_pct must be within 0..100, got {self.alpha_pct!r}")


@dataclass
class SeriesReport:
    series_name: str
    records: list
    batch_averages: list
    shifted_geomean_time: float
    mean_total_score: float
    tuner_summary: dict
    turnoff_summary: list
    hints_provided_count: int
    hints_converted_count: int

    def summary_dict(self) -> dict:
        provided = self.hints_provided_count
        return {
            "series_name": self.series_name,
            "num_instances": len(self.records),
            "mean_total_score": self.mean_total_score,
            "batch_averages": self.batch_averages,
            "shifted_geomean_time": self.shifted_geomean_time,
            "tuner": self.tuner_summary,
            "turnoff": self.turnoff_summary,
            "hints": {
                "provided": provided,
                "converted": self.hints_converted_count,
                "conversion_rate_pct": (100.0 * self.hints_converted_count / provided)
                                       if provided else 0.0,
            },
            "errors": [{"index": r.instance_index, "error": r.error}
                       for r in self.records if r.error is not None],
        }


class _SeriesState:
    """What the next solve reads, and nothing more: the archived solutions
    hints are built from, the capped histories the next solve starts from
    (None until a solve gives them), the tuner, the component ledger, and
    the records so far.  A technique that is off keeps nothing: its part is
    None."""

    def __init__(self, run_cfg: RunConfig):
        off = run_cfg.disable
        self.pool = None if "hints" in off else SolutionPool()
        self.warm: tuple[dict, VariableHistory] | None = None
        self.tuner = None if "tuning" in off else TunerState(seed=run_cfg.seed)
        self.ledger = None if "turnoff" in off else ComponentLedger()
        self.records: list[ScoreRecord] = []

    def select_values(self, t: int) -> dict:
        """The tuner's parameter values for instance t, all ON when untuned."""
        if self.tuner is None or t < TUNING_START_INDEX:
            return dict.fromkeys(PARAM_ORDER, ON)
        return self.tuner.select_values(t)

    def credit(self, record: ScoreRecord) -> None:
        """Credit the tuner with a record's values and score, if it tuned them."""
        if self.tuner is None or record.instance_index < TUNING_START_INDEX:
            return
        base = -record.total_score
        self.tuner.update(Param.HINT, record.hint_value, base,
                          hints_provided=record.hints_provided,
                          hint_converted=record.hint_converted)
        self.tuner.update(Param.CUTS, record.cuts_value, base)
        self.tuner.update(Param.ROOT_CUTS, record.root_cuts_value, base)


# A checkpoint is a JSON-lines journal.  The first line is the header: the
# version, the series and the run settings its records depend on.  Then one
# line per finished instance holds its record, its archived solution, and
# the capped histories and ledger after it.  A part is null while there is
# nothing to keep, and always for a technique that is off.  The tuner is not
# stored: a resume replays it over the records.

_PART_OF = {"pool_entry": "hints", "warm": "history", "ledger": "turnoff"}


def _journal_line(state: _SeriesState, record: ScoreRecord) -> dict:
    entry = None if state.pool is None else state.pool.get(record.instance_index)
    warm = None
    if state.warm is not None:
        by_name, global_hist = state.warm
        warm = {"histories": {name: h.to_dict() for name, h in by_name.items()},
                "global_history": global_hist.to_dict()}
    return {"record": dict(vars(record)),      # flat: no deep copy
            "pool_entry": None if entry is None else
                          {"objective": entry.objective, "values": entry.values},
            "warm": warm,
            "ledger": None if state.ledger is None else state.ledger.to_json_dict()}


def _write_checkpoint(path, line: dict) -> None:
    """Append one line to the journal at `path`."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def _load_checkpoint(path, manifest: SeriesManifest, run_cfg: RunConfig) -> _SeriesState:
    """The state the journal at `path` ends in, with the file cut back to its
    last whole line (a torn last line is dropped).  A missing file, or one
    without a whole line, starts a new journal that holds only the header;
    a first line that parses must still be a header of this version.  Each
    part a resume reads is typed like a record; one of another kind is a
    ValueError naming its line and field."""
    path = Path(path)
    header = {"version": CHECKPOINT_VERSION, "series_name": manifest.series_name,
              "num_instances": len(manifest), "seed": run_cfg.seed,
              "disable": sorted(run_cfg.disable), "alpha_pct": run_cfg.alpha_pct,
              "det_work_per_second": run_cfg.det_work_per_second}
    raw = path.read_bytes() if path.exists() else b""
    *whole, torn = raw.split(b"\n")
    state = _SeriesState(run_cfg)
    try:
        first = json.loads(whole[0] if whole else torn)
    except ValueError:
        first = None                    # empty, torn, or not JSON
    version = first.get("version") if isinstance(first, dict) else None
    if (whole or first is not None) and version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path} has version {version!r}, "
                         f"expected {CHECKPOINT_VERSION}")
    if not whole:
        path.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
        return state
    for key, value in header.items():
        if json.dumps(first.get(key)) != json.dumps(value):    # so False is not 0
            raise ValueError(f"checkpoint {path} does not match this run: its {key} "
                             f"is {first.get(key)!r}, this run's is {value!r}")
    lines = whole[1:]
    if len(lines) > len(manifest):
        raise ValueError(f"checkpoint {path} is malformed: {len(lines)} records "
                         f"for {len(manifest)} instances")
    try:
        for t, line in enumerate(map(json.loads, lines)):
            record = _record_from_json(line["record"], f"line {t + 2}")
            if record.instance_index != t:
                raise ValueError(f"line {t + 2} holds instance "
                                 f"{record.instance_index}, expected {t}")
            values = state.select_values(t)
            if [values[p] for p in PARAM_ORDER] != \
                    [record.hint_value, record.cuts_value, record.root_cuts_value]:
                raise ValueError(f"line {t + 2}: the replayed tuner values differ "
                                 "from the record's")
            state.credit(record)
            for part, technique in _PART_OF.items():
                if technique in run_cfg.disable and line[part] is not None:
                    raise ValueError(f"line {t + 2} holds a {part}, but {technique} is off")
            if line["pool_entry"] is not None:
                state.pool.set(t, _pool_entry_from_json(
                    line["pool_entry"], t, manifest.load(t).var_names, f"line {t + 2}"))
            state.records.append(record)
        last = f"line {len(lines) + 1}"
        if lines and line["warm"] is not None:
            state.warm = _warm_from_json(line["warm"], last)
        if lines and state.ledger is not None:
            state.ledger = _ledger_from_json(line["ledger"], last)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} is malformed: "
                         f"{type(exc).__name__}: {exc}") from exc
    os.truncate(path, len(raw) - len(torn))
    return state


def _error_record(index: int, message: str, values: dict) -> ScoreRecord:
    """A failed solve's record, with the values the tuner is credited with."""
    return ScoreRecord(
        instance_index=index, status="ERROR", solve_time=0.0,
        pb=math.inf, db=-math.inf, time_score=1.0, gap_score=1.0,
        hint_converted=False, rule="-", hint_value=values[Param.HINT],
        cuts_value=values[Param.CUTS], root_cuts_value=values[Param.ROOT_CUTS],
        hints_provided=False, error=message)


def _solve_one(state: _SeriesState, manifest: SeriesManifest,
               run_cfg: RunConfig, inst: MipInstance, t: int) -> ScoreRecord:
    changing = manifest.changing_components
    limit = manifest.time_limit_per_instance
    rule = (BranchingRule.RELIABILITY if "sb" in run_cfg.disable
            else branching_policy(t, changing))

    values = state.select_values(t)
    disabled = set() if state.ledger is None else state.ledger.disabled_components()

    # hint completion is the only reader of hints
    hints = ()
    if (state.pool is not None and t >= 1 and values[Param.HINT] == ON
            and HEUR_COMPLETESOL not in disabled):
        hints = assemble_hints(state.pool, inst, changing, run_cfg.alpha_pct)
    hints_provided = len(hints) > 0

    cuts = SEP_GOMORY not in disabled
    cs_node_limit, cs_max_improving = completesol_params(changing)
    cfg = SolverConfig(
        branching_rule=rule,
        use_cuts_root=cuts and values[Param.ROOT_CUTS] == ON,
        use_cuts_tree=cuts and values[Param.CUTS] == ON,
        enabled_heuristics=frozenset(ALL_HEURISTICS - disabled),
        enabled_presolvers=frozenset(ALL_PRESOLVERS - disabled),
        completesol_node_limit=cs_node_limit,
        completesol_max_improving=cs_max_improving,
        det_work_per_second=run_cfg.det_work_per_second)

    try:
        outcome = solve(inst, cfg, limit, hints=[h.assignment for h in hints],
                        warm_histories=state.warm)
    except Exception as exc:   # instance-level failure: record it, move on
        outcome, record = None, _error_record(t, f"{type(exc).__name__}: {exc}", values)
    else:
        solved = outcome.status is SolveStatus.OPTIMAL
        ts = time_score(outcome.solve_time, limit, solved)
        gs = gap_score(outcome.primal_bound, outcome.dual_bound)
        record = ScoreRecord(
            instance_index=t, status=outcome.status.value,
            solve_time=outcome.solve_time, pb=outcome.primal_bound,
            db=outcome.dual_bound, time_score=ts, gap_score=gs,
            hint_converted=outcome.stats.hint_converted,
            rule=rule.value, hint_value=values[Param.HINT],
            cuts_value=values[Param.CUTS], root_cuts_value=values[Param.ROOT_CUTS],
            hints_provided=hints_provided)

    state.credit(record)
    if outcome is None:
        return record

    if state.ledger is not None:
        enabled = set()
        enabled |= cfg.enabled_presolvers
        if HEUR_ROUNDING in cfg.enabled_heuristics:
            enabled.add(HEUR_ROUNDING)
        if HEUR_COMPLETESOL in cfg.enabled_heuristics and hints_provided:
            enabled.add(HEUR_COMPLETESOL)
        if cfg.use_cuts_root or cfg.use_cuts_tree:
            enabled.add(SEP_GOMORY)
        state.ledger.accumulate(outcome.stats, enabled)
        state.ledger.evaluate(limit, t)

    if state.pool is not None:
        record_outcome(state.pool, outcome, t, inst.var_names)
    if "history" not in run_cfg.disable:
        state.warm = transfer_histories(outcome)
    return record


def run_series(manifest: SeriesManifest, run_cfg: RunConfig) -> SeriesReport:
    """Solve the series in order, reusing information between instances.

    Techniques can be disabled independently via run_cfg.disable (subset of
    hints/history/sb/tuning/turnoff); disabling all of them is the
    solve-from-scratch baseline.  With a checkpoint path, the run resumes
    from the journal when one exists and appends a line after each instance.
    """
    ckpt = run_cfg.checkpoint_path
    state = _SeriesState(run_cfg) if ckpt is None else _load_checkpoint(ckpt, manifest, run_cfg)

    for t in range(len(state.records), len(manifest)):
        inst = manifest.load(t)
        record = _solve_one(state, manifest, run_cfg, inst, t)
        state.records.append(record)
        if ckpt is not None:
            _write_checkpoint(ckpt, _journal_line(state, record))

    records = state.records
    provided = sum(1 for r in records if r.hints_provided)
    converted = sum(1 for r in records if r.hint_converted)
    return SeriesReport(
        series_name=manifest.series_name,
        records=records,
        batch_averages=batch_averages(records),
        shifted_geomean_time=shifted_geomean([r.solve_time for r in records])
                             if records else 0.0,
        mean_total_score=(left_sum(r.total_score for r in records) / len(records))
                         if records else 0.0,
        tuner_summary={} if state.tuner is None else state.tuner.summary(),
        turnoff_summary=[] if state.ledger is None else state.ledger.summary(),
        hints_provided_count=provided,
        hints_converted_count=converted)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report: SeriesReport, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in report.records:
            writer.writerow([
                r.instance_index, r.status, _csv_cell(r.solve_time),
                _csv_cell(r.pb), _csv_cell(r.db), _csv_cell(r.time_score),
                _csv_cell(r.gap_score), _csv_cell(r.total_score),
                _csv_cell(r.hint_converted), r.rule, r.hint_value,
                r.cuts_value, r.root_cuts_value])


def write_report_summary(report: SeriesReport, path) -> None:
    Path(path).write_text(
        json.dumps(report.summary_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def read_report_csv(path) -> list[dict]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _report_totals(path) -> tuple[list[str], list[float]]:
    """The index and total_score columns of a report CSV; ValueError naming
    the file when a row lacks either or a total is not a number."""
    rows = read_report_csv(path)
    try:
        return [r["index"] for r in rows], [float(r["total_score"]) for r in rows]
    except KeyError as exc:
        raise ValueError(f"{path}: not a report: no {exc.args[0]} column") from None
    except (TypeError, ValueError):   # a short row gives None
        raise ValueError(f"{path}: not a report: a total_score is not a number") from None


def improvement_table(report_csv, baseline_csv) -> dict:
    """Batch-wise and overall percent improvement of a report over a baseline
    (both as written by write_report_csv, over the same instances: the same
    index column); ValueError naming the file when they are not."""
    new_index, new_totals = _report_totals(report_csv)
    base_index, base_totals = _report_totals(baseline_csv)
    if new_index != base_index:
        raise ValueError(f"{report_csv}: its instances ({len(new_index)} rows) are not "
                         f"those of the baseline {baseline_csv} ({len(base_index)} rows)")
    batches = [{"batch": label, "baseline": base_mean, "report": new_mean,
                "improvement_pct": improvement_pct(base_mean, new_mean)}
               for (label, _, new_mean), (_, _, base_mean)
               in zip(_batch_means(new_totals), _batch_means(base_totals))]
    base_avg = left_sum(base_totals) / len(base_totals) if base_totals else 0.0
    new_avg = left_sum(new_totals) / len(new_totals) if new_totals else 0.0
    return {
        "batches": batches,
        "overall": {
            "baseline": base_avg,
            "report": new_avg,
            "improvement_pct": improvement_pct(base_avg, new_avg),
        },
    }
