"""Scoring, the sequential series orchestrator, and report emission.

Per instance the total score is the sum of a time score (fraction of the
time limit used when solved, 1 otherwise) and a gap score (relative
primal-dual gap, 1 on infinite bounds or sign-crossing bounds).  The
orchestrator wires solution hints, history transfer, the branching-rule
policy, online parameter tuning and component turn-off around the solver,
one instance at a time, and can checkpoint/resume a run.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .model import MipInstance, SeriesManifest
from .reopt import (HistoryStore, HintSet, SolutionPool, assemble_hints,
                    branching_policy, completesol_params, record_outcome,
                    transfer_histories)
from .solver import (ALL_HEURISTICS, ALL_PRESOLVERS, ALL_SEPARATORS,
                     HEUR_COMPLETESOL, HEUR_ROUNDING, SEP_GOMORY,
                     BranchingRule, SolveStatus, SolverConfig, solve)
from .tuner import OFF, ON, Param, TunerState
from .turnoff import ComponentLedger

GEOMEAN_SHIFT = 10.0
CHECKPOINT_VERSION = 1
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


def total_score(record) -> float:
    """Sum of the two equally weighted components."""
    return record.time_score + record.gap_score


def shifted_geomean(times, shift: float = GEOMEAN_SHIFT) -> float:
    """exp(mean(ln(t + shift))) - shift."""
    times = list(times)
    if not times:
        raise ValueError("shifted_geomean of an empty list")
    return math.exp(sum(math.log(t + shift) for t in times) / len(times)) - shift


@dataclass
class ScoreRecord:
    instance_index: int
    status: str
    solve_time: float
    pb: float
    db: float
    time_score: float
    gap_score: float
    total_score: float
    hint_converted: bool
    rule: str
    hint_value: str
    cuts_value: str
    root_cuts_value: str
    hints_provided: bool = False
    error: str | None = None


def batch_averages(records, batch_size: int = BATCH_SIZE) -> list[dict]:
    """Mean total score per batch of `batch_size` consecutive instances; the
    final partial batch is averaged over its actual size."""
    out = []
    for start in range(0, len(records), batch_size):
        chunk = records[start:start + batch_size]
        out.append({
            "batch": f"{start + 1}-{start + len(chunk)}",
            "count": len(chunk),
            "mean_total_score": sum(r.total_score for r in chunk) / len(chunk),
        })
    return out


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
    stop_after: int | None = None

    def __post_init__(self):
        bad = set(self.disable) - set(TECHNIQUES)
        if bad:
            raise ValueError(f"unknown technique(s) to disable: {sorted(bad)}")
        self.disable = frozenset(self.disable)


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
    errors: list

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
            "errors": self.errors,
        }


class _SeriesState:
    def __init__(self, run_cfg: RunConfig):
        self.pool = SolutionPool()
        self.history_store = HistoryStore()
        self.tuner = TunerState(seed=run_cfg.seed)
        self.ledger = ComponentLedger()
        self.records: list[ScoreRecord] = []
        self.errors: list[dict] = []
        self.next_index = 0

    def to_json_dict(self, manifest: SeriesManifest) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "series_name": manifest.series_name,
            "num_instances": len(manifest),
            "next_index": self.next_index,
            "records": [asdict(r) for r in self.records],
            "errors": self.errors,
            "pool": self.pool.to_json_dict(),
            "history_store": self.history_store.to_json_dict(),
            "tuner": self.tuner.to_json_dict(),
            "ledger": self.ledger.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict, run_cfg: RunConfig) -> "_SeriesState":
        state = cls(run_cfg)
        state.next_index = data["next_index"]
        state.records = [ScoreRecord(**r) for r in data["records"]]
        state.errors = list(data["errors"])
        state.pool = SolutionPool.from_json_dict(data["pool"])
        state.history_store = HistoryStore.from_json_dict(data["history_store"])
        state.tuner = TunerState.from_json_dict(data["tuner"])
        state.ledger = ComponentLedger.from_json_dict(data["ledger"])
        return state


def _write_checkpoint(path, state: _SeriesState, manifest: SeriesManifest) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(state.to_json_dict(manifest), sort_keys=True),
                   encoding="utf-8")
    os.replace(tmp, path)


def _load_checkpoint(path, manifest: SeriesManifest, run_cfg: RunConfig) -> _SeriesState | None:
    path = Path(path)
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    version = data.get("version") if isinstance(data, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path} has version {version!r}, "
                         f"expected {CHECKPOINT_VERSION}")
    if data.get("series_name") != manifest.series_name \
            or data.get("num_instances") != len(manifest):
        raise ValueError(f"checkpoint {path} does not match the manifest")
    try:
        state = _SeriesState.from_json_dict(data, run_cfg)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint {path} is malformed: "
                         f"{type(exc).__name__}: {exc}") from exc
    nxt = state.next_index
    if not isinstance(nxt, int) or isinstance(nxt, bool) \
            or not 0 <= nxt <= len(manifest) or nxt != len(state.records):
        raise ValueError(f"checkpoint {path} is malformed: next_index {nxt!r} is not "
                         f"the number of records ({len(state.records)}) or is outside "
                         f"0..{len(manifest)}")
    return state


def _error_record(index: int, message: str) -> ScoreRecord:
    return ScoreRecord(
        instance_index=index, status="ERROR", solve_time=0.0,
        pb=math.inf, db=-math.inf, time_score=1.0, gap_score=1.0,
        total_score=2.0, hint_converted=False, rule="-",
        hint_value=OFF, cuts_value=OFF, root_cuts_value=OFF,
        hints_provided=False, error=message)


def _solve_one(state: _SeriesState, manifest: SeriesManifest,
               run_cfg: RunConfig, inst: MipInstance, t: int) -> ScoreRecord:
    changing = manifest.changing_components
    limit = manifest.time_limit_per_instance
    use = {tech: tech not in run_cfg.disable for tech in TECHNIQUES}

    rule = branching_policy(t, changing) if use["sb"] else BranchingRule.RELIABILITY

    tuning_active = use["tuning"] and t >= state.tuner.tuning_start_index
    if tuning_active:
        values = state.tuner.select_values(t)
    else:
        values = {Param.HINT: ON, Param.CUTS: ON, Param.ROOT_CUTS: ON}

    hints = HintSet(())
    if use["hints"] and t >= 1 and values[Param.HINT] == ON:
        hints = assemble_hints(state.pool, inst, changing, run_cfg.alpha_pct)
    hints_provided = len(hints) > 0

    warm = None
    if use["history"] and t >= 1 and state.history_store.source_index is not None:
        warm = transfer_histories(state.history_store, inst)

    disabled = state.ledger.disabled_components() if use["turnoff"] else set()
    cs_node_limit, cs_max_improving = completesol_params(changing)
    cfg = SolverConfig(
        branching_rule=rule,
        use_cuts_root=(values[Param.ROOT_CUTS] == ON),
        use_cuts_tree=(values[Param.CUTS] == ON),
        enabled_heuristics=frozenset(ALL_HEURISTICS - disabled),
        enabled_presolvers=frozenset(ALL_PRESOLVERS - disabled),
        enabled_separators=frozenset(ALL_SEPARATORS - disabled),
        completesol_node_limit=cs_node_limit,
        completesol_max_improving=cs_max_improving,
        det_work_per_second=run_cfg.det_work_per_second)

    try:
        outcome = solve(inst, cfg, limit, hints=hints, warm_histories=warm)
    except Exception as exc:   # instance-level failure: record it, move on
        state.errors.append({"index": t, "error": f"{type(exc).__name__}: {exc}"})
        record = _error_record(t, f"{type(exc).__name__}: {exc}")
        if tuning_active:
            base = -record.total_score
            state.tuner.update(Param.HINT, values[Param.HINT], base,
                               hints_provided=hints_provided, hint_converted=False)
            state.tuner.update(Param.CUTS, values[Param.CUTS], base)
            state.tuner.update(Param.ROOT_CUTS, values[Param.ROOT_CUTS], base)
        return record

    solved = outcome.status is SolveStatus.OPTIMAL
    ts = time_score(outcome.solve_time, limit, solved)
    gs = gap_score(outcome.primal_bound, outcome.dual_bound)
    record = ScoreRecord(
        instance_index=t, status=outcome.status.value,
        solve_time=outcome.solve_time, pb=outcome.primal_bound,
        db=outcome.dual_bound, time_score=ts, gap_score=gs,
        total_score=ts + gs, hint_converted=outcome.stats.hint_converted,
        rule=rule.value, hint_value=values[Param.HINT],
        cuts_value=values[Param.CUTS], root_cuts_value=values[Param.ROOT_CUTS],
        hints_provided=hints_provided)

    if tuning_active:
        base = -record.total_score
        state.tuner.update(Param.HINT, values[Param.HINT], base,
                           hints_provided=hints_provided,
                           hint_converted=outcome.stats.hint_converted)
        state.tuner.update(Param.CUTS, values[Param.CUTS], base)
        state.tuner.update(Param.ROOT_CUTS, values[Param.ROOT_CUTS], base)

    if use["turnoff"]:
        enabled = set()
        enabled |= cfg.enabled_presolvers
        if HEUR_ROUNDING in cfg.enabled_heuristics:
            enabled.add(HEUR_ROUNDING)
        if HEUR_COMPLETESOL in cfg.enabled_heuristics and hints_provided:
            enabled.add(HEUR_COMPLETESOL)
        if SEP_GOMORY in cfg.enabled_separators and \
                (cfg.use_cuts_root or cfg.use_cuts_tree):
            enabled.add(SEP_GOMORY)
        state.ledger.accumulate(outcome.stats, enabled, t)
        state.ledger.evaluate(limit, t)

    record_outcome(state.pool, state.history_store, outcome, t, inst.var_names)
    return record


def run_series(manifest: SeriesManifest, run_cfg: RunConfig) -> SeriesReport:
    """Solve the series in order, reusing information between instances.

    Techniques can be disabled independently via run_cfg.disable (subset of
    hints/history/sb/tuning/turnoff); disabling all of them is the
    solve-from-scratch baseline.  With a checkpoint path, the run resumes
    from the checkpoint when one exists and rewrites it after each instance.
    """
    state = None
    if run_cfg.checkpoint_path is not None:
        state = _load_checkpoint(run_cfg.checkpoint_path, manifest, run_cfg)
    if state is None:
        state = _SeriesState(run_cfg)

    solved_now = 0
    for t in range(state.next_index, len(manifest)):
        if run_cfg.stop_after is not None and solved_now >= run_cfg.stop_after:
            break
        inst = manifest.load(t)
        record = _solve_one(state, manifest, run_cfg, inst, t)
        state.records.append(record)
        state.next_index = t + 1
        solved_now += 1
        if run_cfg.checkpoint_path is not None:
            _write_checkpoint(run_cfg.checkpoint_path, state, manifest)

    records = state.records
    provided = sum(1 for r in records if r.hints_provided)
    converted = sum(1 for r in records if r.hint_converted)
    use_tuning = "tuning" not in run_cfg.disable
    use_turnoff = "turnoff" not in run_cfg.disable
    return SeriesReport(
        series_name=manifest.series_name,
        records=records,
        batch_averages=batch_averages(records),
        shifted_geomean_time=shifted_geomean([r.solve_time for r in records])
                             if records else 0.0,
        mean_total_score=(sum(r.total_score for r in records) / len(records))
                         if records else 0.0,
        tuner_summary=state.tuner.summary() if use_tuning else {},
        turnoff_summary=state.ledger.summary() if use_turnoff else [],
        hints_provided_count=provided,
        hints_converted_count=converted,
        errors=state.errors)


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


def improvement_table(report_csv, baseline_csv) -> dict:
    """Batch-wise and overall percent improvement of a report over a baseline
    (both as written by write_report_csv)."""
    new_rows = read_report_csv(report_csv)
    base_rows = read_report_csv(baseline_csv)
    new_totals = [float(r["total_score"]) for r in new_rows]
    base_totals = [float(r["total_score"]) for r in base_rows]

    def _batch_means(totals):
        return [sum(chunk) / len(chunk)
                for chunk in (totals[i:i + BATCH_SIZE]
                              for i in range(0, len(totals), BATCH_SIZE))]

    new_means = _batch_means(new_totals)
    base_means = _batch_means(base_totals)
    batches = []
    for i in range(min(len(new_means), len(base_means))):
        batches.append({
            "batch": f"{i * BATCH_SIZE + 1}-{min((i + 1) * BATCH_SIZE, len(new_totals))}",
            "baseline": base_means[i],
            "report": new_means[i],
            "improvement_pct": improvement_pct(base_means[i], new_means[i]),
        })
    base_avg = sum(base_totals) / len(base_totals) if base_totals else 0.0
    new_avg = sum(new_totals) / len(new_totals) if new_totals else 0.0
    return {
        "batches": batches,
        "overall": {
            "baseline": base_avg,
            "report": new_avg,
            "improvement_pct": improvement_pct(base_avg, new_avg),
        },
    }
