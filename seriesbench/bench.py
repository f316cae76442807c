"""One benchmark run: set-up, passes of reuse/scratch series, the
correctness gate and the metrics.  Entry point: seriesbench/run.py."""
from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mipseries import harness
from mipseries.harness import RunConfig, TECHNIQUES
from mipseries.kernels import get_kernels
from mipseries.solver import SolverConfig

from oracle import check_solve, reference_optima
from tracing import LAYER_OF, PRIVATE_ENTRY_POINTS, ROLES, Tracer, layer_of
from workloads import WORK_PER_SECOND, Workload, load_manifests, write_series

ARMS = (("reuse", frozenset()), ("scratch", frozenset(TECHNIQUES)))
SETUP_REPEATS = 3          # before the measurement, and again after it
REFERENCE_STEPS = 3000    # about 5 ms of reference_kernel on a 2-core x86-64 VM

# Gated end-to-end metrics, (name, unit) in print order.  The `_ref` times
# are wall times in units of the reference kernel's time (see
# reference_kernel); the raw wall seconds are printed beside them but not
# gated, because on a shared machine they follow the machine's speed.
END_TO_END = (
    ("series_wall_ref", "ref"), ("scratch_wall_ref", "ref"), ("solve_wall_tail_ref", "ref"),
    ("reuse_score", "score"), ("scratch_score", "score"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Printed but not gated: the raw wall seconds; solve_wall_p50_s (per-solve
# walls are bimodal, fast solves against limit-bound ones, and the median
# jumps between the two); improvement_pct (a ratio of the two gated scores);
# reference_s (the reference kernel's median time); failed_frac (0 on every
# passing run; it travels as failed / attempted in the result).
UNGATED = (
    ("series_wall_s", "s"), ("scratch_wall_s", "s"), ("solve_wall_tail_s", "s"),
    ("solve_wall_p50_s", "s"), ("improvement_pct", "%"), ("reference_s", "s"),
)


def reference_kernel(steps: int = REFERENCE_STEPS) -> float:
    """A fixed mix of interpreter steps and small numpy operations, the kind
    of work the solver does.  It runs before every solve; the solve's wall
    divided by the kernel's time is the solve's time in `ref` units.

    The machine this benchmark runs on is shared: over tens of seconds its
    speed drifts by up to 1.8x, and solve walls drift with it.  The kernel
    slows down with the machine, so the ratio stays put (in a 150-second
    trace the raw pass walls spread 1.77x from fastest to slowest, the
    ratios 1.10-1.16x), while a change to the program still moves it."""
    a = np.arange(64.0)
    x = 0.0
    for i in range(steps):
        a = a * 0.5 + 1.0
        x += float(a[i % 64])
    return x


class SolveProbe:
    """Times each harness.solve call, with the reference kernel just before
    it, and keeps (wall, reference time, instance, outcome) for the metrics
    and the correctness gate.  Under a tracer it is installed last, so the
    solve's wall includes the tracing, and the reference kernel gets a span
    of its own, outside every module's spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.calls: list[tuple[float, float, object, object]] = []
        self._orig = None
        self._reference = (tracer.traced(reference_kernel, "bench.reference") if tracer
                           else reference_kernel)

    def __enter__(self):
        self._orig = orig = harness.solve
        calls = self.calls
        clock = time.perf_counter
        reference = self._reference

        def solve(inst, *args, **kwargs):
            t = clock()
            reference()
            ref = clock() - t
            t = clock()
            outcome = None
            try:
                outcome = orig(inst, *args, **kwargs)
                return outcome
            finally:
                calls.append((clock() - t, ref, inst, outcome))

        harness.solve = solve
        return self

    def __exit__(self, *exc):
        harness.solve = self._orig
        return False

    def take(self):
        out, self.calls[:] = list(self.calls), []
        return out


@dataclass
class ArmPass:
    wall: float           # the run_series call, reference kernels excluded
    solve_walls: list     # wall of each solve
    refs: list            # reference kernel time before each solve

    @property
    def solve_refs(self) -> list:
        """Each solve in `ref` units: its wall over the mean of the
        reference times just before and just after it (the one before the
        next solve; the last solve has only the one before)."""
        after = self.refs[1:] + self.refs[-1:]
        return [2.0 * w / (r + a) for w, r, a in zip(self.solve_walls, self.refs, after)]

    @property
    def ref_wall(self) -> float:
        """The pass in `ref` units: the solves as in solve_refs, the time
        between them over the pass's mean reference time."""
        between = self.wall - sum(self.solve_walls)
        return sum(self.solve_refs) + between / statistics.fmean(self.refs)


@dataclass
class ArmRun:
    """One (series, arm) over every pass of a run."""
    report: object        # SeriesReport of the first pass
    solves: list          # (instance, outcome) per record, first pass
    key: list             # pass_key of the first pass
    passes: list = field(default_factory=list)   # ArmPass per pass
    agree: bool = True    # every pass gave the same records and counters

    def add_pass(self, arm_pass: ArmPass, key: list) -> None:
        self.passes.append(arm_pass)
        self.agree = self.agree and key == self.key

    @property
    def wall(self) -> float:
        return statistics.median(p.wall for p in self.passes)

    @property
    def ref_wall(self) -> float:
        return statistics.median(p.ref_wall for p in self.passes)

    @property
    def solve_wall(self) -> list:
        """Each solve's median wall over the passes."""
        return [statistics.median(ws) for ws in zip(*(p.solve_walls for p in self.passes))]

    @property
    def solve_ref(self) -> list:
        """Each solve's median time in `ref` units over the passes."""
        return [statistics.median(ws) for ws in zip(*(p.solve_refs for p in self.passes))]


@dataclass
class Measured:
    passes: int = 0
    runs: dict = field(default_factory=dict)    # (arm, series index) -> ArmRun
    csv: dict = field(default_factory=dict)     # (arm, series index) -> report.csv

    def wall(self, arm: str) -> float:
        return sum(r.wall for (a, _), r in self.runs.items() if a == arm)

    def ref_wall(self, arm: str) -> float:
        return sum(r.ref_wall for (a, _), r in self.runs.items() if a == arm)


def pass_key(report, outcomes) -> list:
    """Everything one pass must repeat exactly: the records, which carry
    the deterministic-clock scores, plus the per-solve work counters."""
    out = []
    for rec, outcome in zip(report.records, outcomes):
        counters = None
        if outcome is not None:
            s = outcome.stats
            counters = (s.nodes, s.lp_iterations, s.sb_lp_solves,
                        sum(x.cuts_generated for x in s.separators.values()))
        out.append((tuple(sorted(vars(rec).items())), counters))
    return out


def fingerprint(m: Measured) -> list:
    return [(key, run.key) for key, run in sorted(m.runs.items())]


def run_passes(manifests, seed: int, work: Path, tag: str, seconds: float = 0.0,
               min_passes: int = 1, tracer: Tracer | None = None) -> Measured:
    """Pass after pass, every (series, arm) runs once, until the next pass
    would end after `seconds` (and at least `min_passes` have run).  The
    work is deterministic, so every pass repeats the same solves; times are
    medians over the passes."""
    m = Measured()
    start = time.perf_counter()
    with SolveProbe(tracer) as probe:
        while True:
            t = time.perf_counter()
            for s, manifest in enumerate(manifests):
                for arm, disable in ARMS:
                    # Every arm runs as `mipseries run --checkpoint` would.
                    ckpt = work / f"{arm}{s}.ckpt"
                    ckpt.unlink(missing_ok=True)   # a leftover would be resumed
                    cfg = RunConfig(seed=seed, det_work_per_second=WORK_PER_SECOND,
                                    disable=disable, checkpoint_path=ckpt)
                    t0 = time.perf_counter()
                    report = harness.run_series(manifest, cfg)
                    wall = time.perf_counter() - t0
                    solves = probe.take()
                    if len(solves) != len(report.records):
                        raise RuntimeError("solve probe missed calls")
                    key = pass_key(report, [out for _, _, _, out in solves])
                    run = m.runs.get((arm, s))
                    if run is None:
                        run = m.runs[(arm, s)] = ArmRun(
                            report, [(inst, out) for _, _, inst, out in solves], key)
                    refs = [r for _, r, _, _ in solves]
                    run.add_pass(ArmPass(wall - sum(refs), [w for w, _, _, _ in solves], refs),
                                 key)
            m.passes += 1
            spent = time.perf_counter() - t
            if m.passes >= min_passes and time.perf_counter() - start + spent > seconds:
                break
    for (arm, s), run in m.runs.items():
        path = m.csv[(arm, s)] = work / f"{tag}_{arm}{s}.csv"
        harness.write_report_csv(run.report, path)
        harness.write_report_summary(run.report, path.with_suffix(".json"))
    return m


def batch_table(m: Measured, n_series: int) -> dict:
    """The paper's batch-wise table for the workload: harness.improvement_table
    per series, with batch means and overall means averaged over the series
    (all series have the same length, so these are means over instances)."""
    tables = [harness.improvement_table(m.csv[("reuse", s)], m.csv[("scratch", s)])
              for s in range(n_series)]

    def averaged(rows, label):
        base = statistics.fmean(r["baseline"] for r in rows)
        new = statistics.fmean(r["report"] for r in rows)
        return {"batch": label, "baseline": base, "report": new,
                "improvement_pct": harness.improvement_pct(base, new)}

    return {"batches": [averaged(rows, rows[0]["batch"])
                        for rows in zip(*(t["batches"] for t in tables))],
            "overall": averaged([t["overall"] for t in tables], "overall")}


def nearest_rank(sorted_vals, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail_percentile(samples) -> tuple[float, int]:
    """Highest whole percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        raise ValueError("the tail needs at least 11 samples")
    pct = math.floor(100.0 * (n - 10) / n)
    return nearest_rank(sorted(samples), pct), pct


def env_record(seed: int, blas_env: dict) -> dict:
    root = Path.cwd()
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "kernels": get_kernels().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_env,
        "seed": seed,
        "git_commit": commit,
    }


def correctness(m: Measured, optima: dict) -> tuple[int, int, list[str]]:
    """Checks the first pass's answers; later passes must repeat them exactly."""
    cfg = SolverConfig()
    attempted, problems = 0, []
    for (arm, s), run in sorted(m.runs.items()):
        for rec, (inst, outcome) in zip(run.report.records, run.solves):
            attempted += 1
            why = check_solve(inst, rec, outcome, optima[inst.name], cfg.feas_tol,
                              cfg.int_tol, cfg.gap_tol)
            if why:
                problems.append(f"{arm} series {s} instance {rec.instance_index}: {why}")
    return attempted, len(problems), problems


def end_to_end(m: Measured, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    per_solve = [w for _, run in sorted(m.runs.items()) for w in run.solve_wall]
    per_solve_ref = [w for _, run in sorted(m.runs.items()) for w in run.solve_ref]
    tail, pct = tail_percentile(per_solve)
    tail_ref, _ = tail_percentile(per_solve_ref)
    refs = [r for run in m.runs.values() for p in run.passes for r in p.refs]
    scores = {arm: [rec.total_score for (a, _), run in sorted(m.runs.items())
                    if a == arm for rec in run.report.records] for arm, _ in ARMS}
    table = batch_table(m, len({s for _, s in m.runs}))
    metrics = {
        "series_wall_ref": m.ref_wall("reuse"),
        "scratch_wall_ref": m.ref_wall("scratch"),
        "solve_wall_tail_ref": tail_ref,
        "reuse_score": sum(scores["reuse"]) / len(scores["reuse"]),
        "scratch_score": sum(scores["scratch"]) / len(scores["scratch"]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    runs = f"median of {m.passes} pass(es)"
    tail_note = f"p{pct} of {len(per_solve)} solves, each the {runs}"
    notes = {"series_wall_ref": runs, "scratch_wall_ref": runs,
             "solve_wall_tail_ref": tail_note, "solve_wall_tail_s": tail_note,
             "series_wall_s": runs, "scratch_wall_s": runs,
             "solve_wall_p50_s": f"{len(per_solve)} solves, each the {runs}",
             "improvement_pct": "overall row of the table below",
             "reference_s": f"median of {len(refs)} reference kernels"}
    ungated = {"series_wall_s": m.wall("reuse"), "scratch_wall_s": m.wall("scratch"),
               "solve_wall_tail_s": tail, "solve_wall_p50_s": statistics.median(per_solve),
               "improvement_pct": table["overall"]["improvement_pct"],
               "reference_s": statistics.median(refs)}
    return metrics, {"notes": notes, "table": table, "ungated": ungated}


def per_layer(tracer: Tracer, traced: Measured, untraced: Measured) -> tuple[dict, dict]:
    summ = tracer.summary()
    sp = summ["spans"]
    c = tracer.counters

    def total(*names):
        return sum(sp[n]["total_s"] for n in names if n in sp)

    def self_s(*names):
        return sum(sp[n]["self_s"] for n in names if n in sp)

    def count(name):
        return sp[name]["count"] if name in sp else 0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    m = {
        "kernels.eliminate_calls": count("kernels.eliminate"),
        "kernels.eliminate_s": self_s("kernels.eliminate"),
        "kernels.colsub_calls": count("kernels.colsub"),
        "kernels.colsub_s": self_s("kernels.colsub"),
        "kernels.rowsum_calls": count("kernels.rowsum"),
        "kernels.rowsum_s": self_s("kernels.rowsum"),
    }
    for role in ROLES:
        m[f"lp.{role}.solves"] = int(c[f"lp.{role}.solves"])
        m[f"lp.{role}.pivots"] = int(c[f"lp.{role}.pivots"])
        m[f"lp.{role}.self_s"] = self_s(f"lp.{role}")
    m.update({
        "lp.refactor_calls": count("lp.refactor"),
        "lp.refactor_s": self_s("lp.refactor"),
        "lp.warm_start_hit_ratio": ratio("lp.warm_start_hits", "lp.warm_start_attempts"),
        "lp.iter_limit_retries": summ["iter_limit_retries"],
        "bb.nodes": int(c["bb.nodes"]),
        "bb.self_s": self_s("bb.solve", "bb.tree", "bb.node", "bb.node_lp"),
        "bb.nodes_per_s": c["bb.nodes"] / total("bb.solve"),
        "branching.s": total("branching"),
        "branching.sb_lps": int(c["lp.sb.solves"]),
        "cuts.gmi_s": total("cuts.gmi"),
        "cuts.loop_s": total("cuts.loop"),
        "cuts.generated": int(c["cuts.generated"]),
        "cuts.yield": ratio("cuts.productive_rounds", "cuts.rounds"),
        "presolve.s": total("presolve"),
        "presolve.changes": int(c["presolve.changes"]),
        "rounding.s": total("rounding"),
        "rounding.success_ratio": ratio("rounding.found", "rounding.calls"),
        "completesol.s": total("completesol"),
        "completesol.pivots": int(c["lp.hint.pivots"]),
        "hints.conversion_ratio": ratio("hints.completed", "hints.tried"),
        "model.load_s": total("model.load"),
        "model.check_feasibility_calls": int(c["model.check_feasibility_calls"]),
        "model.check_feasibility_s": total("model.check_feasibility"),
        "reopt.hints_s": total("reopt.hints"),
        "reopt.history_s": total("reopt.history"),
        "reopt.record_s": total("reopt.record"),
        "tuner.s": total("tuner"),
        "turnoff.s": total("turnoff"),
        "turnoff.disabled": int(c["turnoff.disabled"]),
        "harness.checkpoint_s": total("harness.checkpoint"),
        "harness.checkpoint_bytes": int(c["harness.checkpoint_bytes"]),
        "harness.report_s": total("harness.report"),
        "harness.self_s": self_s("harness.run_series"),
        "trace.series_wall_s": traced.wall("reuse"),
        # In `ref` units, so a change in the machine's speed between the two
        # passes does not show as overhead.
        "trace.overhead_pct": 100.0 * (traced.ref_wall("reuse") - untraced.ref_wall("reuse"))
                              / untraced.ref_wall("reuse"),
        "trace.spans": summ["span_count"],
    })
    layers = {layer: 0.0 for _, layer in LAYER_OF}
    for name, info in sp.items():
        layers[layer_of(name)] += info["self_s"]
    return m, {"layer_self_s": layers, "spans": sp}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".yield")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def print_table(table: dict) -> None:
    print("batch-wise improvement of reuse over scratch (mean total score per "
          "batch of 10 instances, averaged over the series; harness.improvement_table):")
    print(f"  {'batch':>8} {'scratch':>9} {'reuse':>9} {'improvement %':>14}")
    for b in table["batches"]:
        print(f"  {b['batch']:>8} {b['baseline']:>9.4f} {b['report']:>9.4f} "
              f"{b['improvement_pct']:>14.2f}")
    o = table["overall"]
    print(f"  {'overall':>8} {o['baseline']:>9.4f} {o['report']:>9.4f} "
          f"{o['improvement_pct']:>14.2f}")


def run_benchmark(wl: Workload, args, import_seconds, out: Path, blas_env: dict) -> int:
    """`import_seconds()` times one import of mipseries in a fresh interpreter."""
    work = out / "work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        return _run(wl, args, import_seconds, out, work, blas_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, args, import_seconds, out, work, blas_env) -> int:
    setup_times = []

    def set_up():
        """One set-up: import mipseries, generate, write and load the series."""
        import_s = import_seconds()
        t = time.perf_counter()
        manifests = load_manifests(write_series(wl, args.seed,
                                                work / f"setup{len(setup_times)}"))
        setup_times.append(import_s + time.perf_counter() - t)
        return manifests

    # -- set-up: half the samples before the measurement, half after it, so
    # a slow spell of the shared machine at one end of the run moves the
    # median less -------------------------------------------------------------
    for _ in range(SETUP_REPEATS):
        manifests = set_up()

    # -- measurement -----------------------------------------------------------
    # A traced run makes one untraced pass, the base of the tracing overhead,
    # then one traced pass.
    traced = tracer = None
    measured = run_passes(manifests, args.seed, work, "untraced",
                          0.0 if args.trace else args.seconds)
    if args.trace:
        with Tracer() as tracer:
            traced = run_passes(manifests, args.seed, work, "traced", tracer=tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPEATS):
        set_up()
    setup_s = statistics.median(setup_times)

    # -- correctness gate (outside every timed region) -------------------------
    optima = reference_optima(manifests)
    problems = []
    attempted = failed = 0
    for m in [measured] + ([traced] if traced else []):
        a, f, why = correctness(m, optima)
        attempted, failed = attempted + a, failed + f
        problems.extend(why)
    for (arm, s), run in sorted(measured.runs.items()):
        if not run.agree:
            problems.append(f"{arm} series {s}: passes differ in records or counters")
    if traced and fingerprint(traced) != fingerprint(measured):
        problems.append("the traced pass differs from the untraced passes in records "
                        "or counters")

    out.mkdir(parents=True, exist_ok=True)
    env = env_record(args.seed, blas_env)
    e2e, extra = end_to_end(measured, setup_s, peak_rss_mb)
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
              "series": wl.series, "instances_per_series": wl.count,
              "time_limit": wl.time_limit, "work_per_second": WORK_PER_SECOND,
              "passes": measured.passes, "setup_times_s": setup_times,
              "end_to_end": e2e, "ungated": extra["ungated"],
              "table": extra["table"],
              "failed_frac": failed / attempted, "problems": problems}

    print(f"seriesbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{wl.series} series x {wl.count} instances, limit {wl.time_limit} det-s "
          f"at {WORK_PER_SECOND:g} work/s, {measured.passes} untraced pass(es)")
    print("env: " + json.dumps(env, sort_keys=True))
    print("end-to-end (untraced):")
    for name, unit in END_TO_END:
        note = extra["notes"].get(name, "")
        print(f"  {name:<20} {e2e[name]:>14.6f} {unit:<6} {note}")
    for name, unit in UNGATED:
        note = extra["notes"].get(name, "")
        print(f"  {name:<20} {extra['ungated'][name]:>14.6f} {unit:<6} not gated; {note}")
    print(f"  {'failed_frac':<20} {failed / attempted:>14.6f} {'frac':<6} "
          f"{failed} of {attempted} solves")
    print_table(extra["table"])

    if args.trace:
        layer, detail = per_layer(tracer, traced, measured)
        result.update(per_layer=layer, layer_self_s=detail["layer_self_s"],
                      spans=detail["spans"], private_entry_points=PRIVATE_ENTRY_POINTS)
        total_self = sum(detail["layer_self_s"].values())
        print("per-layer self time (traced pass):")
        for name, secs in sorted(detail["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<20} {secs:>10.4f} s {100 * secs / total_self:>6.1f} %")
        print("per-layer metrics:")
        for name, value in layer.items():
            print(f"  {name:<32} {value:>16.6f} {unit_of(name)}")
        print("private entry points wrapped: " + "; ".join(PRIVATE_ENTRY_POINTS))
        arrays = tracer.span_arrays()
        np.savez_compressed(out / f"{wl.name}-seed{args.seed}-spans.npz",
                            names=np.array(tracer.names), **arrays)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    for line in problems:
        print(f"FAILED: {line}", file=sys.stderr)
    (out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
