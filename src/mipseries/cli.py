"""Command-line interface: run a series, generate a synthetic one, or compare
two run reports."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (TECHNIQUES, RunConfig, improvement_table, run_series,
                      write_report_csv, write_report_summary)
from .model import (InstanceError, SeriesError, generate_series_files,
                    load_instance, load_series)

KIND_CHOICES = ("objective", "rhs", "bounds", "matrix")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipseries",
        description="Solve series of similar MIP instances with information reuse.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a series and write reports")
    run.add_argument("--manifest", required=True, help="series manifest path")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--disable", action="append", default=[],
                     choices=TECHNIQUES,
                     help="disable a reuse technique (repeatable)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--det-clock", type=float, default=None, metavar="WORK_PER_SEC",
                     help="deterministic clock: work units per second")
    run.add_argument("--checkpoint", default=None, help="checkpoint file (resume if present)")
    run.add_argument("--alpha", type=float, default=90.0,
                     help="common-hint membership threshold in percent")

    gen = sub.add_parser("generate", help="generate a perturbed series from a base instance")
    gen.add_argument("--base", required=True, help="base instance file")
    gen.add_argument("--kind", required=True, action="append", choices=KIND_CHOICES,
                     help="changing component (repeatable)")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--magnitude", type=float, default=0.1)
    gen.add_argument("--time-limit", type=float, default=60.0,
                     help="per-instance time limit recorded in the manifest")

    score = sub.add_parser("score", help="compare a report CSV against a baseline CSV")
    score.add_argument("--report", required=True)
    score.add_argument("--baseline", required=True)
    return parser


def _cmd_run(args) -> int:
    manifest = load_series(args.manifest)
    run_cfg = RunConfig(
        seed=args.seed,
        det_work_per_second=args.det_clock,
        disable=frozenset(args.disable),
        alpha_pct=args.alpha,
        checkpoint_path=args.checkpoint)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_series(manifest, run_cfg)
    csv_path = out_dir / "report.csv"
    summary_path = out_dir / "summary.json"
    write_report_csv(report, csv_path)
    write_report_summary(report, summary_path)
    print(f"series '{report.series_name}': {len(report.records)} instances, "
          f"mean total score {report.mean_total_score:.4f}, "
          f"shifted geomean time {report.shifted_geomean_time:.3f}s")
    for batch in report.batch_averages:
        print(f"  batch {batch['batch']:>7}: {batch['mean_total_score']:.4f}")
    print(f"reports: {csv_path} {summary_path}")
    return 0


def _cmd_generate(args) -> int:
    base = load_instance(args.base)
    kinds = frozenset(k.upper() for k in args.kind)
    manifest_path = generate_series_files(
        base, kinds, args.count, args.seed, args.magnitude, args.out,
        time_limit=args.time_limit)
    print(f"wrote {args.count} instances and manifest: {manifest_path}")
    return 0


def _cmd_score(args) -> int:
    table = improvement_table(args.report, args.baseline)
    print(f"{'batch':>10} {'baseline':>10} {'report':>10} {'improvement %':>14}")
    for b in table["batches"]:
        print(f"{b['batch']:>10} {b['baseline']:>10.4f} {b['report']:>10.4f} "
              f"{b['improvement_pct']:>14.2f}")
    o = table["overall"]
    print(f"{'overall':>10} {o['baseline']:>10.4f} {o['report']:>10.4f} "
          f"{o['improvement_pct']:>14.2f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_score(args)
    except (InstanceError, SeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
