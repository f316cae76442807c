"""CLI subcommands, exit codes and cross-process byte determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mipseries
from mipseries.cli import main
from mipseries.model import save_instance

from mipseries.harness import CSV_COLUMNS

from conftest import (MALFORMED_INSTANCES, MALFORMED_MANIFESTS, hard_knapsack,
                      malformed_instance, older_journal, report_csv)


@pytest.fixture
def base_instance_path(tmp_path):
    path = tmp_path / "base.json"
    save_instance(hard_knapsack(seed=9, n=10, m=2), path)
    return path


def _generate(tmp_path, base_path, count=5):
    out = tmp_path / "series"
    rc = main(["generate", "--base", str(base_path), "--kind", "rhs",
               "--count", str(count), "--seed", "4", "--out", str(out),
               "--magnitude", "0.05", "--time-limit", "50"])
    assert rc == 0
    return out / "manifest.json"


def test_generate_and_run(tmp_path, base_instance_path, capsys):
    manifest = _generate(tmp_path, base_instance_path)
    out_dir = tmp_path / "run"
    rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir),
               "--seed", "1", "--det-clock", "1000000"])
    assert rc == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "summary.json").exists()
    captured = capsys.readouterr()
    assert "mean total score" in captured.out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["num_instances"] == 5


def test_run_with_disable_flags(tmp_path, base_instance_path):
    manifest = _generate(tmp_path, base_instance_path)
    out_dir = tmp_path / "base_run"
    rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir),
               "--det-clock", "1000000",
               "--disable", "hints", "--disable", "history", "--disable", "sb",
               "--disable", "tuning", "--disable", "turnoff"])
    assert rc == 0
    rows = (out_dir / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 6   # header + 5 instances
    assert all("RELIABILITY" in row for row in rows[1:])


def test_score_command(tmp_path, base_instance_path, capsys):
    manifest = _generate(tmp_path, base_instance_path)
    for name, extra in (("a", []), ("b", ["--disable", "hints"])):
        rc = main(["run", "--manifest", str(manifest), "--out",
                   str(tmp_path / name), "--det-clock", "1000000"] + extra)
        assert rc == 0
    capsys.readouterr()
    rc = main(["score", "--report", str(tmp_path / "a" / "report.csv"),
               "--baseline", str(tmp_path / "b" / "report.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall" in out and "improvement" in out


@pytest.mark.parametrize("case", ["longer", "no_total_score"])
def test_score_of_mismatched_or_malformed_reports_is_config_error(tmp_path, capsys, case):
    base = report_csv(tmp_path / "base.csv", [1.0] * 20)
    if case == "longer":
        report = report_csv(tmp_path / "report.csv", [0.5] * 40)
    else:
        report = report_csv(tmp_path / "report.csv", [0.5] * 20,
                            columns=tuple(c for c in CSV_COLUMNS if c != "total_score"))
    rc = main(["score", "--report", str(report), "--baseline", str(base)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {report}") and "Traceback" not in captured.err
    assert captured.out == ""


def test_missing_manifest_is_config_error(tmp_path, capsys):
    rc = main(["run", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["coefs_list", "var_not_object", "rhs_null", "obj_text",
                                  "obj_infinity", "rhs_nan_text", "coef_true",
                                  "lb_nan_continuous", "ub_huge_int", "integer_text"])
def test_malformed_base_instance_is_config_error(tmp_path, capsys, case):
    edit, _ = MALFORMED_INSTANCES[case]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(malformed_instance(edit)))
    rc = main(["generate", "--base", str(path), "--kind", "rhs", "--count", "2",
               "--out", str(tmp_path / "series")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "nan", "time limit must be positive and finite"),
    ("--time-limit", "0", "time limit must be positive and finite"),
    ("--time-limit", "-1", "time limit must be positive and finite"),
    ("--time-limit", "inf", "time limit must be positive and finite"),
    ("--magnitude", "nan", "magnitude must be positive and finite"),
    ("--magnitude", "inf", "magnitude must be positive and finite"),
])
def test_generate_with_bad_limit_or_magnitude_writes_nothing(
        tmp_path, base_instance_path, capsys, flag, value, message):
    # a manifest generate writes is one that load_series accepts
    out = tmp_path / "series"
    rc = main(["generate", "--base", str(base_instance_path), "--kind", "rhs",
               "--count", "2", "--out", str(out), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_config_error(tmp_path, base_instance_path, capsys, case):
    update, _ = MALFORMED_MANIFESTS[case]
    data = {"series_name": "s", "time_limit": 10.0, "changing": ["RHS"],
            "instances": [base_instance_path.name]}
    data = [data] if update is None else {**data, **update}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--manifest", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


def test_checkpoint_resume_via_cli(tmp_path, base_instance_path):
    manifest = _generate(tmp_path, base_instance_path)
    ckpt = tmp_path / "ck.json"
    out1 = tmp_path / "r1"
    # full run in one go
    rc = main(["run", "--manifest", str(manifest), "--out", str(out1),
               "--det-clock", "1000000", "--seed", "2"])
    assert rc == 0
    # run with a checkpoint: identical result (single pass here, resume logic
    # is covered at the API level)
    out2 = tmp_path / "r2"
    rc = main(["run", "--manifest", str(manifest), "--out", str(out2),
               "--det-clock", "1000000", "--seed", "2", "--checkpoint", str(ckpt)])
    assert rc == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def _corrupt_checkpoint(tmp_path, base_instance_path, capsys, edit, extra=()):
    """Exit code and stderr of a run, with `extra` arguments, resumed from a
    checkpoint journal whose parsed lines `edit` changed; the journal holds
    the header and both instances of a 2-instance series."""
    manifest = _generate(tmp_path, base_instance_path, count=2)
    ckpt = tmp_path / "ck.json"
    args = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "r"),
            "--det-clock", "1000000", "--checkpoint", str(ckpt)]
    assert main(args) == 0
    lines = [json.loads(line) for line in ckpt.read_text().splitlines()]
    edit(lines)
    ckpt.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    rc = main(args + list(extra))
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("version", [3, 4])
def test_checkpoint_of_an_older_version_is_config_error(tmp_path, base_instance_path,
                                                        capsys, version):
    def edit(lines):
        lines[:] = older_journal(lines, version)

    rc, err = _corrupt_checkpoint(tmp_path, base_instance_path, capsys, edit)
    assert rc == 2
    assert f"has version {version}, expected 5" in err and "Traceback" not in err


def test_checkpoint_missing_field_is_config_error(tmp_path, base_instance_path, capsys):
    rc, err = _corrupt_checkpoint(tmp_path, base_instance_path, capsys,
                                  lambda lines: lines[-1].pop("ledger"))
    assert rc == 2
    assert "error:" in err and "ledger" in err


@pytest.mark.parametrize("field, value", [("status", 5), ("time_score", "x"),
                                          ("total_score", "x")])
def test_checkpoint_wrong_typed_record_is_config_error(tmp_path, base_instance_path,
                                                       capsys, field, value):
    rc, err = _corrupt_checkpoint(tmp_path, base_instance_path, capsys,
                                  lambda lines: lines[1]["record"].update({field: value}))
    assert rc == 2
    assert "error:" in err and field in err and "Traceback" not in err


def _first_value(entry, value):
    entry["values"][next(iter(entry["values"]))] = value


@pytest.mark.parametrize("edit, message", [
    (lambda lines: _first_value(lines[1]["pool_entry"], "a"),
     "line 2: pool entry value"),
    (lambda lines: lines[-1]["warm"]["global_history"].update(pscost_up_sum="zz"),
     "line 3: global history field 'pscost_up_sum' is 'zz'"),
    (lambda lines: lines[-1]["ledger"]["rounding"].update(instances_enabled="a"),
     "line 3: ledger record 'rounding' field 'instances_enabled' is 'a'"),
], ids=["pool-value", "history-sum", "ledger-count"])
def test_checkpoint_with_a_bad_part_is_config_error(tmp_path, base_instance_path, capsys,
                                                    edit, message):
    rc, err = _corrupt_checkpoint(tmp_path, base_instance_path, capsys, edit)
    assert rc == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("extra, field", [(["--seed", "1"], "seed"),
                                          (["--disable", "sb"], "disable")],
                         ids=["seed", "disable"])
def test_checkpoint_of_another_run_is_config_error(tmp_path, base_instance_path,
                                                   capsys, extra, field):
    rc, err = _corrupt_checkpoint(tmp_path, base_instance_path, capsys,
                                  lambda lines: None, extra)
    assert rc == 2
    assert f"does not match this run: its {field} " in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, field", [
    ("--det-clock", "0", "det_work_per_second"),
    ("--det-clock", "-5", "det_work_per_second"),
    ("--det-clock", "nan", "det_work_per_second"),
    ("--det-clock", "inf", "det_work_per_second"),
    ("--alpha", "nan", "alpha_pct"),
    ("--alpha", "-1", "alpha_pct"),
    ("--alpha", "101", "alpha_pct"),
])
def test_bad_clock_or_alpha_is_config_error(tmp_path, base_instance_path, capsys,
                                            flag, value, field):
    manifest = _generate(tmp_path, base_instance_path, count=2)
    capsys.readouterr()
    rc = main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "r"),
               flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_cross_process_byte_identical_reports(tmp_path, base_instance_path):
    manifest = _generate(tmp_path, base_instance_path)
    # the child imports the same mipseries as this process, installed or not
    src = str(Path(mipseries.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = []
    for name in ("p1", "p2"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "mipseries.cli", "run", "--manifest",
             str(manifest), "--out", str(out_dir), "--det-clock", "1000000",
             "--seed", "3"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append((out_dir / "report.csv").read_bytes())
    assert outs[0] == outs[1]
