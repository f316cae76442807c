"""CLI subcommands, exit codes and cross-process byte determinism."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from mipseries.cli import main
from mipseries.model import save_instance

from conftest import hard_knapsack


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


def test_missing_manifest_is_config_error(tmp_path, capsys):
    rc = main(["run", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def test_checkpoint_missing_field_is_config_error(tmp_path, base_instance_path, capsys):
    manifest = _generate(tmp_path, base_instance_path, count=2)
    ckpt = tmp_path / "ck.json"
    args = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "r"),
            "--det-clock", "1000000", "--checkpoint", str(ckpt)]
    assert main(args) == 0
    data = json.loads(ckpt.read_text())
    del data["next_index"]
    ckpt.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "next_index" in err


@pytest.mark.parametrize("next_index", ["3", -1])
def test_checkpoint_bad_next_index_is_config_error(tmp_path, base_instance_path, capsys,
                                                   next_index):
    manifest = _generate(tmp_path, base_instance_path, count=2)
    ckpt = tmp_path / "ck.json"
    args = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "r"),
            "--det-clock", "1000000", "--checkpoint", str(ckpt)]
    assert main(args) == 0
    data = json.loads(ckpt.read_text())
    data["next_index"] = next_index
    ckpt.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "next_index" in err


def test_cross_process_byte_identical_reports(tmp_path, base_instance_path):
    manifest = _generate(tmp_path, base_instance_path)
    outs = []
    for name in ("p1", "p2"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "mipseries.cli", "run", "--manifest",
             str(manifest), "--out", str(out_dir), "--det-clock", "1000000",
             "--seed", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((out_dir / "report.csv").read_bytes())
    assert outs[0] == outs[1]
