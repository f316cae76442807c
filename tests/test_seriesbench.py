"""The series benchmark's own self-checks (`seriesbench/`): determinism,
traced = untraced, the gate, the metric list against `BENCHMARK.json` and
the reference kernel's units.  A solver change that breaks the tracer, the
oracle or the metric list fails here.

They run in a subprocess: `tests/` and `seriesbench/` each have a
`conftest.py`, and in one session `from conftest import ...` would resolve
to the wrong one."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_seriesbench_self_checks_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "seriesbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
