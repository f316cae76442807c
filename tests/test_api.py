"""The export surface: every exported name resolves, and the names that were
removed with the second LP entry path and the unused helpers stay gone."""
from __future__ import annotations

import importlib

import pytest

import mipseries
from mipseries import solver


@pytest.mark.parametrize("module", [mipseries, solver], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__
    for name in module.__all__:
        assert hasattr(module, name), name


REMOVED = [
    ("mipseries.lp", "solve_lp"),
    ("mipseries.lp", "LpProblem"),
    ("mipseries.lp", "DEFAULT_ITER_LIMIT"),
    ("mipseries.lp", "DEFAULT_BLAND_AFTER"),
    ("mipseries.solver", "complete_hint"),
    ("mipseries.solver.bb", "complete_hint"),
    ("mipseries.solver", "rounding_heuristic"),
    ("mipseries.solver.heuristics", "rounding_heuristic"),
    ("mipseries.model", "evaluate_point"),
    ("mipseries.model", "save_series_manifest"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_simplex_has_one_constructor():
    from mipseries.lp import _Simplex
    assert not hasattr(_Simplex, "on_rows") and not hasattr(_Simplex, "_load")
