"""The export surface: every exported name resolves; the names removed with
the second LP entry path, the unused helpers and the settings that no caller
set stay gone; `SolverConfig` and `RunConfig` keep exactly the fields their
callers set."""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect

import pytest

import mipseries
from mipseries import harness, reopt, solver
from mipseries.harness import RunConfig
from mipseries.lp import SimplexBasis
from mipseries.model import DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, MipInstance
from mipseries.solver import SolverConfig, generate_cuts, select_branch_variable
from mipseries.solver.cuts import slack_integrality
from mipseries.tuner import TunerState, arm_score
from mipseries.turnoff import ComponentLedger


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
    ("mipseries.reopt", "validate_hint_set"),
    ("mipseries.harness", "total_score"),
    ("mipseries.harness", "RunConfig.stop_after"),
    ("mipseries.tuner", "Variant.CLASSIC"),
    ("mipseries.tuner", "TunerState.to_json_dict"),
    ("mipseries.tuner", "TunerState.from_json_dict"),
    ("mipseries.reopt", "SolutionPool.to_json_dict"),
    ("mipseries.reopt", "SolutionPool.from_json_dict"),
    ("mipseries.lp", "SimplexSnapshot"),
    ("mipseries.lp", "LpResult.snapshot"),
    ("mipseries.solver.cuts", "_SnapshotColumns"),
    ("mipseries.solver", "PresolverStats.time"),
    ("mipseries.solver", "SolverConfig.enabled_separators"),
    ("mipseries.solver.history", "_FIELDS"),
    ("mipseries.reopt", "HintSet"),
    ("mipseries.tuner", "TunerState.exploration_flags"),
    ("mipseries.model", "_parse_bound"),
    ("mipseries.model", "_as_float"),
    ("mipseries.solver", "GlobalHistory"),
    ("mipseries.solver.history", "GlobalHistory"),
    ("mipseries.reopt", "HistoryStore"),
    ("mipseries.solver", "VariableHistory.conflict_count_up"),
    ("mipseries.solver", "VariableHistory.conflict_count_down"),
    ("mipseries.solver", "VariableHistory.inference_count_up"),
    ("mipseries.solver", "VariableHistory.inference_count_down"),
    ("mipseries.solver.bb", "_hint_assignment"),
    ("mipseries.solver.cuts", "_gmi_from_row"),
    ("mipseries.model", "_feasibility_data"),
    ("mipseries.solver.bb", "_TreeSolver._prune_cutoff"),
    ("mipseries.solver.heuristics", "raise_on_nonfinite"),
    ("mipseries.lp", "SimplexTrouble"),
    ("mipseries.solver.branching", "_strong_branch"),
    ("mipseries.model", "_sense_masks"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    *owner, attr = name.split(".")
    obj = functools.reduce(getattr, owner, importlib.import_module(module))
    assert not hasattr(obj, attr)


def test_simplex_has_one_constructor():
    from mipseries.lp import _Simplex
    assert not hasattr(_Simplex, "on_rows") and not hasattr(_Simplex, "_load")


def test_warm_start_tokens_come_only_whole_from_solves():
    # a token is a solve's basis, statuses, tableau, age and rows: a hand
    # building of basis and statuses alone is not one
    with pytest.raises(TypeError):
        SimplexBasis([0], [2])


def test_same_data_stays_gone():
    assert not hasattr(MipInstance, "same_data")


def test_solver_config_fields():
    assert {f.name for f in dataclasses.fields(SolverConfig)} == {
        "branching_rule", "use_cuts_root", "use_cuts_tree",
        "enabled_heuristics", "enabled_presolvers",
        "completesol_node_limit", "completesol_max_improving", "node_limit",
        "det_work_per_second"}
    # the tolerances are class constants, still read through an instance
    cfg = SolverConfig()
    assert (cfg.feas_tol, cfg.int_tol, cfg.gap_tol) == (
        DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, 1e-6)


def test_run_config_fields():
    assert {f.name for f in dataclasses.fields(RunConfig)} == {
        "seed", "det_work_per_second", "disable", "alpha_pct", "checkpoint_path"}


REMOVED_PARAMETERS = [
    (generate_cuts, "at_root"),
    (generate_cuts, "min_violation"),
    (generate_cuts, "cfg"),
    (generate_cuts, "row_matrix"),
    (generate_cuts, "row_rhs"),
    (generate_cuts, "slack_int"),
    (reopt.clip_and_strip, "int_tol"),
    (reopt.build_common_hint, "int_tol"),
    (reopt.assemble_hints, "int_tol"),
    (harness.shifted_geomean, "shift"),
    (harness.batch_averages, "batch_size"),
    (TunerState, "C"),
    (TunerState, "variant"),
    (TunerState, "tuning_start_index"),
    (arm_score, "total_updates"),
    (slack_integrality, "senses"),
    (ComponentLedger.accumulate, "instance_index"),
    (MipInstance, "_cache"),
    (reopt.transfer_histories, "target"),
    (reopt.record_outcome, "store"),
    (select_branch_variable, "cfg"),
    (select_branch_variable, "stats"),
    (select_branch_variable, "node_obj"),
    (select_branch_variable, "db"),
]


@pytest.mark.parametrize("func, param", REMOVED_PARAMETERS,
                         ids=lambda v: getattr(v, "__name__", v))
def test_removed_parameters_stay_gone(func, param):
    assert param not in inspect.signature(func).parameters
