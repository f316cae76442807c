"""Spans around the entry points of each mipseries module, installed from
the benchmark's own files.

`Tracer.install()` replaces module attributes and class methods with thin
wrappers that record one span per call (name, start, end, parent) and a few
counters taken from the arguments or the result.  The wrappers pass
arguments and results through untouched, so a traced series reproduces the
untraced scores and counters exactly.  `Tracer.uninstall()` restores every
original.

Where no public function bounds the work, a private method is wrapped; they
are listed in `PRIVATE_ENTRY_POINTS`, which every traced result prints.

Spans are kept in typed arrays in memory and summarised when the run ends.
"""
from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from dataclasses import replace

import numpy as np

from mipseries import harness, lp, model, tuner, turnoff
from mipseries.solver import bb, heuristics

PRIVATE_ENTRY_POINTS = (
    "mipseries.lp._Simplex.warm_start (refactorization)",
    "mipseries.solver.bb._TreeSolver.solve (tree search, sub-MIPs included)",
    "mipseries.solver.bb._TreeSolver._process_node (one node)",
    "mipseries.solver.bb._TreeSolver._node_lp (node LP and its cold retry)",
    "mipseries.solver.bb._TreeSolver._cut_loop (separation rounds and re-solves)",
    "mipseries.solver.bb._TreeSolver._run_completesol (hint completion with its sub-MIP)",
    "mipseries.solver.bb._TreeSolver._complete_one_hint (one hint)",
    "mipseries.harness._write_checkpoint (checkpoint I/O)",
)

# Span name prefix -> layer (module), for the per-layer self-time table.
LAYER_OF = (
    ("kernels.", "kernels"),
    ("lp.", "lp"),
    ("bb.", "solver.bb"),
    ("branching", "solver.branching"),
    ("cuts.", "solver.cuts"),
    ("presolve", "solver.presolve"),
    ("rounding", "solver.heuristics"),
    ("completesol", "solver.heuristics"),
    ("model.", "model"),
    ("reopt.", "reopt"),
    ("tuner", "tuner"),
    ("turnoff", "turnoff"),
    ("harness.", "harness"),
    ("bench.", "seriesbench"),   # the reference kernel before each solve
)

# LP caller roles.  Everything below hint completion (its sub-MIP too) is
# "hint"; otherwise the nearest enclosing cut loop or branching call decides.
ROLES = ("node", "cut", "sb", "hint")


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYER_OF:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(span_name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.role = "node"
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------------

    def traced(self, fn, name: str, after=None, role: str | None = None):
        """`fn` wrapped in a span.  `after(result, args)` updates counters;
        `role` sets the LP caller role for everything nested in the call."""
        nid = self._nid(name)
        stack, parent, names, start, end = (self._stack, self.parent, self.name,
                                            self.start, self.end)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(sid)
            prev_role = self.role
            if role is not None and prev_role != "hint":
                self.role = role
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                self.role = prev_role
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _traced_lp(self, fn):
        """The LP entry point; its span is named after the caller role."""
        nids = {r: self._nid(f"lp.{r}") for r in ROLES}
        stack, parent, names, start, end = (self._stack, self.parent, self.name,
                                            self.start, self.end)
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            role = self.role
            sid = len(start)
            parent.append(stack[-1])
            names.append(nids[role])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            counters[f"lp.{role}.solves"] += 1
            counters[f"lp.{role}.pivots"] += res.iterations
            return res

        return wrapper

    def wrap(self, owner, attr: str, name: str | None, after=None, role=None, make=None):
        """Install a traced wrapper over owner.attr (a module or a class)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig) if make else self.traced(orig, name, after, role))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        c = self.counters
        T = bb._TreeSolver

        def count(key):
            def after(result, args):
                c[key] += 1
            return after

        # kernels: every Kernels object a tree solver asks for is traced
        def traced_get_kernels(orig):
            cache = {}

            def get_kernels(name=None):
                k = orig(name)
                if k.name not in cache:
                    cache[k.name] = replace(
                        k,
                        eliminate=self.traced(k.eliminate, "kernels.eliminate"),
                        accumulate_rowsum=self.traced(k.accumulate_rowsum, "kernels.rowsum"),
                        subtract_scaled_columns=self.traced(
                            k.subtract_scaled_columns, "kernels.colsub"))
                return cache[k.name]

            return get_kernels

        self.wrap(bb, "get_kernels", None, make=traced_get_kernels)

        # lp
        self.wrap(bb, "solve_arrays", None, make=self._traced_lp)

        def warm_after(ok, args):
            c["lp.warm_start_attempts"] += 1
            c["lp.warm_start_hits"] += bool(ok)

        self.wrap(lp._Simplex, "warm_start", "lp.refactor", warm_after)

        # solver.bb
        self.wrap(harness, "solve", "bb.solve")
        self.wrap(T, "solve", "bb.tree")
        self.wrap(T, "_process_node", "bb.node", count("bb.nodes"))
        self.wrap(T, "_node_lp", "bb.node_lp")

        # solver.branching
        self.wrap(bb, "select_branch_variable", "branching", role="sb")

        # solver.cuts
        def cuts_after(cuts, args):
            c["cuts.rounds"] += 1
            c["cuts.productive_rounds"] += bool(cuts)
            c["cuts.generated"] += len(cuts)

        self.wrap(bb, "generate_cuts", "cuts.gmi", cuts_after)
        self.wrap(T, "_cut_loop", "cuts.loop", role="cut")

        # solver.presolve
        def presolve_after(res, args):
            c["presolve.changes"] += sum(res.changes.values())

        self.wrap(bb, "run_presolve", "presolve", presolve_after)

        # solver.heuristics: rounding, and hint completion (which lives in bb)
        def rounding_after(point, args):
            c["rounding.calls"] += 1
            c["rounding.found"] += point is not None

        self.wrap(bb, "round_to_feasible", "rounding", rounding_after)
        self.wrap(T, "_run_completesol", "completesol", role="hint")

        def hint_after(point, args):
            c["hints.tried"] += 1
            c["hints.completed"] += point is not None

        self.wrap(T, "_complete_one_hint", "completesol.hint", hint_after)

        # model
        self.wrap(model.SeriesManifest, "load", "model.load")
        feas = count("model.check_feasibility_calls")
        self.wrap(bb, "check_feasibility", "model.check_feasibility", feas)
        self.wrap(heuristics, "check_feasibility", "model.check_feasibility", feas)

        # reopt, tuner, turnoff
        self.wrap(harness, "assemble_hints", "reopt.hints")
        self.wrap(harness, "transfer_histories", "reopt.history")
        self.wrap(harness, "record_outcome", "reopt.record")
        self.wrap(tuner.TunerState, "select_values", "tuner")
        self.wrap(tuner.TunerState, "update", "tuner")

        def evaluate_after(newly, args):
            c["turnoff.disabled"] += len(newly)

        self.wrap(turnoff.ComponentLedger, "accumulate", "turnoff")
        self.wrap(turnoff.ComponentLedger, "evaluate", "turnoff", evaluate_after)
        self.wrap(turnoff.ComponentLedger, "disabled_components", "turnoff")

        # harness
        def checkpoint_after(res, args):
            c["harness.checkpoint_bytes"] += os.path.getsize(args[0])

        self.wrap(harness, "_write_checkpoint", "harness.checkpoint", checkpoint_after)
        self.wrap(harness, "write_report_csv", "harness.report")
        self.wrap(harness, "write_report_summary", "harness.report")
        self.wrap(harness, "run_series", "harness.run_series")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: count, total duration and self time (duration
        minus that of direct children); plus the cold retries of node LPs
        (LP spans beyond the first directly under one node-LP span)."""
        a = self.span_arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        parent, name = a["parent"], a["name"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = np.bincount(name, weights=dur - child, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        count = np.bincount(name, minlength=k)
        out = {n: {"count": int(count[i]), "total_s": float(total[i]),
                   "self_s": float(self_t[i])} for i, n in enumerate(self.names)}

        lp_ids = [self._name_id[f"lp.{r}"] for r in ROLES]
        is_lp = np.isin(name, lp_ids) & nested
        lps_under = np.bincount(parent[is_lp], minlength=len(dur))
        node_lp = name == self._name_id["bb.node_lp"]
        retries = int(np.sum(lps_under[node_lp] - 1)) if node_lp.any() else 0
        return {"spans": out, "iter_limit_retries": retries, "span_count": len(dur)}
