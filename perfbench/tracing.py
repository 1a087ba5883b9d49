"""Timing shims around dltsched's public functions, installed from outside.

Every public function of the traced layers is wrapped once. ``install``
puts the wrappers into every dltsched module namespace that holds the
original, so calls are caught wherever the program looks a function up
(``datagen`` calls ``solve_optimal`` through its own import, ``cli``
through ``solver.``). ``uninstall`` puts the originals back. Calls are kept
in memory as durations plus self time: the part of a call that no traced
call beneath it covers.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("solver", "datagen", "mlp", "evaluation", "cli")


@dataclass
class Calls:
    total_ns: list[int] = field(default_factory=list)
    self_ns: list[int] = field(default_factory=list)
    notes: list = field(default_factory=list)  # one observed value per call, where observed


# Values read from a call's arguments or result, kept beside its duration.
OBSERVERS = {
    "solver.solve_optimal": lambda args, result: args[0].n,
    "datagen.generate_dataset": lambda args, result: len(result),
    "datagen.save_dataset": lambda args, result: os.path.getsize(args[0]),
    "mlp.predict_features": lambda args, result: len(result),
    "mlp.train": lambda args, result: result[1].epochs_run,
    "cli.hybrid_predict": lambda args, result: result.source == "dlt-verified",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, Calls] = {}
        self._stack: list[int] = []
        self._shims = {}
        self._patched: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = sys.modules[f"dltsched.{layer}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    self._shims[fn] = self._shim(f"{layer}.{name}", fn)

    def _shim(self, name: str, fn):
        record = self.calls.setdefault(name, Calls())
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record.total_ns.append(elapsed)
                record.self_ns.append(elapsed - inner)
            if observe is not None:
                record.notes.append(observe(args, result))
            return result

        return shim

    def install(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "dltsched" and not module_name.startswith("dltsched."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._shims:
                    setattr(module, attr, self._shims[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


P50_US = (
    "solver.solve_optimal",
    "solver.to_time_rates",
    "solver.oracle_solve",
    "datagen.sample_config",
    "datagen.extract_features",
    "mlp.predict",
    "cli.hybrid_predict",
)
MEDIAN_S = (
    "datagen.save_dataset",
    "datagen.load_dataset",
    "datagen.split_dataset",
    "datagen.fit_normalization",
    "mlp.train",
    "mlp.save_model",
    "mlp.load_model",
    "evaluation.compute_metrics",
    "evaluation.stratify",
    "evaluation.residual_analysis",
    "evaluation.emit_plot_data",
)
SELF_S = ("cli.cmd_generate", "cli.cmd_train", "cli.cmd_evaluate")
P99_US = ("solver.solve_optimal", "mlp.predict", "cli.hybrid_predict")
ROUTE_SPLIT = 12  # n above which solve_optimal takes its log-space route


def layer_metrics(calls: dict[str, Calls]) -> dict[str, float]:
    """Per-layer figures for every traced function that was called."""
    out: dict[str, float] = {}
    seen = {name: rec for name, rec in calls.items() if rec.total_ns}

    for fn in P50_US:
        if fn in seen:
            out[f"{fn}.p50_us"] = statistics.median(seen[fn].total_ns) / 1e3
            out[f"{fn}.calls"] = len(seen[fn].total_ns)
    for fn in P99_US:
        if fn in seen:
            out[f"{fn}.p99_us"] = float(np.percentile(seen[fn].total_ns, 99)) / 1e3
    if {"mlp.predict", "solver.to_time_rates", "solver.solve_optimal"} <= seen.keys():
        # The paper's speed-up claim per call: one surrogate answer over one exact answer.
        out["compare.surrogate_over_exact"] = out["mlp.predict.p50_us"] / (
            out["solver.to_time_rates.p50_us"] + out["solver.solve_optimal.p50_us"]
        )
    if "solver.solve_optimal" in seen:
        rec = seen["solver.solve_optimal"]
        for route, on_route in (("n_le_12", lambda n: n <= ROUTE_SPLIT), ("n_gt_12", lambda n: n > ROUTE_SPLIT)):
            picked = [t for t, n in zip(rec.total_ns, rec.notes) if on_route(n)]
            if picked:
                out[f"solver.solve_optimal.{route}.p50_us"] = statistics.median(picked) / 1e3
                out[f"solver.solve_optimal.{route}.calls"] = len(picked)
    for fn in MEDIAN_S:
        if fn in seen:
            out[f"{fn}.s"] = statistics.median(seen[fn].total_ns) / 1e9
            out[f"{fn}.calls"] = len(seen[fn].total_ns)
    for fn in SELF_S:
        if fn in seen:
            out[f"{fn}.self_s"] = statistics.median(seen[fn].self_ns) / 1e9
            out[f"{fn}.calls"] = len(seen[fn].self_ns)
    if "datagen.generate_dataset" in seen:
        rec = seen["datagen.generate_dataset"]
        out["datagen.generate_dataset.records_per_s"] = sum(rec.notes) / (sum(rec.total_ns) / 1e9)
        out["datagen.generate_dataset.calls"] = len(rec.total_ns)
    if "datagen.save_dataset" in seen:
        out["datagen.dataset_mb"] = seen["datagen.save_dataset"].notes[-1] / 1e6
    if "mlp.train" in seen:
        rec = seen["mlp.train"]
        out["mlp.train.ms_per_epoch"] = statistics.median(t / e for t, e in zip(rec.total_ns, rec.notes)) / 1e6
        out["mlp.train.epochs"] = statistics.median(rec.notes)
    if "mlp.predict_features" in seen:
        rec = seen["mlp.predict_features"]
        out["mlp.predict_features.us_per_row"] = sum(rec.total_ns) / sum(rec.notes) / 1e3
        out["mlp.predict_features.calls"] = len(rec.total_ns)
    if "cli.hybrid_predict" in seen:
        notes = seen["cli.hybrid_predict"].notes
        out["cli.hybrid_predict.verified"] = sum(notes)
        out["cli.hybrid_predict.verified_share"] = sum(notes) / len(notes)
    return out
