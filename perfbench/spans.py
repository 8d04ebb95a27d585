"""In-memory spans around thztrack's public functions, for the traced run.

Each traced function is wrapped once and the wrapper is bound in every
thztrack module that binds the function, so calls through any import path
are seen: ``sample_fn`` is called from ``thztrack.optimizer``, and
``pose_to_direction`` from both ``thztrack.tracking`` and
``thztrack.optimizer``. A span records (name, start, end, parent) on the
calibrated clock; a function's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from collections import Counter
from pathlib import Path

import thztrack

# (module, function) pairs reported as <module>.<function>.calls / .self_s
TRACED = (
    ("optimizer", "optimize_omega"),
    ("precoder", "sample_fn"),
    ("geometry", "predict_pose"),
    ("channel", "channel_gain"),
    ("tracking", "run_sensing_assisted"),
    ("tracking", "run_conventional"),
    ("tracking", "run_event_based"),
    ("tracking", "run_sensing_assisted_direct"),
    ("tracking", "compute_metrics"),
    ("tracking", "sweep"),
    ("geometry", "pose_to_direction"),
    ("geometry", "path_to_interval"),
    ("channel", "response_matrix"),
    ("channel", "achievable_rate"),
    ("precoder", "bf_gain_profile"),
    ("precoder", "adaptive_precoder"),
    ("precoder", "mrt_precoder"),
    ("codebook", "build_codebook"),
    ("codebook", "lookup_indices"),
    ("codebook", "entry_precoder"),
    ("codebook", "save"),
    ("codebook", "load"),
    ("exports", "write_trace"),
    ("exports", "write_sweep"),
    ("config", "parse_config_file"),
    ("config", "build_array"),
    ("config", "build_budget"),
    ("config", "build_scenario"),
    ("config", "build_pso"),
    ("config", "build_grid"),
    ("config", "build_objective_template"),
    ("config", "build_event_params"),
)

COUNTS = (
    "optimizer.evaluations",
    "optimizer.converged_iteration_p50",
    "tracking.samples",
    "codebook.save.bytes",
    "exports.bytes",
)


def _file_bytes(sink) -> int:
    return 0 if hasattr(sink, "write") else Path(sink).stat().st_size


class Tracer:
    """Wraps the traced functions while installed and keeps their spans."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.converged: list[int] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _after(self, name: str, result, args) -> None:
        if name == "optimizer.optimize_omega":
            self.counts["optimizer.evaluations"] += result.evaluations
            self.converged.append(result.converged_iteration)
        elif name.startswith("tracking.run_"):
            self.counts["tracking.samples"] += len(result.times)
        elif name == "codebook.save":
            self.counts["codebook.save.bytes"] += _file_bytes(args[1])
        elif name.startswith("exports.write_"):
            self.counts["exports.bytes"] += _file_bytes(args[1])

    def _wrap(self, name: str, fn):
        spans, stack, now = self.spans, self._stack, self.clock.now

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = now()
            self._after(name, result, args)
            return result

        return traced

    def install(self) -> None:
        modules = [thztrack] + [
            importlib.import_module(f"thztrack.{info.name}")
            for info in pkgutil.iter_modules(thztrack.__path__)
        ]
        for module_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"thztrack.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._bindings.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._bindings):
            setattr(module, fn_name, original)
        self._bindings.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, tuple[float, str]] = {}
        for module_name, fn_name in TRACED:
            name = f"{module_name}.{fn_name}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        out["optimizer.converged_iteration_p50"] = (
            statistics.median(self.converged) if self.converged else 0,
            "count",
        )
        return out
