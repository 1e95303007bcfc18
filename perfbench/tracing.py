"""Spans around the package's public functions, installed from outside.

A traced run wraps each function listed in LAYERS at every module
attribute that binds it: the defining module, each module that imported
it, and the package namespace, so that calls between modules are caught
as well as the benchmark's own. ``AgentPolicy`` is traced through its
``__post_init__``. Each call records a span (name, start, end, parent)
in flat arrays; nothing is aggregated while the run is timed. Untraced
runs install nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "game_core": ("AgentPolicy", "joint_action_table", "policy_entropy_rows", "sup_policy_distance"),
    "soft_dp": ("evaluate_policy_exact", "soft_bellman_backup", "soft_value", "multiagent_soft_q"),
    "haspi": ("haspi_solve", "boltzmann_local_update", "expected_conditional_q"),
    "mehaml": ("mehaml_solve", "mehaml_local_update"),
    "qre_oracle": ("qre_fixed_point", "qre_residual", "boltzmann_rows"),
    "baselines": ("baseline_run", "baseline_step", "surrogate_coefficients"),
    "specs": ("load_experiment", "load_game", "trace_csv_lines", "write_summary_json", "atomic_write_text"),
    "cli": ("main", "run_experiment", "sweep_alpha", "replicate_appendix_b"),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
SOLVE_SPANS = ("haspi.haspi_solve", "mehaml.mehaml_solve")
PACKAGE = "maxent_marl"


class Tracer:
    """Records spans in memory; ``install`` and ``uninstall`` patch the package."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.bytes_written = 0
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name_id, fn, counts_bytes=False):
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_bytes:
                text = kwargs["text"] if "text" in kwargs else args[1]
                self.bytes_written += len(text.encode())
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name_id, span in enumerate(SPAN_NAMES):
            module_name, attr = span.split(".")
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            if attr == "AgentPolicy":
                cls = home.AgentPolicy
                original = cls.__post_init__
                self._patched.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(name_id, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name_id, original, counts_bytes=span == "specs.atomic_write_text")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def save(self, path):
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self, passes):
        """Per-pass layer metrics computed from the recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        in_children = np.bincount(parent[has_parent], weights=duration[has_parent],
                                  minlength=len(duration))
        self_time = duration - in_children
        n = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {span: i for i, span in enumerate(SPAN_NAMES)}

        def under(child, parents):
            return (name == ids[child]) & np.isin(parent_name, [ids[p] for p in parents])

        metrics = {}
        for span, i in ids.items():
            metrics[f"{span}.calls"] = (calls[i] / passes, "count")
            metrics[f"{span}.self_s"] = (self_s[i] / passes, "s")
        snapshot = under("soft_dp.soft_value", SOLVE_SPANS) | under("qre_oracle.qre_residual", SOLVE_SPANS)
        metrics["haspi.outer_iters"] = (
            under("game_core.sup_policy_distance", ["haspi.haspi_solve"]).sum() / passes, "count")
        metrics["mehaml.outer_iters"] = (
            under("game_core.sup_policy_distance", ["mehaml.mehaml_solve"]).sum() / passes, "count")
        metrics["qre_oracle.iters"] = (
            under("soft_dp.evaluate_policy_exact", ["qre_oracle.qre_fixed_point"]).sum() / passes, "count")
        metrics["haspi.snapshot_s"] = (duration[snapshot].sum() / passes, "s")
        metrics["specs.bytes_written"] = (self.bytes_written / passes, "B")
        return metrics
