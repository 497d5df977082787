"""Spans around the package's public functions, installed from outside.

A ``Tracer`` replaces every binding of a traced function in the loaded
``stratasim`` modules with a wrapper that records one span per call: name,
start, end, parent span and run id.  Spans stay in memory until the run ends.
Self time is a span's duration minus the time covered by its children; spans
nest strictly because the package is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Traced functions by layer (module), as "function" or "Class.method".
TRACED = {
    "core": ("enumerate_moves", "apply_move"),
    "gaussnum": (
        "mvn_cdf_below", "cov_matrix", "chol_psd", "condition", "mvn_logpdf",
        "sample_gaussian_field", "sample_truncated_mvn",
    ),
    "likelihood": ("layer_loglik",),
    "mcmc": (
        "run_chain", "update_parameter", "update_configuration",
        "ThicknessModel.layer_term", "ThicknessModel.all_terms",
    ),
    "fieldsim": ("simulate_unconditional", "simulate_conditional", "cross_section"),
}

# The io readers and writers the CLI calls; each also records file bytes.
IO_FUNCTIONS = (
    "load_parent", "load_boreholes", "load_samples", "load_configurations",
    "save_parent", "save_boreholes", "save_truth", "save_samples",
    "save_configurations", "save_diagnostics", "save_summary", "save_raster",
    "save_stack_grid", "save_section", "save_polylines",
)


class Tracer:
    """Records spans while installed and active; see ``install``."""

    def __init__(self):
        self.spans: list = []
        self.run = ""
        self.active = True
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_cdf(self, fn):
        tol_default = inspect.signature(fn).parameters["tol"].default
        counters = self.counters

        def observe(args, kwargs, result):
            dim = len(args[0]) if hasattr(args[0], "__len__") else 1
            counters["gaussnum.mvn_cdf_below.dim_sum"] += dim
            counters["gaussnum.mvn_cdf_below.dim_max"] = max(
                counters["gaussnum.mvn_cdf_below.dim_max"], dim
            )
            tol = kwargs.get("tol", args[3] if len(args) > 3 else tol_default)
            if result[1] > tol:
                counters["gaussnum.mvn_cdf_below.over_tol"] += 1

        return observe

    def _observe_field(self, args, kwargs, result):
        self.counters["gaussnum.sample_gaussian_field.points_sum"] += len(result)

    def _observe_bytes(self, name):
        def observe(args, kwargs, result):
            self.counters[f"{name}.bytes"] += os.path.getsize(args[0])

        return observe

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every binding of every traced function in loaded modules."""
        from stratasim import fieldsim, gaussnum, io, likelihood, mcmc  # noqa: F401

        modules = [m for n, m in list(sys.modules.items())
                   if n == "stratasim" or n.startswith("stratasim.")]
        targets = []
        for layer, names in TRACED.items():
            home = sys.modules[f"stratasim.{layer}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                fn = getattr(owner, attr)
                observe = None
                if qual == "mvn_cdf_below":
                    observe = self._observe_cdf(fn)
                elif qual == "sample_gaussian_field":
                    observe = self._observe_field
                targets.append((f"{layer}.{qual}", owner, attr, fn, observe))
        for attr in IO_FUNCTIONS:
            fn = getattr(io, attr)
            name = f"io.{attr}"
            targets.append((name, io, attr, fn, self._observe_bytes(name)))

        for name, owner, attr, fn, observe in targets:
            wrapper = self._wrap(name, fn, observe)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            # every module-level binding of the same function object
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, us_per_call."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        for row in out.values():
            row["us_per_call"] = 1e6 * row["total_s"] / row["calls"]
        return out

    def write(self, path):
        """Spans as JSON lines: [name, start_s, end_s, parent_index, run]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
