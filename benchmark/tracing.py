"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the package's public functions and methods where the
package looks them up: a function is replaced under every name any
`shastapca` module binds it to (so `ingest` reaches the traced
`shastapca.shasta.posterior_stats`, and `run_experiment` the traced
`shastapca.harness.run_script`), and a method is replaced on its class.
Each call records one span (name, start, end, parent); each item a wrapped
generator yields records one span covering the time spent inside it.  Spans
stay in memory until `write`.  Names the package no longer defines are
skipped, and their metrics read 0.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time

# (module, attribute, span name, wraps a generator)
FUNCTIONS = (
    ("shastapca.datagen", "run_script", "datagen.sample", True),
    ("shastapca.model", "posterior_stats", "model.posterior_stats", False),
    ("shastapca.shasta", "ingest", "shasta.ingest", False),
    ("shastapca.shasta", "v_step", "shasta.v_step", False),
    ("shastapca.shasta", "f_step", "shasta.f_step", False),
    ("shastapca.shasta", "save_state", "shasta.save_state", False),
    ("shastapca.shasta", "load_state", "shasta.load_state", False),
    ("shastapca.batch", "batch_v_step", "batch.v_step", False),
    ("shastapca.batch", "batch_f_step", "batch.f_step", False),
    ("shastapca.batch", "batch_solve", "batch.solve", False),
    ("shastapca.metrics", "subspace_error", "metrics.subspace_error", False),
    ("shastapca.harness", "read_csv_samples", "harness.csv_row", True),
    ("shastapca.harness", "run_experiment", "harness.run_experiment", False),
    ("shastapca.harness", "load_config", "harness.load_config", False),
)

# (module, class, method, span name)
METHODS = (
    ("shastapca.model", "DatasetEvaluator", "__init__", "model.evaluator_build"),
    ("shastapca.model", "DatasetEvaluator", "__call__", "model.loglik"),
    ("shastapca.shasta", "ShastaPCA", "current_subspace", "shasta.current_subspace"),
    ("shastapca.baselines", "Petrels", "ingest", "baselines.petrels_ingest"),
    ("shastapca.baselines", "Grouse", "ingest", "baselines.grouse_ingest"),
    ("shastapca.metrics", "MetricTrace", "write_csv", "metrics.trace_write"),
)

# Per-layer metric: (span name, statistic, scale, unit).  "mean" is the mean
# span duration; "self" the mean duration minus the child spans it covers.
SPAN_METRICS = {
    "datagen.sample_us": ("datagen.sample", "mean", 1e6, "us"),
    "model.posterior_stats_us": ("model.posterior_stats", "mean", 1e6, "us"),
    "model.evaluator_build_s": ("model.evaluator_build", "mean", 1.0, "s"),
    "model.loglik_ms": ("model.loglik", "mean", 1e3, "ms"),
    "shasta.ingest_us": ("shasta.ingest", "mean", 1e6, "us"),
    "shasta.v_step_us": ("shasta.v_step", "mean", 1e6, "us"),
    "shasta.f_step_us": ("shasta.f_step", "mean", 1e6, "us"),
    "shasta.current_subspace_us": ("shasta.current_subspace", "mean", 1e6, "us"),
    "shasta.save_state_ms": ("shasta.save_state", "mean", 1e3, "ms"),
    "shasta.load_state_ms": ("shasta.load_state", "mean", 1e3, "ms"),
    "baselines.petrels_ingest_us": ("baselines.petrels_ingest", "mean", 1e6, "us"),
    "baselines.grouse_ingest_us": ("baselines.grouse_ingest", "mean", 1e6, "us"),
    "batch.v_step_ms": ("batch.v_step", "mean", 1e3, "ms"),
    "batch.f_step_ms": ("batch.f_step", "mean", 1e3, "ms"),
    "metrics.subspace_error_us": ("metrics.subspace_error", "mean", 1e6, "us"),
    "metrics.trace_write_ms": ("metrics.trace_write", "mean", 1e3, "ms"),
    "harness.csv_row_us": ("harness.csv_row", "mean", 1e6, "us"),
    "harness.run_self_s": ("harness.run_experiment", "self", 1.0, "s"),
    "harness.config_parse_ms": ("harness.load_config", "mean", 1e3, "ms"),
}


class Tracer:
    """In-memory spans for one process; single-threaded use only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []  # (owner, attribute, original) in install order
        self._origin = time.perf_counter()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _call_wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def _generator_wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    # The exhausting call yields no item; keep it apart.
                    self.spans[index][0] = name + ".exhausted"
                    return
                finally:
                    self._close(index)
                yield item
        return traced

    def _replace(self, owner, attribute, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "shastapca" or name.startswith("shastapca.")]
        for module_name, attribute, name, generator in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute, None)
            if original is None:
                continue
            wrap = self._generator_wrapper if generator else self._call_wrapper
            traced = wrap(original, name)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, bound, traced)
        for module_name, class_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            if cls is None or method not in vars(cls):
                continue
            self._replace(cls, method, self._call_wrapper(vars(cls)[method], name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """One row per span: id, name, start and end (seconds since the
        tracer was made), parent id (-1 for a root span)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start - self._origin),
                                 repr(end - self._origin), parent])

    def layer_metrics(self) -> dict:
        """Every span-derived per-layer metric as {name: (value, unit)}."""
        count, total, children = {}, {}, {}
        for name, start, end, parent in self.spans:
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        self_time = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = (self_time.get(name, 0.0)
                               + (end - start) - children.get(index, 0.0))

        out = {}
        for metric, (span, statistic, scale, unit) in SPAN_METRICS.items():
            calls = count.get(span, 0)
            source = total if statistic == "mean" else self_time
            out[metric] = (scale * source.get(span, 0.0) / calls if calls else 0.0,
                           unit)

        ticks = count.get("shasta.ingest", 0)
        out["model.posterior_stats_calls"] = (
            count.get("model.posterior_stats", 0) / ticks if ticks else 0.0,
            "calls/tick")
        solves = count.get("batch.solve", 0)
        out["batch.iterations"] = (
            count.get("batch.f_step", 0) / solves if solves else 0.0, "count")
        return out
