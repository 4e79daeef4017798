"""Span recorder for the ktseg layer modules, installed from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
(``ktseg.cli``, ``ktseg.io``, ...) and rebinds every name in the ``ktseg``
package that refers to one of them, so calls through ``from .x import y``
bindings such as ``cli.solve_range`` or ``metrics.solve_fixed`` are recorded
too. ``Tracer.restore`` puts every original back. A span records its name,
start, end, parent span and job; spans stay in memory until the caller writes
them out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: The package's modules, used as the layers of the trace.
LAYERS = ("cli", "io", "segmentation", "sampling", "metrics", "synth", "oracle")

#: The DP solvers; their summed self time is segmentation.solve_s.
SOLVERS = ("segmentation.solve_fixed", "segmentation.solve_auto", "segmentation.solve_range")
#: The writers; io.write_s is the time in calls to them that are not nested in
#: another one, which includes the JSON rendering they delegate to.
WRITERS = (
    "io.write_segmentation",
    "io.write_plan",
    "io.write_features",
    "io.write_truth",
    "io.atomic_write_text",
    "io.atomic_write_bytes",
)

#: Per-layer metrics: name -> (unit, better). Times, bytes and cells are per
#: traced work job. Every traced job of the run (work, per-pass check and the
#: smoke pass) adds to the times, so a layer the work jobs never reach still
#: shows the small time the checks spend in it; the DP row counts
#: (dp_cells, dp_useful_frac) come from the work jobs alone.
PER_LAYER = {
    "cli.main_s": ("s", "lower"),
    "io.read_features_s": ("s", "lower"),
    "io.read_features_mb_per_s": ("MB/s", "higher"),
    "io.write_s": ("s", "lower"),
    "segmentation.compute_gram_s": ("s", "lower"),
    "segmentation.build_variance_table_s": ("s", "lower"),
    "segmentation.solve_s": ("s", "lower"),
    "segmentation.rss_hwm_mb": ("MB", "lower"),
    "segmentation.dense_bytes": ("bytes", "lower"),
    "segmentation.dp_cells": ("count", "lower"),
    "segmentation.dp_useful_frac": ("ratio", "higher"),
    "sampling.plan_samples_s": ("s", "lower"),
    "metrics.objective_comparison_self_s": ("s", "lower"),
    "metrics.boundary_metrics_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    attrs: dict = field(default_factory=dict)


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dense_bytes(tracer, span, args, result) -> None:
    """Bytes held by the arrays of a returned GramMatrix or VarianceTable."""
    held = getattr(result, "__dict__", {}).values()
    span.attrs["dense_bytes"] = sum(v.nbytes for v in held if isinstance(v, np.ndarray))


def _dp_rows(tracer, span, args, result) -> None:
    """DP rows 1..rows filled by one solve call over table.n candidates."""
    table = args.get("table")
    if "m" in args:
        rows = int(args["m"])
    elif "m_max" in args:
        rows = int(args["m_max"])
    else:
        ms = args.get("m_values")
        rows = max((int(m) for m in ms), default=0) if isinstance(ms, (list, tuple, range)) else 0
    if table is None or rows < 1:
        return
    span.attrs["dp_rows"] = rows
    span.attrs["dp_cells"] = (rows - 1) * (table.n + 1) ** 2
    span.attrs["table"] = tracer.table_key(table)


def _read_bytes(tracer, span, args, result) -> None:
    path = args.get("path")
    if path is not None:
        span.attrs["bytes"] = os.path.getsize(path)


_OBSERVERS = {
    "segmentation.compute_gram": _dense_bytes,
    "segmentation.build_variance_table": _dense_bytes,
    **{name: _dp_rows for name in SOLVERS},
    "io.read_features": _read_bytes,
}


class Tracer:
    """Records a span per call into the layer modules of ``ktseg``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._job_tables: list[object] = []
        self._raised: list[tuple[str, BaseException]] = []

    # -- installing and restoring ---------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ktseg.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer, attr, obj))
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ktseg" or name.startswith("ktseg."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def recording(self, job: int):
        """Install the wrappers for one job and restore them afterwards."""
        self.job = job
        self.install()
        try:
            yield self
        finally:
            self.restore()
            self._job_tables.clear()
            self._raised.clear()

    # -- recording --------------------------------------------------------

    def table_key(self, table) -> int:
        """Index of ``table`` among the tables solved in the current job."""
        for i, seen in enumerate(self._job_tables):
            if seen is table:
                return i
        self._job_tables.append(table)
        return len(self._job_tables) - 1

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # An exception is counted once per layer it leaves, not once per frame.
        if not any(seen_layer == layer and seen is exc for seen_layer, seen in self._raised):
            self._raised.append((layer, exc))
            self.errors[layer] += 1

    def _wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.job)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer, span, bound.arguments, result)
            if layer == "segmentation":
                span.attrs["rss_hwm_mb"] = _rss_hwm_mb()
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], errors: dict, work_jobs: set[int], overhead_s: float) -> dict:
    """Per-layer metric values from recorded spans, per traced work job.

    ``work_jobs`` holds the job numbers of the traced work jobs.
    """
    own = self_times(spans)
    per_job = 1.0 / max(len(work_jobs), 1)

    def self_of(names) -> float:
        return sum(t for s, t in zip(spans, own) if s.name in names)

    def incl_of(name) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def outermost(names) -> float:
        total = 0.0
        for s in spans:
            if s.name in names:
                parent = s.parent
                while parent >= 0 and spans[parent].name not in names:
                    parent = spans[parent].parent
                if parent < 0:
                    total += s.end - s.start
        return total

    reads = [s for s in spans if s.name == "io.read_features"]
    read_s = sum(s.end - s.start for s in reads)
    read_mb = sum(s.attrs.get("bytes", 0) for s in reads) / 2**20
    solves = [s for s in spans if "dp_rows" in s.attrs and s.job in work_jobs]
    distinct: dict[tuple[int, int], int] = {}
    for s in solves:
        key = (s.job, s.attrs["table"])
        distinct[key] = max(distinct.get(key, 0), s.attrs["dp_rows"])
    computed = sum(s.attrs["dp_rows"] for s in solves)

    values = {
        "cli.main_s": incl_of("cli.main") * per_job,
        "io.read_features_s": read_s * per_job,
        "io.read_features_mb_per_s": read_mb / read_s if read_s > 0 else 0.0,
        "io.write_s": outermost(WRITERS) * per_job,
        "segmentation.compute_gram_s": self_of({"segmentation.compute_gram"}) * per_job,
        "segmentation.build_variance_table_s": self_of({"segmentation.build_variance_table"}) * per_job,
        "segmentation.solve_s": self_of(SOLVERS) * per_job,
        "segmentation.rss_hwm_mb": max((s.attrs.get("rss_hwm_mb", 0.0) for s in spans), default=0.0),
        "segmentation.dense_bytes": sum(s.attrs.get("dense_bytes", 0) for s in spans) * per_job,
        "segmentation.dp_cells": sum(s.attrs["dp_cells"] for s in solves) * per_job,
        "segmentation.dp_useful_frac": sum(distinct.values()) / computed if computed else 0.0,
        "sampling.plan_samples_s": incl_of("sampling.plan_samples") * per_job,
        "metrics.objective_comparison_self_s": self_of({"metrics.objective_comparison"}) * per_job,
        "metrics.boundary_metrics_s": incl_of("metrics.boundary_metrics") * per_job,
        "synth.generate_s": incl_of("synth.generate") * per_job,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (
            sum(t for s, t in zip(spans, own) if s.name.split(".", 1)[0] == layer) * per_job
        )
        values[f"{layer}.errors"] = errors.get(layer, 0)
    values["trace.overhead_s"] = overhead_s
    return values
