"""Outside-in layer trace for in-process jobs.

The tracer wraps public functions of the program's layer modules from
this file, records one span per call (name, start, end, parent, job)
in memory, and restores every original on exit.  Nothing in the
program changes.  A function imported by name into other modules
(``from repro.dex.disassembler import disassemble``) is rebound in each
of them, so every call site goes through the wrapper.

Span names are the per-layer metric names.  A layer's time is its self
time: span duration minus the time its wrapped children cover, so the
rows of one job add up to the job's wall time minus
``unattributed_frac``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from stats import median, spearman

#: Per-job layer times (seconds of self time), in report order.
TIME_METRICS = (
    "workload.generate_s",
    "dex.disassemble_s",
    "android.full_pool_s",
    "store.key_s",
    "store.specmap_s",
    "search.index_fold_s",
    "store.save_index_s",
    "store.save_outcome_s",
    "store.load_index_s",
    "store.load_outcome_s",
    "core.sink_search_s",
    "core.slice_self_s",
    "search.resolve_s",
    "search.fallback_s",
    "core.forward_s",
    "api.session_self_s",
    "api.render_s",
)
#: Per-job counts and ratios, reported next to the times.
COUNT_METRICS = (
    "dex.lines",
    "store.bytes_written",
    "store.decode_frac",
    "search.resolve_calls",
    "search.cache_hit_frac",
    "search.fallback_calls",
    "core.sinks",
    "core.sink_cache_hit_frac",
)
#: Derived per-class metrics (coverage, trace cost, Fig. 9 grounding).
DERIVED_METRICS = (
    "unattributed_frac",
    "trace_overhead_frac",
    "core.analysis_s_per_sink",
    "core.preprocess_s_per_kmethod",
    "core.analysis_rho_sinks",
    "job_rho_methods",
)
LAYER_METRICS = TIME_METRICS + COUNT_METRICS + DERIVED_METRICS

#: What BackDroid's analysis proper spends (Fig. 9's y axis).
_ANALYSIS = (
    "core.sink_search_s",
    "core.slice_self_s",
    "search.resolve_s",
    "search.fallback_s",
    "core.forward_s",
)
#: Preprocessing that scales with app size.
_PREPROCESS = ("workload.generate_s", "dex.disassemble_s", "search.index_fold_s")


def _targets():
    """``(span name, owner, attribute, kind)`` for every wrapped call."""
    from repro.android.apk import Apk
    from repro.api.session import AnalysisSession
    from repro.core.forward import ForwardPropagation
    from repro.core.slicer import BackwardSlicer
    from repro.search.backends.indexed import InvertedIndexBackend, TokenIndex
    from repro.search.engine import CallerResolutionEngine
    from repro.store.artifacts import ArtifactStore

    return (
        ("workload.generate_s", "repro.workload.generator", "generate_app", "function"),
        ("dex.disassemble_s", "repro.dex.disassembler", "disassemble", "function"),
        ("store.key_s", "repro.store.artifacts", "store_key", "function"),
        ("core.sink_search_s", "repro.core.backdroid", "find_sink_call_sites", "function"),
        ("api.render_s", "repro.core.batch", "outcome_payload", "function"),
        ("android.full_pool_s", Apk, "full_pool", "first_property"),
        ("search.index_fold_s", TokenIndex, "for_disassembly", "classmethod"),
        ("store.specmap_s", ArtifactStore, "save_spec_key", "method"),
        ("store.specmap_s", ArtifactStore, "load_spec_key", "method"),
        ("store.save_index_s", ArtifactStore, "save_index", "method"),
        ("store.load_index_s", ArtifactStore, "load_index", "method"),
        ("store.save_outcome_s", ArtifactStore, "save_outcome", "method"),
        ("store.load_outcome_s", ArtifactStore, "load_outcome", "method"),
        ("core.slice_self_s", BackwardSlicer, "slice_sink", "method"),
        ("search.resolve_s", CallerResolutionEngine, "resolve", "method"),
        ("search.fallback_s", InvertedIndexBackend, "literal_lines", "method"),
        ("search.fallback_s", InvertedIndexBackend, "pattern_lines", "method"),
        ("core.forward_s", ForwardPropagation, "run", "method"),
        ("api.session_self_s", AnalysisSession, "run", "method"),
    )


class LayerTracer:
    """Single-threaded span recorder over patched layer entry points."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index, job)`` per span.  Tuples of
        #: atoms drop out of the cyclic GC's tracking, so a growing span
        #: list does not make the program's own collections slower.
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job: Optional[str] = None
        self._undo: list[Callable[[], None]] = []
        #: job -> counter name -> value (``dex.lines``).
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)

    # -- span recording ------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self._job))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent, job = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, job)
        self._stack.pop()

    def timed(self, name: str, fn: Callable, on_result=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None and self._job is not None:
                on_result(self.counts[self._job], result)
            return result

        return wrapper

    def run_job(self, job_id: str, fn: Callable, *args):
        """Run one job under a root span with every layer wrapped;
        returns ``(result, seconds)``.  The wrappers are installed only
        around the job, so untraced jobs of the same run stay untouched."""
        self.install()
        try:
            self._job = job_id
            index = self._open("job")
            try:
                result = fn(*args)
            finally:
                self._close(index)
                self._job = None
        finally:
            self.uninstall()
        _, start, end, _, _ = self.spans[index]
        return result, end - start

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for name, owner, attr, kind in _targets():
            on_result = _count_lines if name == "dex.disassemble_s" else None
            if kind == "function":
                self._patch_function(name, owner, attr, on_result)
            elif kind == "method":
                self._patch_attr(owner, attr, self.timed(name, owner.__dict__[attr]))
            elif kind == "classmethod":
                func = owner.__dict__[attr].__func__
                self._patch_attr(owner, attr, classmethod(self.timed(name, func)))
            else:
                self._patch_attr(owner, attr, self._first_property(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_attr(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, name, module_name, attr, on_result) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.timed(name, original, on_result)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(attr) is original
            ):
                self._patch_attr(module, attr, wrapped)

    def _first_property(self, name: str, prop: property) -> property:
        """Time only the first (uncached) read of a lazy property."""
        getter = prop.fget
        timed = self.timed(name, getter)
        private = f"_{getter.__name__}"

        def first(instance):
            if instance.__dict__.get(private) is None:
                return timed(instance)
            return getter(instance)

        return property(first, prop.fset, prop.fdel, prop.__doc__)

    # -- aggregation ---------------------------------------------------
    def job_profile(self) -> dict[str, dict[str, float]]:
        """job -> ``{metric: self seconds}`` plus ``wall`` and
        ``unattributed`` (the root span's own self time)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        profile: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job is None:
                continue
            own = end - start - child_time[index]
            row = profile[job]
            if name == "job":
                row["wall"] = end - start
                row["unattributed"] = own
            else:
                row[name] += own
                row[f"#{name}"] += 1
        return profile


def _count_lines(counts: dict, disassembly) -> None:
    counts["dex.lines"] = counts.get("dex.lines", 0) + len(disassembly.lines)


def class_metrics(rows: list[dict], overhead: float) -> dict[str, float]:
    """Per-class layer metrics from per-job rows (medians over jobs);
    *overhead* is the class's traced p50 over its untraced p50, minus 1.

    Each row holds the job's profile plus ``sinks``, ``methods``,
    ``search_cache_rate``, ``sink_cache_rate``, ``decode_frac``,
    ``bytes_written`` and ``lines``.
    """
    out: dict[str, float] = {}
    for name in TIME_METRICS:
        out[name] = median([r.get(name, 0.0) for r in rows])
    out["dex.lines"] = median([r["lines"] for r in rows])
    out["store.bytes_written"] = median([r["bytes_written"] for r in rows])
    out["store.decode_frac"] = median([r["decode_frac"] for r in rows])
    out["search.resolve_calls"] = median(
        [r.get("#search.resolve_s", 0) for r in rows]
    )
    out["search.fallback_calls"] = median(
        [r.get("#search.fallback_s", 0) for r in rows]
    )
    out["search.cache_hit_frac"] = median([r["search_cache_rate"] for r in rows])
    out["core.sinks"] = median([r["sinks"] for r in rows])
    out["core.sink_cache_hit_frac"] = median([r["sink_cache_rate"] for r in rows])
    out["unattributed_frac"] = median(
        [r["unattributed"] / r["wall"] for r in rows]
    )
    out["trace_overhead_frac"] = overhead
    analysis = [sum(r.get(n, 0.0) for n in _ANALYSIS) for r in rows]
    preprocess = sum(sum(r.get(n, 0.0) for n in _PREPROCESS) for r in rows)
    sinks = sum(r["sinks"] for r in rows)
    methods = sum(r["methods"] for r in rows)
    out["core.analysis_s_per_sink"] = sum(analysis) / sinks if sinks else 0.0
    out["core.preprocess_s_per_kmethod"] = (
        preprocess / (methods / 1000.0) if methods else 0.0
    )
    out["core.analysis_rho_sinks"] = spearman(analysis, [r["sinks"] for r in rows])
    out["job_rho_methods"] = spearman(
        [r["wall"] for r in rows], [r["methods"] for r in rows]
    )
    return out


def render_table(cls: str, rows: list[dict], metrics: dict[str, float]) -> str:
    """One class's self-time table: p50 seconds and share of the p50 job."""
    wall = median([r["wall"] for r in rows])
    lines = [
        f"[{cls}] {len(rows)} jobs, p50 wall {wall * 1000:.1f} ms "
        f"(traced; overhead {metrics['trace_overhead_frac']:+.1%})",
        f"  {'layer':26} {'p50 ms':>9} {'share':>7}",
    ]
    shares = {
        name: median([r.get(name, 0.0) / r["wall"] for r in rows])
        for name in TIME_METRICS
    }
    shares["unattributed"] = metrics["unattributed_frac"]
    for name in sorted(shares, key=shares.get, reverse=True):
        if name == "unattributed":
            value = median([r["unattributed"] for r in rows])
        else:
            value = metrics[name]
        lines.append(f"  {name:26} {value * 1000:9.2f} {shares[name]:7.1%}")
    preprocess = median(
        [
            (r.get("workload.generate_s", 0.0) + r.get("dex.disassemble_s", 0.0))
            / r["wall"]
            for r in rows
        ]
    )
    lines.append(
        f"  generation + disassembly rendering: {preprocess:.1%} of a "
        f"{cls} job (p50 over jobs)"
    )
    lines.append(
        f"  Fig. 9: {metrics['core.analysis_s_per_sink'] * 1000:.2f} ms of "
        f"analysis per sink, {metrics['core.preprocess_s_per_kmethod'] * 1000:.1f}"
        f" ms of preprocessing per 1k methods; Spearman rho of analysis time "
        f"vs sinks {metrics['core.analysis_rho_sinks']:+.2f}, of job time vs "
        f"methods {metrics['job_rho_methods']:+.2f}"
    )
    return "\n".join(lines)
