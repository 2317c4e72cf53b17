"""Lightweight tracing with cross-process span propagation.

A *span* is one timed stage of one job: it carries a ``trace_id``
(shared by every span of the job), its own ``span_id``, its parent's
span id, a name from the span taxonomy (``job``, ``store.probe``,
``queue``, ``dispatch``, ``worker``, ``index.restore``, ...), free-form
attrs, and wall + CPU durations.  Spans are plain dicts once finished,
so they serialize anywhere a payload does — including back across the
:class:`~repro.service.workers.ProcessLane` pipe.

Propagation has two halves:

* **In-process** a context variable tracks the active span; library
  code (the analysis pipeline, the search backends) opens child spans
  with the module-level :func:`span` helper without any plumbing — if
  no ambient span is active and the default tracer is disabled, the
  helper costs one context-var read and returns the no-op
  :data:`NULL_SPAN`.
* **Across the process boundary** the parent serializes
  ``span.context()`` (two ids) into the worker task; the worker opens
  its spans under a local :class:`Tracer` parented on that context and
  ships the finished span dicts home with the result, where
  :meth:`Tracer.attach` merges them into the job's trace.

Tracers *record* finished spans per trace id (bounded, oldest trace
evicted) until :meth:`Tracer.collect` pops them — the scheduler does
that once per job, when the root span ends.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from collections import OrderedDict
from typing import Iterator, Optional, Union

#: How many in-flight traces a tracer buffers before evicting the
#: oldest.  Traces are popped at job completion, so this bound only
#: matters for abandoned traces (e.g. spans opened but never collected).
DEFAULT_MAX_TRACES = 256

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "backdroid_active_span", default=None
)


# Ids come from the module's Mersenne Twister, several times cheaper
# than ``uuid4`` (an ``os.urandom`` call each); they need only be
# distinct, not unguessable.  ``random`` reseeds itself in a forked
# child, so a cold-lane worker never repeats its parent's ids.
def _new_trace_id() -> str:
    return "%032x" % random.getrandbits(128)


def _new_span_id() -> str:
    return "%016x" % random.getrandbits(64)


class Span:
    """One live, timed stage.  Finished spans become plain dicts."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "pid",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "_perf_start",
        "_cpu_start",
        "_thread_id",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[dict] = None,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.pid = os.getpid()
        self.started_at = time.time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        self._perf_start = time.perf_counter()
        self._cpu_start = time.thread_time()
        self._thread_id = threading.get_ident()
        self._ended = False

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def context(self) -> dict:
        """The serializable propagation context (rides the worker pipe)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def end(self) -> None:
        """Close the span and record it with its tracer (idempotent)."""
        if self._ended:
            return
        self._ended = True
        self.wall_seconds = time.perf_counter() - self._perf_start
        # thread_time is per-thread: a span handed between threads (the
        # job root starts on the submit thread, ends on a lane worker)
        # has no meaningful CPU delta, so report none rather than noise.
        if threading.get_ident() == self._thread_id:
            self.cpu_seconds = time.thread_time() - self._cpu_start
        self.tracer._record(self)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The no-op span: every tracing call site works when disabled."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = "null"
    pid = None
    attrs: dict = {}

    def set_attr(self, key, value) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass

    def context(self) -> None:
        return None

    def end(self) -> None:
        pass

    def as_dict(self) -> dict:
        return {}

    def __bool__(self) -> bool:
        # ``if span:`` guards record-keeping (trace ids on jobs) without
        # special-casing the disabled path.
        return False


NULL_SPAN = _NullSpan()

#: What ``parent=`` accepts: a live span, a serialized context from
#: :meth:`Span.context` (the cross-process case), or nothing.
ParentLike = Union[Span, _NullSpan, dict, None]


class _SpanScope:
    """Context manager for one span: activates it, ends it on exit."""

    __slots__ = ("_span", "_token")

    def __init__(self, span_obj) -> None:
        self._span = span_obj
        self._token = None

    def __enter__(self):
        if self._span is not NULL_SPAN:
            self._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self._span is not NULL_SPAN:
            self._span.set_attr("error", f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            _current.reset(self._token)
        self._span.end()


class Tracer:
    """Creates spans and buffers finished ones per trace id.

    A disabled tracer (the default) hands out :data:`NULL_SPAN` —
    call sites never branch.  Thread-safe; one instance serves all the
    scheduler's lanes.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.max_traces = DEFAULT_MAX_TRACES
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[dict]]" = OrderedDict()
        #: Spans dropped because their trace was evicted before collect.
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: ParentLike = None,
        attrs: Optional[dict] = None,
    ):
        """Open a span (caller ends it).  ``NULL_SPAN`` when disabled.

        Without an explicit *parent* the ambient (context-var) span is
        the parent; without that, the span starts a new trace.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = _current.get()
        if isinstance(parent, dict):
            trace_id = parent["trace_id"]
            parent_id = parent.get("span_id")
        elif parent is None or parent is NULL_SPAN or isinstance(parent, _NullSpan):
            trace_id = _new_trace_id()
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(self, name, trace_id, parent_id, attrs)

    def span(
        self,
        name: str,
        parent: ParentLike = None,
        attrs: Optional[dict] = None,
    ) -> _SpanScope:
        """Like :meth:`start_span`, as a context manager that also makes
        the span *ambient* (children opened inside nest under it)."""
        return _SpanScope(self.start_span(name, parent=parent, attrs=attrs))

    # ------------------------------------------------------------------
    def _record(self, span_obj: Span) -> None:
        entry = span_obj.as_dict()
        with self._lock:
            bucket = self._traces.get(span_obj.trace_id)
            if bucket is None:
                bucket = self._traces[span_obj.trace_id] = []
            else:
                self._traces.move_to_end(span_obj.trace_id)
            bucket.append(entry)
            while len(self._traces) > self.max_traces:
                _, dropped = self._traces.popitem(last=False)
                self.dropped_spans += len(dropped)

    def attach(self, trace_id: Optional[str], spans: Iterator[dict]) -> None:
        """Merge foreign finished spans (e.g. a worker's) into a trace."""
        if not trace_id:
            return
        spans = [dict(entry) for entry in spans]
        if not spans:
            return
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                bucket = self._traces[trace_id] = []
            bucket.extend(spans)

    def collect(self, trace_id: Optional[str]) -> list[dict]:
        """Pop and return a trace's finished spans, oldest first."""
        if not trace_id:
            return []
        with self._lock:
            spans = self._traces.pop(trace_id, [])
        spans.sort(key=lambda entry: entry.get("started_at") or 0.0)
        return spans

    def pending_traces(self) -> int:
        with self._lock:
            return len(self._traces)


#: The process-default tracer: disabled until something (the CLI's
#: ``analyze --trace``) enables it.  The scheduler owns its *own*
#: tracer; library spans land there because the ambient parent carries
#: its tracer through the context variable.
_default = Tracer(enabled=False)


def current_span():
    """The ambient span (``None`` outside any active scope)."""
    return _current.get()


def _resolve_tracer(parent: ParentLike) -> Tracer:
    if isinstance(parent, Span):
        return parent.tracer
    return _default


def span(name: str, attrs: Optional[dict] = None) -> _SpanScope:
    """Open a child of the ambient span as a context manager.

    This is the instrumentation entry point for library code: the
    active span's own tracer records the child, so pipeline stages need
    no tracer plumbing.  With no ambient span and the default tracer
    disabled, it is a no-op.
    """
    parent = _current.get()
    return _resolve_tracer(parent).span(name, parent=parent, attrs=attrs)


def start_span(name: str, attrs: Optional[dict] = None):
    """Open a child of the ambient span *without* making it ambient.

    For stages that stay open across generator yields (the caller ends
    it): the span is recorded normally but never becomes the context
    parent of unrelated work running between yields.
    """
    parent = _current.get()
    return _resolve_tracer(parent).start_span(name, parent=parent, attrs=attrs)


# ======================================================================
# Rendering
# ======================================================================

def render_span_tree(spans: list[dict]) -> str:
    """A human-readable indented tree of one trace's finished spans."""
    if not spans:
        return "(no spans recorded)"
    by_id = {entry["span_id"]: entry for entry in spans}
    children: dict = {}
    roots = []
    ordered = sorted(spans, key=lambda entry: entry.get("started_at") or 0.0)
    for entry in ordered:
        parent_id = entry.get("parent_id")
        if parent_id and parent_id in by_id:
            children.setdefault(parent_id, []).append(entry)
        else:
            roots.append(entry)

    lines = []

    def walk(entry: dict, depth: int) -> None:
        wall = entry.get("wall_seconds")
        cpu = entry.get("cpu_seconds")
        wall_ms = f"{wall * 1000:.1f}ms" if wall is not None else "?"
        cpu_ms = f" cpu={cpu * 1000:.1f}ms" if cpu is not None else ""
        attrs = entry.get("attrs") or {}
        attr_text = ""
        if attrs:
            parts = [f"{key}={attrs[key]!r}" for key in sorted(attrs)]
            attr_text = "  {" + ", ".join(parts) + "}"
        pid = entry.get("pid")
        pid_text = f" pid={pid}" if pid is not None else ""
        lines.append(
            f"{'  ' * depth}{entry['name']}  {wall_ms}{cpu_ms}"
            f"{pid_text}{attr_text}"
        )
        for child in children.get(entry["span_id"], ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
