"""Tracer semantics: ambient propagation, cross-process contexts,
disabled-mode no-ops, and the rendered tree."""

import os

from repro import telemetry
from repro.telemetry import NULL_SPAN, Tracer, render_span_tree, tracing
from repro.telemetry.tracing import current_span


class TestDisabled:
    def test_disabled_tracer_hands_out_the_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_span("job")
        assert span is NULL_SPAN
        assert not span  # falsy: `if span:` guards record-keeping
        assert span.context() is None
        span.set_attr("k", "v")  # every call site must be a no-op
        span.end()

    def test_module_helper_without_ambient_span_is_a_noop(self):
        # Library instrumentation outside any traced scope: the default
        # tracer is disabled, so this must cost nothing and record
        # nothing.
        with telemetry.span("index.fold") as span:
            assert span is NULL_SPAN
        assert current_span() is None


class TestAmbientPropagation:
    def test_children_nest_under_the_ambient_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("job") as root:
            # Library code uses the module helper with zero plumbing;
            # the ambient parent carries the tracer itself.
            with telemetry.span("index.fold") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                assert current_span() is child
            assert current_span() is root
        spans = tracer.collect(root.trace_id)
        assert [s["name"] for s in spans] == ["index.fold", "job"] or [
            s["name"] for s in spans
        ] == ["job", "index.fold"]

    def test_non_ambient_start_span_never_becomes_the_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("job") as root:
            held = telemetry.start_span("resolve.callers")
            # Work between generator yields must still parent on the
            # job, not on the held-open span.
            with telemetry.span("unrelated") as other:
                assert other.parent_id == root.span_id
            held.end()
        spans = tracer.collect(root.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert by_name["resolve.callers"]["parent_id"] == root.span_id

    def test_exception_stamps_an_error_attr(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("job") as root:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (span,) = tracer.collect(root.trace_id)
        assert span["attrs"]["error"] == "RuntimeError: boom"


class TestCrossProcessContext:
    def test_dict_context_parents_a_foreign_tracer(self):
        # The worker side: a local tracer opens its root span on the
        # serialized {trace_id, span_id} that rode the pipe.
        parent_side = Tracer(enabled=True)
        dispatch = parent_side.start_span("dispatch")
        ctx = dispatch.context()

        worker_side = Tracer(enabled=True)
        with worker_side.span("worker", parent=ctx) as worker:
            assert worker.trace_id == dispatch.trace_id
            assert worker.parent_id == dispatch.span_id
        shipped = worker_side.collect(dispatch.trace_id)
        assert len(shipped) == 1

        # The parent merges the shipped spans into its own buffer.
        parent_side.attach(dispatch.trace_id, shipped)
        dispatch.end()
        spans = parent_side.collect(dispatch.trace_id)
        assert {s["name"] for s in spans} == {"dispatch", "worker"}
        assert len({s["trace_id"] for s in spans}) == 1

    def test_every_span_stamps_its_pid(self):
        tracer = Tracer(enabled=True)
        span = tracer.start_span("job")
        assert span.pid == os.getpid()
        span.end()
        (entry,) = tracer.collect(span.trace_id)
        assert entry["pid"] == os.getpid()


class TestBuffering:
    def test_collect_pops_the_trace(self):
        tracer = Tracer(enabled=True)
        span = tracer.start_span("job")
        span.end()
        assert len(tracer.collect(span.trace_id)) == 1
        assert tracer.collect(span.trace_id) == []

    def test_oldest_trace_evicted_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr(tracing, "DEFAULT_MAX_TRACES", 2)
        tracer = Tracer(enabled=True)
        spans = []
        for _ in range(3):
            s = tracer.start_span("job")
            s.end()
            spans.append(s)
        assert tracer.collect(spans[0].trace_id) == []
        assert tracer.dropped_spans == 1
        assert len(tracer.collect(spans[2].trace_id)) == 1

    def test_attach_ignores_empty(self):
        tracer = Tracer(enabled=True)
        tracer.attach(None, [{"name": "x"}])
        tracer.attach("t", [])
        assert tracer.pending_traces() == 0


class TestRendering:
    def test_tree_indents_children_and_shows_pids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("job", attrs={"lane": "main"}) as root:
            with tracer.span("dispatch"):
                with tracer.span("worker"):
                    pass
        text = render_span_tree(tracer.collect(root.trace_id))
        lines = text.splitlines()
        assert lines[0].startswith("job ")
        assert lines[1].startswith("  dispatch ")
        assert lines[2].startswith("    worker ")
        assert "lane='main'" in lines[0]
        assert f"pid={os.getpid()}" in lines[0]

    def test_empty_trace_renders_a_placeholder(self):
        assert render_span_tree([]) == "(no spans recorded)"
