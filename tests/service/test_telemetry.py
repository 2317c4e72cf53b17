"""End-to-end telemetry: traces across the process boundary, the
metrics endpoints, and the client's observability read path."""

import os
import re

import pytest

from repro.api.request import AnalysisRequest
from repro.core import BackDroidConfig, analyze_spec
from repro.service import AnalysisServer, ServiceClient, StoreAwareScheduler
from repro.workload.corpus import benchmark_app_spec

SCALE = 0.05


def _config(tmp_path, mode="full"):
    return BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode=mode,
    )


def _by_name(trace):
    return {span["name"]: span for span in trace}


class TestWarmTrace:
    def test_warm_job_records_an_in_process_trace(self, tmp_path):
        config = _config(tmp_path)
        outcome = analyze_spec(benchmark_app_spec(0, scale=SCALE), config)
        assert outcome.ok
        with StoreAwareScheduler(config, workers=1) as scheduler:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            assert done.trace_id is not None
            names = {span["name"] for span in done.trace}
            assert {"job", "store.probe", "queue", "dispatch"} <= names
            assert "store.outcome_restore" in names
            # The hit resolved through the specmap: the service
            # interpreter neither generated nor rendered the app.
            assert not {"app.generate", "index.prepare"} & names
            # One trace, all in this interpreter.
            assert {s["trace_id"] for s in done.trace} == {done.trace_id}
            assert {s["pid"] for s in done.trace} == {os.getpid()}
            by_name = _by_name(done.trace)
            assert by_name["job"]["attrs"]["state"] == "done"
            assert by_name["store.probe"]["attrs"]["warm"] is True
            assert by_name["dispatch"]["attrs"]["executor"] == "in-process"
            restore = by_name["store.outcome_restore"]["attrs"]
            assert restore["via"] == "specmap" and restore["hit"] is True

    def test_rule_change_rescan_restores_the_disassembly(self, tmp_path):
        config = _config(tmp_path)
        spec = benchmark_app_spec(0, scale=SCALE)
        assert analyze_spec(spec, config).ok
        with StoreAwareScheduler(config, workers=1) as scheduler:
            job = scheduler.submit(
                spec, AnalysisRequest(rules=("open-port",))
            )
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            disassembles = [
                span["attrs"] for span in done.trace
                if span["name"] == "disassemble"
            ]
            # The plaintext came from the store; nothing rendered it.
            assert [attrs["via"] for attrs in disassembles] == ["store"]
            assert disassembles[0]["hit"] is True
            assert {s["pid"] for s in done.trace} == {os.getpid()}

    def test_trace_spans_nest_under_the_job_root(self, tmp_path):
        with StoreAwareScheduler(_config(tmp_path), workers=1) as scheduler:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            done = scheduler.wait(job.id, timeout=60)
            by_name = _by_name(done.trace)
            root = by_name["job"]
            assert root["parent_id"] is None
            assert by_name["queue"]["parent_id"] == root["span_id"]
            assert by_name["dispatch"]["parent_id"] == root["span_id"]
            # Pipeline spans hang off the dispatch scope, not the root.
            assert by_name["search.sinks"]["trace_id"] == root["trace_id"]

    def test_coalesced_follower_gets_a_pointer_trace(self, tmp_path):
        import threading

        import repro.service.scheduler as scheduler_module

        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        scheduler_module.analyze_spec = gated
        try:
            with StoreAwareScheduler(
                _config(tmp_path), workers=1
            ) as scheduler:
                spec = benchmark_app_spec(0, scale=SCALE)
                first = scheduler.submit(spec)
                second = scheduler.submit(spec)
                release.set()
                assert second.coalesced_into == first.id
                done = scheduler.wait(second.id, timeout=60)
                # The follower owns its own (tiny) trace pointing at
                # the primary's, so trace ids stay 1:1 with jobs.
                assert done.trace_id != first.trace_id
                by_name = _by_name(done.trace)
                attrs = by_name["job"]["attrs"]
                assert attrs["coalesced_into"] == first.id
                assert attrs["primary_trace_id"] == first.trace_id
        finally:
            scheduler_module.analyze_spec = real


class TestColdTrace:
    def test_publish_is_a_sibling_of_the_fold(self, tmp_path):
        with StoreAwareScheduler(_config(tmp_path), workers=1) as scheduler:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            by_name = _by_name(done.trace)
            fold = by_name["index.fold"]
            publish = by_name["store.save_index"]
            # The shard publish runs after the fold, beside it rather
            # than inside it, so the fold span times the fold alone.
            assert publish["parent_id"] == fold["parent_id"]
            assert not [
                span for span in done.trace
                if span["parent_id"] == fold["span_id"]
            ]
            assert publish["started_at"] >= fold["started_at"]
            assert 0.0 < fold["attrs"]["build_seconds"] <= fold["wall_seconds"]

    def test_index_hit_neither_folds_nor_publishes(self, tmp_path):
        config = _config(tmp_path, mode="index")
        spec = benchmark_app_spec(0, scale=SCALE)
        assert analyze_spec(spec, config).ok
        with StoreAwareScheduler(config, workers=1) as scheduler:
            job = scheduler.submit(spec)
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            names = {span["name"] for span in done.trace}
            assert "index.restore" in names
            assert not {"index.fold", "store.save_index"} & names


class TestColdCrossProcessTrace:
    def test_single_trace_spans_the_worker_process(self, tmp_path):
        with StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        ) as scheduler:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            names = {span["name"] for span in done.trace}
            # The acceptance path: submit -> queue -> dispatch ->
            # worker -> pipeline stages, one trace id end to end.
            assert {
                "job", "store.probe", "queue", "dispatch", "worker",
                "search.sinks", "resolve.callers", "report.render",
            } <= names
            assert {s["trace_id"] for s in done.trace} == {done.trace_id}
            by_name = _by_name(done.trace)
            worker = by_name["worker"]
            dispatch = by_name["dispatch"]
            # Worker spans carry the worker process's pid.
            assert worker["pid"] != os.getpid()
            assert worker["pid"] == done.worker_pid
            assert worker["parent_id"] == dispatch["span_id"]
            assert by_name["search.sinks"]["pid"] == worker["pid"]
            assert dispatch["attrs"]["worker_pid"] == worker["pid"]

    def test_span_ids_are_distinct_and_well_formed(self, tmp_path):
        # Ids come from ``random``, which reseeds itself in a forked
        # worker, so ids drawn on the two sides of the process boundary
        # never repeat each other.
        traces = []
        with StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        ) as scheduler:
            for index in (0, 2):
                job = scheduler.submit(
                    benchmark_app_spec(index, scale=SCALE)
                )
                done = scheduler.wait(job.id, timeout=60)
                assert done.state == "done"
                assert re.fullmatch(r"[0-9a-f]{32}", done.trace_id)
                traces.append(done.trace)
        spans = [span for trace in traces for span in trace]
        assert len({span["pid"] for span in spans}) == 2
        ids = [span["span_id"] for span in spans]
        assert all(re.fullmatch(r"[0-9a-f]{16}", i) for i in ids)
        assert len(set(ids)) == len(ids)

    def test_crash_respawn_keeps_one_trace_across_attempts(
        self, tmp_path, monkeypatch
    ):
        import signal as signal_module

        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "30")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            deadline_state = scheduler.wait  # alias for line length
            while scheduler.queue.get(job.id).state != "running":
                pass
            (pid,) = scheduler.stats()["cold"]["worker_pids"]
            monkeypatch.delenv(STALL_ENV_VAR)
            os.kill(pid, signal_module.SIGKILL)
            done = deadline_state(job.id, timeout=60)
            assert done.state == "done"
            dispatches = [
                s for s in done.trace if s["name"] == "dispatch"
            ]
            # Two dispatch attempts, same trace: attempt 1 died on the
            # killed worker, attempt 2 succeeded on the respawn.
            assert [d["attrs"]["attempt"] for d in dispatches] == [1, 2]
            assert dispatches[0]["attrs"]["died"] is True
            assert dispatches[1]["attrs"]["died"] is False
            assert {d["trace_id"] for d in dispatches} == {done.trace_id}
            worker_spans = [
                s for s in done.trace if s["name"] == "worker"
            ]
            assert len(worker_spans) == 1  # the killed attempt's spans died with it
            assert worker_spans[0]["pid"] == done.worker_pid
        finally:
            scheduler.shutdown(wait=False)


class TestDisabledTelemetry:
    def test_tracing_disabled_is_absent_but_harmless(self, tmp_path):
        with StoreAwareScheduler(
            _config(tmp_path),
            workers=1,
            cold_executor="process",
        ) as scheduler:
            scheduler.tracer.enabled = False
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            assert done.trace_id is None
            assert done.trace is None
            assert done.as_dict(include_trace=True)["trace"] is None


class TestSchedulerMetrics:
    def test_instruments_cover_the_job_lifecycle(self, tmp_path):
        config = _config(tmp_path)
        outcome = analyze_spec(benchmark_app_spec(0, scale=SCALE), config)
        assert outcome.ok
        with StoreAwareScheduler(
            config, workers=1, fast_lane_workers=1
        ) as scheduler:
            warm = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            cold = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            scheduler.wait(warm.id, timeout=60)
            scheduler.wait(cold.id, timeout=60)
            m = scheduler.metrics
            submitted = m.get("backdroid_jobs_submitted_total")
            assert submitted.value(lane="fast") == 1.0
            assert submitted.value(lane="main") == 1.0
            completed = m.get("backdroid_jobs_completed_total")
            assert completed.value(lane="fast") == 1.0
            assert m.get("backdroid_warm_submissions_total").value() == 1.0
            probe = m.get("backdroid_store_probe_total")
            assert probe.value(level="outcome") == 1.0
            # Callback gauges read live scheduler state at scrape time.
            depth = m.get("backdroid_lane_depth")
            assert depth.value(lane="main") == 0.0
            text = m.render_prometheus()
            assert "backdroid_job_service_seconds_bucket" in text
            assert 'backdroid_store_counter{counter="outcome_hits"}' in text

    def test_stats_embeds_the_metrics_snapshot(self, tmp_path):
        with StoreAwareScheduler(_config(tmp_path), workers=1) as scheduler:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            scheduler.wait(job.id, timeout=60)
            snapshot = scheduler.stats()["metrics"]
            assert (
                snapshot["backdroid_jobs_submitted_total"]["type"]
                == "counter"
            )


@pytest.fixture
def service(tmp_path):
    config = _config(tmp_path)
    outcome = analyze_spec(benchmark_app_spec(0, scale=SCALE), config)
    assert outcome.ok, outcome.error
    scheduler = StoreAwareScheduler(config, workers=1, fast_lane_workers=1)
    server = AnalysisServer(scheduler, port=0)
    server.start()
    host, port = server.address
    try:
        yield ServiceClient(host=host, port=port)
    finally:
        server.shutdown()


class TestHttpTelemetry:
    def test_job_trace_via_query_flag(self, service):
        created = service.submit({"app": "bench:0", "scale": SCALE})
        done = service.wait(created["id"])
        assert done["state"] == "done"
        assert "trace" not in done  # not shipped unless asked for
        traced = service.job(created["id"], trace=True)
        names = {span["name"] for span in traced["trace"]}
        assert {"job", "queue", "dispatch"} <= names
        assert traced["trace_id"] == done["trace_id"]

    def test_metrics_endpoint_serves_prometheus_text(self, service):
        created = service.submit({"app": "bench:0", "scale": SCALE})
        service.wait(created["id"])
        text = service.metrics()
        assert "# TYPE backdroid_jobs_submitted_total counter" in text
        assert "backdroid_http_requests_total" in text
        assert 'le="+Inf"' in text

    def test_stats_includes_metrics_and_is_retry_free(self, service):
        stats = service.stats()
        assert "metrics" in stats
        assert service.retries_used == 0

    def test_event_loop_lag_histogram_is_exported(self, service):
        text = service.metrics()
        assert "# TYPE backdroid_event_loop_lag_seconds histogram" in text

