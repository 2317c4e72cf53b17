"""Tests for store-aware two-lane scheduling and in-flight dedup."""

import threading

import pytest

import repro.service.scheduler as scheduler_module
from repro.api import AnalysisRequest
from repro.core import BackDroidConfig, analyze_spec
from repro.service import StoreAwareScheduler
from repro.workload.corpus import benchmark_app_spec

SCALE = 0.05


def _config(tmp_path, mode="full"):
    return BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode=mode,
    )


def _warm(config, index):
    """Run one app through the store so later probes classify it warm."""
    outcome = analyze_spec(benchmark_app_spec(index, scale=SCALE), config)
    assert outcome.ok, outcome.error
    return outcome


class TestRouting:
    def test_warm_submission_rides_the_fast_lane(self, tmp_path):
        config = _config(tmp_path)
        _warm(config, 0)
        with StoreAwareScheduler(config, workers=2, fast_lane_workers=1) as s:
            warm = s.submit(benchmark_app_spec(0, scale=SCALE))
            cold = s.submit(benchmark_app_spec(1, scale=SCALE))
            assert warm.lane == "fast" and warm.warm
            assert cold.lane == "main" and not cold.warm
            done = s.wait(warm.id, timeout=60)
            assert done.state == "done"
            assert done.result["store_hit"] is True
            assert done.result["lane"] == "fast"
            assert s.wait(cold.id, timeout=60).state == "done"

    def test_warm_submission_never_rebuilds_its_index(self, tmp_path):
        # Index-mode store: the analysis re-runs but the posting lists
        # must be restored, never folded again.
        config = _config(tmp_path, mode="index")
        _warm(config, 0)
        with StoreAwareScheduler(config, workers=1, fast_lane_workers=1) as s:
            job = s.submit(benchmark_app_spec(0, scale=SCALE))
            assert job.lane == "fast"
            done = s.wait(job.id, timeout=60)
            assert done.result["index_restored"] is True
            assert done.result["index_build_seconds"] == 0.0

    def test_index_level_is_not_warm_for_the_linear_backend(self, tmp_path):
        # A stored index saves the linear scan nothing; routing such a
        # submission to the fast lane would serialize full-cost work.
        _warm(_config(tmp_path, mode="index"), 0)
        linear = BackDroidConfig(
            search_backend="linear",
            store_dir=str(tmp_path / "store"),
            store_mode="index",
        )
        with StoreAwareScheduler(linear, workers=1, fast_lane_workers=1) as s:
            job = s.submit(benchmark_app_spec(0, scale=SCALE))
            assert job.lane == "main" and not job.warm
            assert s.wait(job.id, timeout=60).state == "done"

    def test_outcome_level_is_warm_even_for_the_linear_backend(self, tmp_path):
        # Full-mode outcome restores skip the analysis entirely, so the
        # backend does not matter.
        linear_full = BackDroidConfig(
            search_backend="linear",
            store_dir=str(tmp_path / "store"),
            store_mode="full",
        )
        _warm(linear_full, 0)
        with StoreAwareScheduler(
            linear_full, workers=1, fast_lane_workers=1
        ) as s:
            job = s.submit(benchmark_app_spec(0, scale=SCALE))
            assert job.lane == "fast" and job.warm
            assert s.wait(job.id, timeout=60).result["store_hit"] is True

    def test_no_store_means_single_lane(self, tmp_path):
        with StoreAwareScheduler(BackDroidConfig(), workers=1) as s:
            job = s.submit(benchmark_app_spec(0, scale=SCALE))
            assert job.lane == "main" and not job.warm
            assert s.wait(job.id, timeout=60).state == "done"

    def test_zero_fast_lane_degrades_to_fifo(self, tmp_path):
        config = _config(tmp_path)
        _warm(config, 0)
        with StoreAwareScheduler(config, workers=1, fast_lane_workers=0) as s:
            job = s.submit(benchmark_app_spec(0, scale=SCALE))
            assert job.warm and job.lane == "main"
            assert s.wait(job.id, timeout=60).state == "done"


class TestDedup:
    def test_concurrent_duplicates_one_analysis_shared_payload(
        self, tmp_path, monkeypatch
    ):
        """The acceptance bar: two submissions, one analysis, one payload."""
        release = threading.Event()
        calls = []
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            calls.append(spec.package)
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=2, fast_lane_workers=1
        )
        try:
            spec = benchmark_app_spec(0, scale=SCALE)
            first = scheduler.submit(spec)
            second = scheduler.submit(spec)
            assert second.coalesced_into == first.id
            release.set()
            first_done = scheduler.wait(first.id, timeout=60)
            second_done = scheduler.wait(second.id, timeout=60)
        finally:
            release.set()
            scheduler.shutdown(wait=True)

        assert calls == [spec.package]  # exactly one analysis ran
        assert scheduler.stats()["analyses_run"] == 1
        assert first_done.state == "done" and second_done.state == "done"
        assert first_done.result == second_done.result
        assert second_done.result is first_done.result  # shared, not copied
        assert scheduler.queue.dedup_hits == 1
        # Lane stats reconcile: both submissions count as completed.
        lanes = scheduler.stats()["lanes"]
        completed = sum(lane["completed"] for lane in lanes.values())
        submitted = sum(lane["submitted"] for lane in lanes.values())
        assert submitted == completed == 2

    def test_cold_duplicate_survives_midrun_specmap_learning(
        self, tmp_path, monkeypatch
    ):
        """The cold-start race: analyze_spec teaches the store the
        spec -> sha mapping while the first submission is still running,
        so the duplicate resolves to a different dedup key.  The
        fingerprint alias must still coalesce them."""
        from repro.workload.generator import spec_fingerprint

        release = threading.Event()
        learned = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            learned.wait(timeout=30)  # specmap write happens before this
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        config = _config(tmp_path)
        scheduler = StoreAwareScheduler(config, workers=1)
        try:
            spec = benchmark_app_spec(5, scale=SCALE)
            first = scheduler.submit(spec)
            assert first.key.startswith("spec:")
            # Simulate the worker's mid-run store write, then submit the
            # duplicate: its probe now resolves the disassembly sha.
            config.artifact_store().save_spec_key(
                spec_fingerprint(spec), "f00d" * 16
            )
            learned.set()
            second = scheduler.submit(spec)
            assert second.key == "f00d" * 16
            assert second.coalesced_into == first.id
            release.set()
            assert scheduler.wait(second.id, timeout=60).state == "done"
        finally:
            learned.set()
            release.set()
            scheduler.shutdown(wait=True)
        assert scheduler.stats()["analyses_run"] == 1

    def test_failed_analysis_fails_both_jobs(self, tmp_path, monkeypatch):
        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        from repro.workload.generator import AppSpec

        bad = AppSpec(package="com.broken", patterns=(("no-such",),))
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
        try:
            first = scheduler.submit(bad)
            second = scheduler.submit(bad)
            release.set()
            assert scheduler.wait(first.id, timeout=60).state == "failed"
            assert scheduler.wait(second.id, timeout=60).state == "failed"
            assert scheduler.wait(second.id, timeout=60).error
        finally:
            release.set()
            scheduler.shutdown(wait=True)


class TestLifecycleAndStats:
    def test_shutdown_drains_every_queued_job(self, tmp_path):
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=2)
        jobs = [
            scheduler.submit(benchmark_app_spec(i, scale=SCALE))
            for i in range(5)
        ]
        scheduler.shutdown(wait=True)
        states = {scheduler.queue.get(j.id).state for j in jobs}
        assert states == {"done"}

    def test_submit_after_shutdown_raises(self, tmp_path):
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
        scheduler.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.submit(benchmark_app_spec(0, scale=SCALE))

    def test_submit_racing_executor_shutdown_leaves_no_queued_job(
        self, tmp_path
    ):
        # A handler thread can pass the _closed check just as the pools
        # stop accepting futures; the job must fail, not hang queued.
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
        scheduler._main.shutdown(wait=True)  # race the check itself
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.submit(benchmark_app_spec(0, scale=SCALE))
        jobs = scheduler.queue.snapshots()
        assert len(jobs) == 1
        assert jobs[0]["state"] == "failed"
        assert "before dispatch" in jobs[0]["error"]
        assert scheduler.queue.counts()["in_flight_keys"] == 0
        scheduler.shutdown(wait=True)

    def test_stats_report_lanes_and_warm_rate(self, tmp_path):
        config = _config(tmp_path)
        _warm(config, 0)
        with StoreAwareScheduler(config, workers=2, fast_lane_workers=1) as s:
            warm = s.submit(benchmark_app_spec(0, scale=SCALE))
            cold = s.submit(benchmark_app_spec(1, scale=SCALE))
            s.wait(warm.id, timeout=60)
            s.wait(cold.id, timeout=60)
            stats = s.stats()
        assert stats["submitted"] == 2
        assert stats["warm_hit_rate"] == 0.5
        assert stats["lanes"]["fast"]["completed"] == 1
        assert stats["lanes"]["main"]["completed"] == 1
        assert stats["lanes"]["fast"]["depth"] == 0
        assert stats["lanes"]["fast"]["mean_wait_seconds"] >= 0.0
        assert stats["jobs"]["by_state"]["done"] == 2
        assert stats["analyses_run"] == 2
        # Store counters are live even though each analysis constructs
        # its own handle (stats are shared per root in-process).
        assert stats["store"]["outcome_hits"] >= 1
        assert stats["store"]["writes"] >= 1

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            StoreAwareScheduler(workers=0)
        with pytest.raises(ValueError):
            StoreAwareScheduler(fast_lane_workers=-1)


class TestRequests:
    def test_differently_targeted_jobs_do_not_coalesce(self, tmp_path, monkeypatch):
        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        with StoreAwareScheduler(_config(tmp_path), workers=2) as scheduler:
            spec = benchmark_app_spec(0, scale=SCALE)
            crypto = scheduler.submit(
                spec, request=AnalysisRequest(rules=("crypto-ecb",))
            )
            ssl = scheduler.submit(
                spec, request=AnalysisRequest(rules=("ssl-verifier",))
            )
            same = scheduler.submit(
                spec, request=AnalysisRequest(rules=("crypto-ecb",))
            )
            assert ssl.coalesced_into is None  # different request: new job
            assert same.coalesced_into == crypto.id  # same request: coalesced
            release.set()
            crypto_done = scheduler.wait(crypto.id, timeout=60)
            ssl_done = scheduler.wait(ssl.id, timeout=60)
        crypto_rules = {rule for rule, _ in crypto_done.result["findings"]}
        ssl_rules = {rule for rule, _ in ssl_done.result["findings"]}
        assert crypto_rules <= {"crypto-ecb"}
        assert ssl_rules <= {"ssl-verifier"}
        assert scheduler.stats()["analyses_run"] == 2

    def test_jobs_share_one_warm_session_per_app(self, tmp_path):
        config = BackDroidConfig(search_backend="indexed")
        with StoreAwareScheduler(config, workers=1) as scheduler:
            spec = benchmark_app_spec(0, scale=SCALE)
            first = scheduler.submit(
                spec, request=AnalysisRequest(rules=("crypto-ecb",))
            )
            scheduler.wait(first.id, timeout=60)
            second = scheduler.submit(
                spec, request=AnalysisRequest(rules=("ssl-verifier",))
            )
            done = scheduler.wait(second.id, timeout=60)
        # The second, differently-targeted job reused the warm session:
        # no index rebuild even without an artifact store.
        assert done.result["index_build_seconds"] == 0.0
        sessions = scheduler.stats()["sessions"]
        assert sessions["hits"] >= 1

    def test_request_snapshot_rides_the_job_record(self, tmp_path):
        with StoreAwareScheduler(_config(tmp_path), workers=1) as scheduler:
            job = scheduler.submit(
                benchmark_app_spec(0, scale=SCALE),
                request=AnalysisRequest(rules=("crypto-ecb",), max_frames=99),
            )
            snapshot = scheduler.queue.snapshot(job.id)
            scheduler.wait(job.id, timeout=60)
        assert snapshot["request"]["rules"] == ["crypto-ecb"]
        assert snapshot["request"]["max_frames"] == 99


class TestCancellation:
    def test_queued_job_cancels_and_reconciles_stats(self, tmp_path, monkeypatch):
        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
        try:
            blocker = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            queued = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            job, disposition = scheduler.cancel(queued.id)
            assert disposition == "cancelled"
            assert job.state == "cancelled"
            release.set()
            assert scheduler.wait(blocker.id, timeout=60).state == "done"
            assert scheduler.wait(queued.id, timeout=60).state == "cancelled"
        finally:
            release.set()
            scheduler.shutdown(wait=True)
        lanes = scheduler.stats()["lanes"]
        assert sum(lane["cancelled"] for lane in lanes.values()) == 1
        assert sum(lane["completed"] for lane in lanes.values()) == 1
        assert all(lane["depth"] == 0 for lane in lanes.values())
        assert scheduler.stats()["analyses_run"] == 1  # the cancelled job never ran

    def test_running_job_cancels_when_worker_finishes(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            started.set()
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
        try:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            assert started.wait(timeout=30)
            cancelled, disposition = scheduler.cancel(job.id)
            assert disposition == "cancelling"
            assert cancelled.state == "cancelling"
            release.set()
            final = scheduler.wait(job.id, timeout=60)
        finally:
            release.set()
            scheduler.shutdown(wait=True)
        assert final.state == "cancelled"
        assert final.result is None
        lanes = scheduler.stats()["lanes"]
        assert sum(lane["cancelled"] for lane in lanes.values()) == 1
        assert all(lane["depth"] == 0 for lane in lanes.values())

    def test_cancelled_job_evicted_before_worker_slot_still_frees_depth(
        self, tmp_path, monkeypatch
    ):
        # Tiny retention: a cancelled-while-queued job can be evicted
        # from the registry before the pool ever dequeues its _run; the
        # lane slot it held must still be released.
        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, max_finished_jobs=1
        )
        try:
            blocker = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            victims = [
                scheduler.submit(benchmark_app_spec(i, scale=SCALE))
                for i in (1, 2, 3)
            ]
            for victim in victims:
                assert scheduler.cancel(victim.id)[1] == "cancelled"
            # Retention bound 1: the first two cancelled jobs are gone.
            assert scheduler.queue.get(victims[0].id) is None
            release.set()
            scheduler.wait(blocker.id, timeout=60)
        finally:
            release.set()
            scheduler.shutdown(wait=True)
        lanes = scheduler.stats()["lanes"]
        assert all(lane["depth"] == 0 for lane in lanes.values())
        assert sum(lane["cancelled"] for lane in lanes.values()) == 3


class TestProcessColdLane:
    """The out-of-process cold lane: PID isolation, cross-boundary
    cancellation, worker-death containment."""

    def test_cold_runs_out_of_process_warm_stays_in_process(self, tmp_path):
        import os

        config = _config(tmp_path, mode="index")
        _warm(config, 0)
        scheduler = StoreAwareScheduler(
            config, workers=1, fast_lane_workers=1, cold_executor="process"
        )
        try:
            warm = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            cold = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            warm_done = scheduler.wait(warm.id, timeout=60)
            cold_done = scheduler.wait(cold.id, timeout=60)
            # The acceptance bar: cold analyses execute in a worker
            # process, warm restores in the service interpreter —
            # and never rebuild an index.
            assert cold_done.worker_pid is not None
            assert cold_done.worker_pid != os.getpid()
            assert warm_done.worker_pid == os.getpid()
            assert warm_done.result["index_restored"] is True
            assert warm_done.result["index_build_seconds"] == 0.0
            assert cold_done.state == "done"
            assert cold_done.result["lane"] == "main"
            stats = scheduler.stats()
            assert stats["lanes"]["main"]["kind"] == "process"
            assert stats["lanes"]["fast"]["kind"] == "in-process"
            assert stats["cold"]["executor"] == "process"
            assert cold_done.worker_pid in stats["cold"]["worker_pids"]
        finally:
            scheduler.shutdown(wait=True)

    def test_cancel_queued_cold_job_never_reaches_a_worker(
        self, tmp_path, monkeypatch
    ):
        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "20")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            blocker = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            _wait_for_state(scheduler, blocker.id, "running")
            queued = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            job, disposition = scheduler.cancel(queued.id)
            assert disposition == "cancelled"
            assert scheduler.queue.get(queued.id).state == "cancelled"
            # The blocker dies with the scheduler's hard shutdown; the
            # cancelled job must not have consumed a worker.
            assert scheduler.stats()["cold"]["workers_restarted"] == 0
        finally:
            scheduler.shutdown(wait=False)

    def test_cancel_running_cold_job_kills_the_worker(
        self, tmp_path, monkeypatch
    ):
        import time

        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "30")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            _wait_for_state(scheduler, job.id, "running")
            # "running" is stamped just before the dispatch; wait until
            # the lane has actually bound the task to a worker, so the
            # cancel exercises the live-worker kill path rather than
            # the kill-raced-dispatch refusal (also correct, but it
            # never terminates a worker).
            deadline = time.monotonic() + 10
            while job.id not in scheduler._cold._running:
                assert time.monotonic() < deadline, "task never bound"
                time.sleep(0.005)
            before = scheduler.stats()["cold"]["worker_pids"]
            started = time.monotonic()
            _, disposition = scheduler.cancel(job.id)
            assert disposition == "cancelling"
            done = scheduler.wait(job.id, timeout=15)
            elapsed = time.monotonic() - started
            # The worker was terminated: the cancel resolves far inside
            # the 30s stall, the result is discarded, and a replacement
            # worker keeps the lane's capacity.
            assert done.state == "cancelled"
            assert done.result is None
            assert elapsed < 10
            stats = scheduler.stats()
            assert stats["cold"]["workers_restarted"] == 1
            assert stats["cold"]["worker_pids"] != before
            monkeypatch.delenv(STALL_ENV_VAR)
            after = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            assert scheduler.wait(after.id, timeout=60).state == "done"
        finally:
            scheduler.shutdown(wait=False)

    def test_cancel_shared_cold_primary_is_still_a_conflict(
        self, tmp_path, monkeypatch
    ):
        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "20")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            first = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            second = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            assert second.coalesced_into == first.id
            _, disposition = scheduler.cancel(first.id)
            assert disposition == "conflict"
            # The follower may detach and cancel alone.
            _, disposition = scheduler.cancel(second.id)
            assert disposition == "cancelled"
        finally:
            scheduler.shutdown(wait=False)

    def test_worker_death_retries_once_then_fails_only_that_job(
        self, tmp_path, monkeypatch
    ):
        import os
        import signal as signal_module
        import time

        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "30")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            _wait_for_state(scheduler, job.id, "running")
            # A dying worker no longer fails the job outright: it gets
            # one re-dispatch onto the replacement.  Kill that worker
            # too, so both attempts are exhausted.
            killed = set()
            deadline = time.monotonic() + 15
            while len(killed) < 2 and time.monotonic() < deadline:
                pids = set(scheduler.stats()["cold"]["worker_pids"])
                for pid in pids - killed:
                    os.kill(pid, signal_module.SIGKILL)
                    killed.add(pid)
                time.sleep(0.05)
            done = scheduler.wait(job.id, timeout=15)
            assert done.state == "failed"
            assert "worker died" in done.error
            monkeypatch.delenv(STALL_ENV_VAR)
            # The lane recovered: the next job runs on a replacement.
            after = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
            done_after = scheduler.wait(after.id, timeout=60)
            assert done_after.state == "done"
            assert done_after.worker_pid is not None
            assert done_after.worker_pid not in killed
        finally:
            scheduler.shutdown(wait=False)

    def test_worker_death_once_retries_to_success(
        self, tmp_path, monkeypatch
    ):
        import os
        import signal as signal_module

        from repro.service.workers import STALL_ENV_VAR

        monkeypatch.setenv(STALL_ENV_VAR, "30")
        scheduler = StoreAwareScheduler(
            _config(tmp_path), workers=1, cold_executor="process"
        )
        try:
            job = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
            _wait_for_state(scheduler, job.id, "running")
            (pid,) = scheduler.stats()["cold"]["worker_pids"]
            # Clear the stall before the kill: the retry attempt
            # re-reads it at dispatch time and completes normally.
            monkeypatch.delenv(STALL_ENV_VAR)
            os.kill(pid, signal_module.SIGKILL)
            done = scheduler.wait(job.id, timeout=60)
            assert done.state == "done"
            assert done.worker_pid not in (None, pid)
            assert scheduler.stats()["cold"]["workers_restarted"] >= 1
        finally:
            scheduler.shutdown(wait=False)

    def test_custom_registry_is_rejected_in_process_mode(self, tmp_path):
        class FakeRegistry:
            rules = ("custom",)

        with pytest.raises(ValueError, match="registry"):
            StoreAwareScheduler(
                _config(tmp_path),
                workers=1,
                registry=FakeRegistry(),
                cold_executor="process",
            )

    def test_unknown_cold_executor_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cold_executor"):
            StoreAwareScheduler(_config(tmp_path), cold_executor="fiber")


class TestLaneObservability:
    def test_lane_stats_report_kind_utilization_and_depth_percentiles(
        self, tmp_path
    ):
        config = _config(tmp_path)
        with StoreAwareScheduler(config, workers=2) as scheduler:
            jobs = [
                scheduler.submit(benchmark_app_spec(i, scale=SCALE))
                for i in range(3)
            ]
            for job in jobs:
                scheduler.wait(job.id, timeout=60)
            lane = scheduler.stats()["lanes"]["main"]
            assert lane["kind"] == "in-process"
            assert 0.0 <= lane["utilization"] <= 1.0
            percentiles = lane["depth_percentiles"]
            assert set(percentiles) == {"p50", "p90", "p99"}
            # Three submissions were sampled; the deepest observation
            # bounds the p99.
            assert percentiles["p99"] >= percentiles["p50"] >= 0.0
            assert lane["busy"] == 0  # drained


def _wait_for_state(scheduler, job_id, state, timeout=15.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.queue.get(job_id)
        if job is not None and job.state == state:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state!r}")
