"""Tests for the corpus-scale batch driver."""

import os

import pytest

from repro.core import BackDroidConfig, run_batch
from repro.core.batch import AppOutcome, BatchResult, analyze_spec
from repro.search.backends import InvertedIndexBackend, JoinedText
from repro.search.index import BytecodeSearcher
from repro.workload.corpus import benchmark_app_spec, year_app_spec
from repro.workload.generator import AppSpec


def _specs(count=4, scale=0.05):
    return [benchmark_app_spec(i, scale=scale) for i in range(count)]


class TestAnalyzeSpec:
    def test_single_spec_outcome(self):
        outcome = analyze_spec(_specs(1)[0])
        assert outcome.ok
        assert outcome.package == "com.bench.app000"
        assert outcome.sink_count > 0
        assert outcome.seconds > 0.0

    def test_error_captured_not_raised(self):
        bad = AppSpec(package="com.broken", patterns=(("no-such",),))
        outcome = analyze_spec(bad)
        assert not outcome.ok
        assert outcome.package == "com.broken"
        assert outcome.error

    def test_backend_recorded(self):
        outcome = analyze_spec(
            _specs(1)[0], BackDroidConfig(search_backend="indexed")
        )
        assert outcome.backend == "indexed"


class TestIndexedJobsSearchTheIndexOnly:
    def test_cold_and_index_hit_never_join_the_app_text(
        self, tmp_path, monkeypatch
    ):
        # Every search an indexed job issues, the ICC name search
        # included, is a token query: no job joins the whole app's text
        # for a fallback scan.
        joins, backends, name_searches = [], [], []
        join = JoinedText.for_disassembly.__func__
        init = InvertedIndexBackend.__init__
        by_name = BytecodeSearcher.find_invocations_by_name

        def recording_join(cls, disassembly):
            joins.append(disassembly)
            return join(cls, disassembly)

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            backends.append(self)

        def recording_by_name(self, name):
            name_searches.append(name)
            return by_name(self, name)

        monkeypatch.setattr(
            JoinedText, "for_disassembly", classmethod(recording_join)
        )
        monkeypatch.setattr(InvertedIndexBackend, "__init__", recording_init)
        monkeypatch.setattr(
            BytecodeSearcher, "find_invocations_by_name", recording_by_name
        )
        spec = benchmark_app_spec(0, scale=0.05)
        store_dir = str(tmp_path / "store")
        cold = analyze_spec(spec, BackDroidConfig(
            search_backend="indexed", store_dir=store_dir, store_mode="full"
        ))
        hit = analyze_spec(spec, BackDroidConfig(
            search_backend="indexed", store_dir=store_dir, store_mode="index"
        ))
        assert cold.ok and hit.ok, (cold.error, hit.error)
        assert not cold.index_restored and hit.index_restored
        assert hit.findings == cold.findings
        assert name_searches  # the app does run the ICC search
        assert joins == []
        assert len(backends) == 2
        assert [b.describe()["fallbacks"] for b in backends] == [0, 0]


class TestRunBatch:
    def test_serial_and_thread_agree(self):
        specs = _specs(3)
        serial = run_batch(specs, executor="serial")
        threaded = run_batch(specs, executor="thread", max_workers=3)
        assert [o.package for o in serial.outcomes] == \
            [o.package for o in threaded.outcomes]
        assert [o.findings for o in serial.outcomes] == \
            [o.findings for o in threaded.outcomes]
        assert serial.executor == "serial" and threaded.executor == "thread"

    def test_process_pool_roundtrip(self):
        specs = _specs(2)
        result = run_batch(specs, executor="process", max_workers=2)
        assert result.app_count == 2
        assert not result.failures
        assert [o.package for o in result.outcomes] == \
            [s.package for s in specs]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_batch(_specs(1), executor="quantum")

    def test_order_preserved(self):
        specs = _specs(4)
        result = run_batch(specs, executor="thread", max_workers=4)
        assert [o.package for o in result.outcomes] == \
            [s.package for s in specs]

    def test_process_batch_survives_a_worker_death(
        self, tmp_path, monkeypatch
    ):
        # The patch is in place before the workers fork, so they
        # inherit it: the first run of one app kills its worker.  The
        # replacement worker retries the app, and the rest of the
        # batch never notices.
        import repro.service.workers as workers

        specs = _specs(6)
        doomed = specs[2].package
        marker = tmp_path / "died"
        analyze = workers.analyze_spec

        def dies_once(spec, *args, **kwargs):
            if spec.package == doomed:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return analyze(spec, *args, **kwargs)

        monkeypatch.setattr(workers, "analyze_spec", dies_once)
        result = run_batch(specs, executor="process", max_workers=2)
        assert marker.exists()
        assert [o.error for o in result.outcomes] == [None] * len(specs)
        assert [o.package for o in result.outcomes] == \
            [s.package for s in specs]

    def test_duplicate_specs_coalesce(self, monkeypatch):
        # Duplicates submitted together share one analysis, and every
        # input row still gets its outcome, in input order.
        import time

        import repro.core.batch as batch
        import repro.service.scheduler as scheduler

        calls = []
        analyze = batch.analyze_spec

        def counting(spec, *args, **kwargs):
            calls.append(spec.package)
            # Long enough that the duplicate is submitted while its
            # primary still runs.
            time.sleep(0.2)
            return analyze(spec, *args, **kwargs)

        monkeypatch.setattr(batch, "analyze_spec", counting)
        monkeypatch.setattr(scheduler, "analyze_spec", counting)
        a, b = _specs(2)
        result = run_batch([a, a, b], executor="thread", max_workers=2)
        assert sorted(calls) == [a.package, b.package]
        assert [o.package for o in result.outcomes] == \
            [a.package, a.package, b.package]
        assert result.outcomes[0] == result.outcomes[1]
        assert not result.failures

    def test_failure_isolated_from_batch(self):
        specs = _specs(2)
        specs.insert(1, AppSpec(package="com.broken", patterns=(("bad",),)))
        result = run_batch(specs, executor="thread")
        assert len(result.failures) == 1
        assert len(result.analyzed) == 2
        assert result.failures[0].package == "com.broken"

    def test_year_specs_are_analyzable(self):
        specs = [year_app_spec(2016, i, scale=0.05) for i in range(2)]
        result = run_batch(specs, executor="serial")
        assert not result.failures
        assert all(o.package.startswith("com.corpus.y2016") for o in result.outcomes)
        assert all(o.sink_count > 0 for o in result.outcomes)


class TestAggregates:
    def test_aggregate_statistics(self):
        result = run_batch(_specs(4), executor="serial")
        assert result.app_count == 4
        assert result.total_sinks == sum(o.sink_count for o in result.outcomes)
        assert result.mean_seconds > 0.0
        assert result.median_seconds > 0.0
        assert 0.0 <= result.mean_search_cache_rate <= 1.0
        assert result.wall_seconds >= 0.0

    def test_render_contains_per_app_and_aggregate(self):
        result = run_batch(_specs(3), executor="serial")
        text = result.render()
        for outcome in result.outcomes:
            assert outcome.package in text
        assert "wall time" in text
        assert "cache rates" in text
        assert "findings" in text
        assert "3 apps" in text

    def test_empty_batch_renders(self):
        result = BatchResult()
        assert result.mean_seconds == 0.0
        assert "0 apps" in result.render()

    def test_bounded_cache_records_evictions(self):
        config = BackDroidConfig(search_cache_max_entries=2)
        outcome = analyze_spec(_specs(1)[0], config)
        assert outcome.ok
        assert outcome.search_cache_evictions > 0


class TestWorkerCounts:
    """The reported worker count is the scheduler's main-lane size."""

    def test_explicit_workers_reported(self):
        result = run_batch(_specs(2), executor="thread", max_workers=3)
        assert result.workers == 3

    def test_serial_reports_one_worker(self):
        assert run_batch(_specs(1), executor="serial").workers == 1
        assert run_batch(
            _specs(1), executor="serial", max_workers=8
        ).workers == 1

    def test_default_count_is_the_cpu_count(self, monkeypatch):
        expected = os.cpu_count() or 1
        assert run_batch(_specs(1), executor="thread").workers == expected
        # A small stand-in CPU count keeps the process lane small.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_batch(_specs(1), executor="process").workers == 2


class TestStoreReporting:
    def test_store_line_only_rendered_when_enabled(self, tmp_path):
        plain = run_batch(_specs(2), executor="serial")
        assert "store" not in plain.render()

        config = BackDroidConfig(
            store_dir=str(tmp_path / "s"), store_mode="full"
        )
        cold = run_batch(_specs(2), config, executor="serial")
        assert "store          : 0 hit(s) / 2 miss(es)" in cold.render()

        warm = run_batch(_specs(2), config, executor="serial")
        assert warm.store_hits == 2 and warm.store_misses == 0
        assert warm.warm_hit_rate == 1.0
        assert "store          : 2 hit(s) / 0 miss(es) (100% warm)" \
            in warm.render()
        assert "[warm]" in warm.render()

    def test_index_restores_counted(self, tmp_path):
        config = BackDroidConfig(
            search_backend="indexed",
            store_dir=str(tmp_path / "s"),
            store_mode="index",
        )
        cold = run_batch(_specs(2), config, executor="serial")
        warm = run_batch(_specs(2), config, executor="serial")
        assert cold.index_restores == 0
        assert warm.index_restores == 2
        assert "2 restored index(es)" in warm.render()


def _index_store(tmp_path, specs):
    """An index-mode config whose store already holds every spec."""
    config = BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "s"),
        store_mode="index",
    )
    run_batch(specs, config, executor="serial")
    return config


class TestWarmDispatch:
    def test_thread_batch_overlaps_warm_apps(self, tmp_path, monkeypatch):
        # The fast lane has as many threads as the batch has workers,
        # so two warm apps meet at a two-party barrier.
        import threading

        import repro.service.scheduler as scheduler

        specs = _specs(2)
        config = _index_store(tmp_path, specs)
        barrier = threading.Barrier(2, timeout=10)
        overlapped = []
        analyze = scheduler.analyze_spec

        def meeting(spec, *args, **kwargs):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                overlapped.append(False)
            else:
                overlapped.append(True)
            return analyze(spec, *args, **kwargs)

        monkeypatch.setattr(scheduler, "analyze_spec", meeting)
        warm = run_batch(specs, config, executor="thread", max_workers=2)
        assert warm.fast_lane_apps == 2 and warm.index_restores == 2
        assert overlapped == [True, True]

    def test_process_batch_runs_warm_apps_on_its_workers(self, tmp_path):
        # An index hit re-runs the analysis: it goes to a worker
        # process, not to an in-process thread.
        specs = _specs(3)
        config = _index_store(tmp_path, specs)
        warm = run_batch(specs, config, executor="process", max_workers=2)
        assert not warm.failures and warm.index_restores == 3
        assert [o.lane for o in warm.outcomes] == ["main"] * 3

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_batch_jobs_carry_no_trace(self, executor, monkeypatch):
        import repro.service.scheduler as scheduler

        jobs = []
        wait = scheduler.StoreAwareScheduler.wait

        def recording(self, job_id, timeout=None):
            job = wait(self, job_id, timeout)
            jobs.append(job)
            return job

        monkeypatch.setattr(scheduler.StoreAwareScheduler, "wait", recording)
        result = run_batch(_specs(2), executor=executor, max_workers=2)
        assert not result.failures and len(jobs) == 2
        assert [(j.trace_id, j.trace) for j in jobs] == [(None, None)] * 2


class TestRequests:
    def test_run_batch_with_request_overrides_targets(self):
        from repro.api import AnalysisRequest

        specs = _specs(3)
        default = run_batch(specs, executor="serial")
        crypto_only = run_batch(
            specs,
            executor="serial",
            request=AnalysisRequest(
                rules=("crypto-ecb",), backend="indexed"
            ),
        )
        assert crypto_only.backend == "indexed"
        for outcome in crypto_only.analyzed:
            assert outcome.backend == "indexed"
            assert {rule for rule, _ in outcome.findings} <= {"crypto-ecb"}
        # The override is a restriction of the default rule set.
        assert crypto_only.total_sinks <= default.total_sinks

    def test_analyze_spec_shares_sessions_across_requests(self):
        from repro.api import AnalysisRequest, SessionCache
        from repro.core.backdroid import BackDroidConfig

        spec = _specs(1)[0]
        config = BackDroidConfig(search_backend="indexed")
        sessions = SessionCache()
        first = analyze_spec(
            spec, config,
            request=AnalysisRequest(rules=("crypto-ecb",)),
            sessions=sessions,
        )
        second = analyze_spec(
            spec, config,
            request=AnalysisRequest(rules=("ssl-verifier",)),
            sessions=sessions,
        )
        assert first.ok and second.ok
        # The second, differently-targeted run reused the warm session's
        # index: zero build time without any artifact store.
        assert second.index_build_seconds == 0.0
        assert sessions.describe()["hits"] == 1
        assert len(sessions) == 1

    def test_duplicate_specs_reuse_one_session_in_serial_batch(self):
        from repro.core.backdroid import BackDroidConfig

        spec = _specs(1)[0]
        config = BackDroidConfig(search_backend="indexed")
        result = run_batch([spec, spec], config=config, executor="serial")
        assert all(o.ok for o in result.outcomes)
        builds = [o.index_build_seconds for o in result.outcomes]
        # One build at most: the duplicate rides the cached session.
        assert sum(1 for b in builds if b > 0) <= 1
