"""``/v1/stats`` keeps its shape and agrees with ``/metrics``.

The key pin fixes what a ``/v1/stats`` client reads: every top-level
key, every per-lane key (in order) and the integer type of each count.
The consistency test drives one scheduler through every kind of job
event and checks that the stats payload reports exactly what the
metrics registry (the instruments ``GET /metrics`` renders) counted.
"""

import threading

import pytest

import repro.service.scheduler as scheduler_module
from repro.core import BackDroidConfig, analyze_spec
from repro.service import AnalysisServer, ServiceClient, StoreAwareScheduler
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec

SCALE = 0.05

STATS_KEYS = {
    "node_id",
    "lanes",
    "jobs",
    "analyses_run",
    "submitted",
    "warm_hit_rate",
    "warm_partial_submissions",
    "cold",
    "store",
    "sessions",
    "metrics",
    "server",
}
LANE_KEYS = [
    "name",
    "kind",
    "workers",
    "submitted",
    "completed",
    "failed",
    "cancelled",
    "depth",
    "busy",
    "utilization",
    "depth_percentiles",
    "mean_wait_seconds",
]
LANE_COUNTS = ("submitted", "completed", "failed", "cancelled")


def _config(tmp_path):
    return BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode="full",
    )


def test_stats_key_set_is_pinned(tmp_path):
    scheduler = StoreAwareScheduler(_config(tmp_path), workers=1)
    with AnalysisServer(scheduler, port=0) as server:
        client = ServiceClient(*server.address)
        job = client.submit({"app": "bench:0", "scale": SCALE})
        assert client.wait(job["id"], timeout=60)["state"] == "done"
        stats = client.stats()
    assert set(stats) == STATS_KEYS
    assert set(stats["lanes"]) == {"fast", "main"}
    for lane in stats["lanes"].values():
        assert list(lane) == LANE_KEYS
        assert set(lane["depth_percentiles"]) == {"p50", "p90", "p99"}
        for key in LANE_COUNTS + ("workers", "depth", "busy"):
            assert type(lane[key]) is int, key
    for key in ("analyses_run", "submitted", "warm_partial_submissions"):
        assert type(stats[key]) is int, key
    assert set(stats["cold"]) == {"executor", "worker_pids", "workers_restarted"}
    assert set(stats["server"]) == {"loop", "draining", "event_loop_lag_seconds"}
    assert set(stats["server"]["event_loop_lag_seconds"]) == {
        "p50", "p99", "max",
    }


def _series(snapshot: dict, name: str) -> dict:
    """``{lane or None: series}`` of one instrument in a registry
    snapshot (:meth:`MetricsRegistry.as_dict`)."""
    return {
        entry["labels"].get("lane"): entry
        for entry in snapshot[name]["series"]
    }


def _count(snapshot: dict, name: str, lane=None) -> float:
    entry = _series(snapshot, name).get(lane)
    return entry["value"] if entry is not None else 0.0


def test_stats_agree_with_the_registry(tmp_path, monkeypatch):
    config = _config(tmp_path)
    assert analyze_spec(benchmark_app_spec(0, scale=SCALE), config).ok
    release = threading.Event()
    real = scheduler_module.analyze_spec

    def gated(spec, config=None, **kwargs):
        release.wait(timeout=30)
        return real(spec, config, **kwargs)

    monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
    scheduler = StoreAwareScheduler(config, workers=1, fast_lane_workers=1)
    try:
        warm = scheduler.submit(benchmark_app_spec(0, scale=SCALE))
        cold = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
        follower = scheduler.submit(benchmark_app_spec(1, scale=SCALE))
        queued = scheduler.submit(benchmark_app_spec(2, scale=SCALE))
        broken = scheduler.submit(
            AppSpec(package="com.broken", patterns=(("no-such",),))
        )
        assert warm.lane == "fast"
        assert follower.coalesced_into == cold.id
        assert scheduler.cancel(queued.id)[1] == "cancelled"
        release.set()
        states = {
            job.id: scheduler.wait(job.id, timeout=60).state
            for job in (warm, cold, follower, queued, broken)
        }
        assert states == {
            warm.id: "done",
            cold.id: "done",
            follower.id: "done",
            queued.id: "cancelled",
            broken.id: "failed",
        }
        # The shutdown race: the main pool refuses the dispatch after
        # the submission was counted.
        scheduler._main.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.submit(benchmark_app_spec(3, scale=SCALE))
    finally:
        release.set()
        scheduler.shutdown(wait=True)

    stats = scheduler.stats()
    snapshot = scheduler.metrics.as_dict()
    for lane, values in stats["lanes"].items():
        for key in LANE_COUNTS:
            assert values[key] == _count(
                snapshot, f"backdroid_jobs_{key}_total", lane
            ), (lane, key)
        wait = _series(snapshot, "backdroid_job_wait_seconds").get(lane)
        finished = values["completed"] + values["failed"]
        expected_wait = wait["sum"] / finished if wait and finished else 0.0
        assert values["mean_wait_seconds"] == pytest.approx(expected_wait)
    submitted = sum(
        _count(snapshot, "backdroid_jobs_submitted_total", lane)
        for lane in ("fast", "main")
    )
    warm_total = _count(snapshot, "backdroid_warm_submissions_total")
    assert stats["analyses_run"] == _count(
        snapshot, "backdroid_analyses_total"
    )
    assert stats["submitted"] == submitted
    assert stats["warm_hit_rate"] == warm_total / submitted
    assert stats["warm_partial_submissions"] == _count(
        snapshot, "backdroid_warm_partial_submissions_total"
    )
    # And the counts are the events driven above.
    assert stats["lanes"]["fast"]["completed"] == 1
    main = stats["lanes"]["main"]
    assert (main["submitted"], main["completed"]) == (5, 2)
    assert (main["failed"], main["cancelled"]) == (2, 1)
    assert stats["analyses_run"] == 3
