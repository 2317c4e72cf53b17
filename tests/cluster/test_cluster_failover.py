"""Fault injection: SIGKILL a node mid-cold-job; the cluster recovers.

Real processes, real signals: the harness runs ``backdroid serve``
subprocesses over one shared store, the stall knob
(``BACKDROID_COLD_STALL_SECONDS``) pins a cold job on the victim long
enough to die with it, and the assertions check the full recovery
story — job re-dispatch to a peer under the *same* trace, the peer
publishing the job's specmap entry, and result parity with an
undisturbed run.
"""

import time

import pytest

from repro.core import BackDroidConfig, analyze_spec
from repro.service import ServiceClient
from repro.store import ArtifactStore
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import spec_fingerprint

SCALE = 0.05
NODE_TTL = 1.5

#: Result fields legitimately differing between runs/nodes/lanes.
VOLATILE = {
    "seconds",
    "index_build_seconds",
    "store_hit",
    "index_restored",
    "shards_patched",
    "materialized_groups",
    "bytes_mapped",
    "bytes_decoded",
    "lane",
    "node_id",
}


def sanitized(result):
    return {k: v for k, v in result.items() if k not in VOLATILE}


def wait_for(predicate, timeout, interval=0.1):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return None


@pytest.fixture
def cluster(cluster_factory, tmp_path):
    """Two nodes, fast failure detection, n1's cold lane stalled."""
    return cluster_factory(
        nodes=2,
        store_dir=tmp_path / "store",
        lease_ttl=NODE_TTL,
        heartbeat_interval=0.25,
        env_overrides={"n1": {"BACKDROID_COLD_STALL_SECONDS": "45"}},
    )


def test_sigkill_mid_cold_job_reclaims_under_the_same_trace(
    cluster, tmp_path
):
    front = cluster.front_end(monitor_interval=0.2)
    client = ServiceClient(*front.address, timeout=15.0)
    store = ArtifactStore(tmp_path / "store")

    submitted = client.submit({"app": "bench:3", "scale": SCALE,
                               "node": "n1"})
    assert submitted["node_id"] == "n1"
    assert submitted["attempts"] == 1
    trace_id = submitted["trace_id"]
    assert trace_id

    # Let the stalled cold analysis actually start on n1, then murder
    # the node (SIGKILL: no drain, no goodbye heartbeat).
    time.sleep(0.5)
    killed_at = time.time()
    cluster.kill_node("n1")

    done = wait_for(
        lambda: (
            lambda s: s if s and s["state"] == "done" else None
        )(client.job(submitted["id"])),
        timeout=30.0,
    )
    assert done is not None, "job never completed after failover"

    # Reclaimed onto the peer, still one logical job, one trace.
    assert done["node_id"] == "n2"
    assert done["attempts"] == 2
    assert done["trace_id"] == trace_id
    stats = client.stats()
    assert stats["routing"]["reclaims"] == 1

    # The reclaim happened within one node TTL (plus a detection
    # grace: heartbeat age check + monitor interval).
    reclaimed = wait_for(
        lambda: client.stats()["routing"]["reclaims"] >= 1, timeout=1.0
    )
    assert reclaimed
    assert time.time() - killed_at < 30.0  # sanity on the wait above
    detect_budget = NODE_TTL + 1.0
    # done["attempts"] flipped to 2 at re-dispatch; completion includes
    # the peer's cold analysis, so bound the *reclaim*, not the finish:
    # the router logged it as soon as the sweep fired.
    assert done["submitted_at"] is not None
    finished_after_kill = done["finished_at"] - killed_at
    cold_runtime = done["finished_at"] - done["started_at"]
    assert finished_after_kill - cold_runtime < detect_budget

    # The survivor published the reclaimed job's specmap entry: every
    # node writes the specmap, so a resubmission resolves warm.
    assert store.load_spec_key(
        spec_fingerprint(benchmark_app_spec(3, scale=SCALE))
    ) is not None

    # Result parity with an undisturbed local run of the same spec.
    reference = analyze_spec(
        benchmark_app_spec(3, scale=SCALE),
        BackDroidConfig(search_backend="indexed"),
    )
    assert reference.ok
    from repro.core.batch import outcome_payload

    assert sanitized(done["result"]) == sanitized(
        outcome_payload(reference)
    )

    # The dead node's heartbeat manifest ages out: after the TTL it is
    # ignored by routing and flagged stale on inspection.
    stale = wait_for(
        lambda: any(
            n["node_id"] == "n1" and n["stale"]
            for n in client.stats()["nodes"]
        ),
        timeout=NODE_TTL + 2.0,
    )
    assert stale
    live_ids = [
        n["node_id"] for n in client.stats()["nodes"] if not n["stale"]
    ]
    assert live_ids == ["n2"]


def test_submissions_keep_flowing_after_node_death(cluster):
    front = cluster.front_end(monitor_interval=0.2)
    client = ServiceClient(*front.address, timeout=15.0)
    cluster.kill_node("n1")
    # Before the TTL elapses the router may still try n1; the dispatch
    # loop must fail over to n2 on the dead socket rather than 503ing.
    submitted = client.submit({"app": "bench:0", "scale": SCALE})
    assert submitted["node_id"] == "n2"
    done = wait_for(
        lambda: (
            lambda s: s if s and s["state"] == "done" else None
        )(client.job(submitted["id"])),
        timeout=30.0,
    )
    assert done is not None
    assert done["result"]["package"] == "com.bench.app000"
