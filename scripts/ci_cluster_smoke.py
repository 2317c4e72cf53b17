#!/usr/bin/env python
"""CI smoke for the multi-node service, end to end over real processes.

Boots a two-node cluster (real ``backdroid serve`` subprocesses over
one shared store) behind a front end, then asserts the subsystem's
load-bearing behaviors:

* a warm job and a cold job both complete through the front end, each
  stamped with the node that ran it;
* every node's ``/metrics`` exposition carries its own ``node="..."``
  label on the served samples;
* every node publishes specmap entries: a cold job on ``n2`` leaves
  its spec resolvable, so a resubmission is classified warm;
* SIGKILLing the node that owns an in-flight job reclaims the job onto
  the surviving peer under the same trace, and the killed node's cold
  workers, one of them busy with that job, exit within 5 s.

Exits nonzero on the first violated assertion, so CI can run it
directly::

    PYTHONPATH=src python scripts/ci_cluster_smoke.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests/cluster"))

from harness import ClusterHarness  # noqa: E402
from repro.core import BackDroidConfig, analyze_spec  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.workload.corpus import benchmark_app_spec  # noqa: E402
from repro.workload.generator import spec_fingerprint  # noqa: E402

SCALE = 0.05
NODE_TTL = 1.5


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def running(pid: int) -> bool:
    """Whether *pid* is a live, non-zombie process (False without /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_job(client: ServiceClient, job_id: str, timeout: float) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        snapshot = client.job(job_id)
        if snapshot is not None and snapshot["state"] in (
            "done",
            "failed",
            "cancelled",
        ):
            return snapshot
        time.sleep(0.1)
    raise SystemExit(f"FAIL: job {job_id} did not finish in {timeout}s")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="ci-cluster-"))
    store = tmp / "store"
    try:
        # Pre-warm one app so the cluster serves a genuinely warm job.
        outcome = analyze_spec(
            benchmark_app_spec(0, scale=SCALE),
            BackDroidConfig(
                search_backend="indexed",
                store_dir=str(store),
                store_mode="full",
            ),
        )
        check(outcome.ok, f"pre-warm failed: {outcome.error}")

        with ClusterHarness(
            store,
            nodes=2,
            store_mode="full",
            lease_ttl=NODE_TTL,
            heartbeat_interval=0.25,
            env_overrides={"n1": {"BACKDROID_COLD_STALL_SECONDS": "45"}},
        ) as harness:
            front = harness.front_end(monitor_interval=0.2)
            client = ServiceClient(*front.address, timeout=15.0)

            # Warm + cold jobs complete through the front end, stamped
            # with the executing node.
            warm = wait_job(
                client,
                client.submit(
                    {"app": "bench:0", "scale": SCALE, "node": "n2"}
                )["id"],
                timeout=30.0,
            )
            check(warm["state"] == "done", f"warm job: {warm}")
            check(warm["result"]["store_hit"] is True, "warm job ran cold")
            check(warm["node_id"] == "n2", f"warm node: {warm['node_id']}")
            cold = wait_job(
                client,
                client.submit(
                    {"app": "bench:1", "scale": SCALE, "node": "n2"}
                )["id"],
                timeout=60.0,
            )
            check(cold["state"] == "done", f"cold job: {cold}")
            check(cold["result"]["store_hit"] is False, "cold job was warm")
            print("ok: warm + cold jobs served through the front end")

            # Specmap writes from every node: n2 ran the cold job, so
            # the recipe now resolves without generating the app.
            check(
                ArtifactStore(store).load_spec_key(
                    spec_fingerprint(benchmark_app_spec(1, scale=SCALE))
                )
                is not None,
                "cold job on n2 left no specmap entry",
            )
            print("ok: specmap writes from every node")

            # Per-node metric labels on each node's own scrape.
            for node_id, (host, port) in zip(
                ("n1", "n2"), harness.endpoints()
            ):
                text = ServiceClient(host, port, timeout=10.0).metrics()
                check(
                    f'node="{node_id}"' in text,
                    f"{node_id}: /metrics lacks its node label",
                )
                check(
                    "backdroid_jobs_submitted_total" in text,
                    f"{node_id}: /metrics lacks job counters",
                )
            print("ok: per-node /metrics labels")

            # Failover: kill the owner of a stalled in-flight cold job.
            victim = client.submit(
                {"app": "bench:2", "scale": SCALE, "node": "n1"}
            )
            trace_id = victim["trace_id"]
            time.sleep(0.5)
            workers = harness.client("n1").stats()["cold"]["worker_pids"]
            check(bool(workers), "n1 reports no cold worker pids")
            harness.kill_node("n1")
            deadline = time.time() + 5.0
            while time.time() < deadline and any(map(running, workers)):
                time.sleep(0.1)
            check(
                not any(map(running, workers)),
                f"n1's cold workers {workers} outlived it",
            )
            print("ok: n1's cold workers exited with it")
            recovered = wait_job(client, victim["id"], timeout=60.0)
            check(
                recovered["state"] == "done",
                f"failover job: {recovered}",
            )
            check(
                recovered["node_id"] == "n2",
                f"failover ran on {recovered['node_id']}",
            )
            check(recovered["attempts"] == 2, "expected one re-dispatch")
            check(
                recovered["trace_id"] == trace_id,
                "trace changed across failover",
            )
            stats = client.stats()
            check(
                stats["routing"]["reclaims"] >= 1,
                f"no reclaim recorded: {stats['routing']}",
            )
            print("ok: SIGKILL failover reclaimed under the same trace")
        print("cluster smoke: all checks passed")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
