#!/usr/bin/env python
"""Warm-throughput scaling of the multi-node service on one shared store.

The cluster's pitch (ROADMAP "Multi-node service") is near-linear
*warm* throughput: nodes share one artifact store, so adding a node
adds *session capacity* — the front end's content-key affinity routes
repeat submissions of an app to the node already holding its
generated APK and built index, and that node answers from its warm
session instead of regenerating.

The workload makes that mechanism measurable (and honest) on any
machine, including a single-core CI box:

* ``--apps`` distinct bench apps are pre-warmed into one shared store
  (index mode), then each is submitted ``--repeats`` times through a
  cluster front end, round-robin across apps so consecutive jobs
  never share an app.
* Every node runs with a bounded warm-session cache
  (``--session-cache``, default 4) **smaller than the app set**.  A
  single node therefore thrashes: with 12 apps cycling through 4
  session slots, every job pays regeneration + index restore.  Three
  nodes hold ~4 apps each — within one cache — so after the first
  round every job is a session hit (an order of magnitude cheaper),
  *without any node seeing more total work*.

That is the architecture's claim in miniature: scaling comes from
partitioning the working set (affinity), not just from adding CPUs —
which is also why the effect survives on one core, where raw
CPU-parallelism alone could never show a speedup.

Bar (enforced; the script exits nonzero on failure):

* 3-node warm throughput **>= --min-ratio x** (default 2.0) the
  1-node throughput on the same pre-warmed store.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --smoke

``--smoke`` shrinks the corpus and drops the enforced bar to a sanity
threshold (>= 1.0x) for noisy CI boxes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests/cluster"))

from harness import ClusterHarness  # noqa: E402
from repro.core.backdroid import BackDroidConfig  # noqa: E402
from repro.core.batch import analyze_spec  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workload.corpus import app_spec_from_request  # noqa: E402

TERMINAL = ("done", "failed", "cancelled")


def prewarm(store: Path, apps: int, scale: float) -> None:
    """Publish every app's index + specmap entry into the shared store."""
    config = BackDroidConfig(
        search_backend="indexed", store_dir=str(store), store_mode="index"
    )
    for index in range(apps):
        spec = app_spec_from_request({"app": f"bench:{index}", "scale": scale})
        outcome = analyze_spec(spec, config)
        if not outcome.ok:
            raise SystemExit(
                f"pre-warm failed for bench:{index}: {outcome.error}"
            )


def run_cluster(
    store: Path,
    nodes: int,
    apps: int,
    repeats: int,
    scale: float,
    session_cache: int,
) -> dict:
    """One measured run: ``apps * repeats`` warm jobs via a front end."""
    with ClusterHarness(
        store,
        nodes=nodes,
        backend="indexed",
        store_mode="index",
        lease_ttl=5.0,
        heartbeat_interval=0.3,
        workers=1,
        cold_workers=0,
        fast_lane_workers=1,
        session_cache=session_cache,
    ) as harness:
        # The monitor is only a failover path here; a long interval
        # keeps its per-record polling out of the measurement.
        front = harness.front_end(monitor_interval=5.0)
        client = ServiceClient(*front.address, timeout=30.0)
        node_clients = [
            ServiceClient(host, port, timeout=10.0)
            for host, port in harness.endpoints()
        ]
        total = apps * repeats
        started = time.perf_counter()
        for repeat in range(repeats):
            for index in range(apps):
                # Distinct max_frames per round: repeats must be real
                # jobs, not in-flight dedup coalesces of one analysis.
                client.submit(
                    {
                        "app": f"bench:{index}",
                        "scale": scale,
                        "max_frames": 8 + repeat,
                    }
                )
        while True:
            finished = 0
            for node_client in node_clients:
                by_state = node_client.stats()["jobs"]["by_state"]
                finished += sum(by_state.get(s, 0) for s in TERMINAL)
            if finished >= total:
                break
            time.sleep(0.25)
        elapsed = time.perf_counter() - started
        stats = client.stats()
        failed = 0
        for node_client in node_clients:
            by_state = node_client.stats()["jobs"]["by_state"]
            failed += by_state.get("failed", 0) + by_state.get(
                "cancelled", 0
            )
        if failed:
            raise SystemExit(f"{failed} job(s) failed in the {nodes}-node run")
        return {
            "nodes": nodes,
            "jobs": total,
            "seconds": elapsed,
            "throughput": total / elapsed,
            "routing": stats["routing"],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", type=int, default=12,
                        help="distinct apps (default: 12)")
    parser.add_argument("--repeats", type=int, default=8,
                        help="submissions per app (default: 8)")
    parser.add_argument("--scale", type=float, default=0.35,
                        help="bulk-code scale factor (default: 0.35)")
    parser.add_argument("--session-cache", type=int, default=4,
                        help="per-node warm-session slots (default: 4; "
                        "must be < --apps for the 1-node run to thrash)")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="enforced 3-node/1-node throughput ratio "
                        "(default: 2.0)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized corpus; bar drops to 1.0x")
    parser.add_argument("--json", action="store_true",
                        help="emit the result payload as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.apps = min(args.apps, 8)
        args.repeats = min(args.repeats, 3)
        args.scale = min(args.scale, 0.1)
        args.min_ratio = min(args.min_ratio, 1.0)
    if args.session_cache >= args.apps:
        raise SystemExit("--session-cache must be smaller than --apps "
                         "(the 1-node run must overflow its cache)")

    tmp = Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    store = tmp / "store"
    try:
        warm_start = time.perf_counter()
        prewarm(store, args.apps, args.scale)
        warm_seconds = time.perf_counter() - warm_start
        print(f"pre-warmed {args.apps} app(s) into the shared store in "
              f"{warm_seconds:.1f}s")
        results = {}
        for nodes in (1, 3):
            results[nodes] = run_cluster(
                store,
                nodes,
                args.apps,
                args.repeats,
                args.scale,
                args.session_cache,
            )
            r = results[nodes]
            print(f"{nodes} node(s): {r['jobs']} warm jobs in "
                  f"{r['seconds']:.2f}s -> {r['throughput']:.1f} jobs/s  "
                  f"(routing: {r['routing']})")
        ratio = results[3]["throughput"] / results[1]["throughput"]
        print(f"scaling ratio (3 nodes / 1 node): {ratio:.2f}x "
              f"(bar: >= {args.min_ratio:g}x)")
        if args.json:
            print(json.dumps({"results": results, "ratio": ratio}))
        if ratio < args.min_ratio:
            print("FAIL: below the scaling bar", file=sys.stderr)
            return 1
        print("OK")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
