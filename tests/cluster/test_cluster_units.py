"""In-process units: the node directory, the node agent and routing."""

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.service import ServiceClient, ServiceError, cluster
from repro.service.cluster import (
    ClusterFrontEnd,
    ClusterJob,
    ClusterNode,
    ClusterRouter,
    NodeDirectory,
)
from repro.store import ArtifactStore
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import spec_fingerprint


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestNodeDirectory:
    def test_announce_roundtrip_and_liveness(self, store):
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {"host": "127.0.0.1", "port": 1234})
        nodes = directory.nodes()
        assert [n["node_id"] for n in nodes] == ["n1"]
        assert nodes[0]["port"] == 1234
        assert nodes[0]["stale"] is False
        assert "n1" in directory.live()

    def test_stale_manifest_excluded_after_ttl(self, store):
        directory = NodeDirectory(store, ttl_seconds=0.5)
        directory.announce("dead", {"host": "127.0.0.1", "port": 1})
        path = directory.root / "dead.json"
        payload = json.loads(path.read_text())
        payload["updated_at"] = time.time() - 60.0
        path.write_text(json.dumps(payload))
        assert directory.nodes() == []
        assert "dead" not in directory.live()
        flagged = directory.nodes(include_stale=True)
        assert flagged and flagged[0]["stale"] is True

    def test_remove_withdraws_the_manifest(self, store):
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {})
        directory.remove("n1")
        assert directory.nodes(include_stale=True) == []

    def test_a_torn_manifest_reads_as_absent(self, store):
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {"host": "h", "port": 1})
        directory.announce("n2", {"host": "h", "port": 2})
        torn = directory.root / "n2.json"
        torn.write_bytes(torn.read_bytes()[:-7])
        assert list(directory.live()) == ["n1"]
        assert [m["node_id"] for m in directory.nodes(include_stale=True)] == [
            "n1"
        ]

    def test_gc_sweeps_aged_cluster_files(self, store):
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {})
        store.gc(max_age_seconds=0.0)
        assert directory.nodes(include_stale=True) == []

    def test_gc_ages_out_lease_files_an_older_deployment_left(self, store):
        # Nodes coordinate through heartbeat manifests alone; lease
        # files a lease-era deployment left under cluster/ are debris
        # that gc's age rule reclaims while live manifests survive.
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {})
        leases = store.root / "cluster" / "leases"
        leases.mkdir(parents=True)
        debris = [leases / "specmap.json", leases / "specmap.1.claim"]
        aged = time.time() - 7200.0
        for path in debris:
            path.write_text("{}")
            os.utime(path, (aged, aged))
        store.gc(max_age_seconds=3600.0)
        assert not any(path.exists() for path in debris)
        assert list(directory.live()) == ["n1"]


class _IdleScheduler:
    """The slice of a scheduler a node heartbeat reads."""

    def __init__(self):
        self.queue = SimpleNamespace(
            counts=lambda: {"by_state": {"queued": 2, "running": 1}}
        )
        self.lanes = {
            "fast": SimpleNamespace(busy=0),
            "main": SimpleNamespace(busy=1),
        }


class TestClusterNode:
    def _node(self, store, **kwargs):
        return ClusterNode(
            _IdleScheduler(), store.root, "n1", ("127.0.0.1", 4321),
            **kwargs,
        )

    def test_heartbeat_interval_derives_from_the_node_ttl(self, store):
        # The TTL is the node-silence threshold; heartbeats default to
        # a third of it, floored, unless set explicitly.
        node = self._node(store, lease_ttl=3.0)
        assert node.directory.ttl_seconds == 3.0
        assert node.heartbeat_interval == pytest.approx(1.0)
        assert self._node(store, lease_ttl=0.03).heartbeat_interval == 0.05
        assert self._node(
            store, lease_ttl=3.0, heartbeat_interval=0.2
        ).heartbeat_interval == 0.2

    def test_router_monitors_nodes_on_the_same_ttl(self, tmp_path):
        router = ClusterRouter(tmp_path / "store", lease_ttl=2.0)
        assert router.directory.ttl_seconds == 2.0
        assert router.monitor_interval == pytest.approx(0.5)
        assert ClusterRouter(
            tmp_path / "store", lease_ttl=2.0, monitor_interval=0.1
        ).monitor_interval == 0.1

    def test_start_announces_and_stop_withdraws(self, store):
        node = self._node(store, lease_ttl=5.0, heartbeat_interval=60.0)
        with node:
            # The first beat is synchronous: routable on return.
            manifest = node.directory.live()["n1"]
            stamps = {"version", "key", "node_id", "updated_at",
                      "age_seconds", "stale"}
            assert {k: v for k, v in manifest.items() if k not in stamps} == {
                "host": "127.0.0.1", "port": 4321, "pid": os.getpid(),
                "depth": 3, "busy": 1,
            }
            assert manifest["key"] == manifest["node_id"] == "n1"
            assert manifest["stale"] is False
            assert node.beats == 1
            with pytest.raises(RuntimeError, match="already started"):
                node.start()
        assert node.directory.nodes(include_stale=True) == []

    def test_failed_heartbeat_keeps_the_agent_beating(self, store):
        node = self._node(store, lease_ttl=5.0, heartbeat_interval=0.01)
        announce = node.directory.announce
        calls = []

        def flaky(node_id, payload):
            calls.append(node_id)
            if len(calls) == 2:
                raise OSError("store unavailable")
            announce(node_id, payload)

        node.directory.announce = flaky
        with node:
            deadline = time.monotonic() + 10.0
            while node.beats < 3:
                assert time.monotonic() < deadline, "heartbeats stopped"
                time.sleep(0.01)
        assert len(calls) >= 4

    def test_node_publishes_the_specmap_entry_of_its_cold_job(self, tmp_path):
        # Every node writes specmap entries: a cold job leaves the
        # mapping, so a resubmission resolves warm and rides the fast
        # lane.
        from repro.cli import build_parser, build_server

        store_dir = tmp_path / "store"
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", str(store_dir),
             "--node-id", "n2", "--backend", "indexed",
             "--cold-workers", "0", "--workers", "1"]
        )
        server = build_server(args)
        server.start()
        try:
            with ClusterNode(
                server.scheduler, store_dir, "n2", server.address,
                lease_ttl=args.lease_ttl, heartbeat_interval=60.0,
            ):
                client = ServiceClient(*server.address, timeout=15.0)
                request = {"app": "bench:1", "scale": 0.05}
                cold = client.wait(client.submit(request)["id"], timeout=60.0)
                assert cold["state"] == "done", cold.get("error")
                assert (cold["lane"], cold["node_id"]) == ("main", "n2")
                store = ArtifactStore(store_dir)
                key = store.load_spec_key(
                    spec_fingerprint(benchmark_app_spec(1, scale=0.05))
                )
                assert key is not None

                warm = client.wait(client.submit(request)["id"], timeout=60.0)
                assert warm["state"] == "done", warm.get("error")
                assert warm["lane"] == "fast"
        finally:
            server.shutdown(drain=True)


class TestRouting:
    def _router(self, tmp_path, manifests):
        store = ArtifactStore(tmp_path / "store")
        directory = NodeDirectory(store, ttl_seconds=5.0)
        for node_id, manifest in manifests.items():
            directory.announce(node_id, manifest)
        return ClusterRouter(tmp_path / "store", lease_ttl=5.0)

    def test_fallback_is_least_loaded(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 7},
                "n2": {"host": "h", "port": 2, "depth": 0},
            },
        )
        live = router.directory.live()
        assert router._candidates("k-unknown", live)[0] == "n2"

    def test_the_newest_job_of_the_key_beats_load(self, tmp_path):
        # An older node's manifest may still carry gossiped warm_keys;
        # they parse and are ignored.
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 9},
                "n2": {"host": "h", "port": 2, "depth": 0,
                       "warm_keys": ["k"]},
            },
        )
        for job_id, node_id in (("cjob-000001", "n2"), ("cjob-000002", "n1")):
            router._records[job_id] = ClusterJob(
                id=job_id, payload={}, key="k", node_id=node_id,
                attempts=1, state="done",
            )
        live = router.directory.live()
        assert router._candidates("k", live) == ["n1", "n2"]
        assert router._candidates("k", live, exclude=("n1",)) == ["n2"]

    def test_affinity_ends_when_the_key_leaves_retention(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cluster, "RETAIN_JOBS", 4)
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 5},
                "n2": {"host": "h", "port": 2, "depth": 0},
            },
        )

        class Accepting:
            def submit(self, payload):
                return {"id": "job-1", "state": "queued"}

        router._client = lambda manifest: Accepting()

        def finished_job(app, **extra):
            body = json.dumps({"app": app, "scale": 0.05, **extra})
            status, view, _ = router.handle("POST", "/v1/jobs", body.encode())
            assert status == 202, view
            router._finalize(router._records[view["id"]], {"state": "done"})
            return view

        first = finished_job("bench:0", node="n1")
        live = router.directory.live()
        assert router._candidates(first["key"], live)[0] == "n1"
        for index in range(1, 7):
            finished_job(f"bench:{index}")
        assert first["id"] not in router._records
        assert router._candidates(first["key"], live)[0] == "n2"
        # The retained records are the router's only per-key state.
        assert len(router._records) == cluster.RETAIN_JOBS
        sized = {
            name: len(value)
            for name, value in vars(router).items()
            if isinstance(value, (dict, list, set, tuple))
            and name != "_records"
        }
        assert all(size <= len(live) for size in sized.values()), sized

    def test_pin_and_exclude(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 0},
                "n2": {"host": "h", "port": 2, "depth": 0},
            },
        )
        live = router.directory.live()
        assert router._candidates("k", live, pin="n2")[0] == "n2"
        assert router._candidates("k", live, exclude=("n1",)) == ["n2"]
        assert router._candidates("k", live, exclude=("n1", "n2")) == []

    def test_tiebreak_is_deterministic(self, tmp_path):
        manifests = {
            f"n{i}": {"host": "h", "port": i, "depth": 0}
            for i in range(1, 4)
        }
        router = self._router(tmp_path, manifests)
        live = router.directory.live()
        first = router._candidates("some-key", live)
        assert first == router._candidates("some-key", live)

    def test_a_reclaim_a_node_refuses_with_a_4xx_fails_the_job(self, tmp_path):
        router = self._router(
            tmp_path,
            {"n2": {"host": "h", "port": 2, "depth": 0}},
        )

        class Refusing:
            def submit(self, payload):
                raise ServiceError(400, "unknown rule(s) ['x']")

        router._client = lambda manifest: Refusing()
        record = ClusterJob(id="cjob-000001", payload={}, key="k",
                            node_id="n1", attempts=1, state="reclaimed",
                            failed_nodes=["n1"])
        router._records[record.id] = record
        router._sweep()
        assert record.state == "failed"
        assert record.error == "reclaim refused: unknown rule(s) ['x']"
        assert router.forward_failovers == 0


class TestFrontEndOverInProcessNodes:
    """A front end forwarding to ``build_server`` nodes in this process."""

    @pytest.fixture
    def cluster(self, tmp_path):
        """``start(node_ids)`` -> (front-end client, {node_id: server})."""
        from repro.cli import build_parser, build_server

        store_dir = tmp_path / "store"
        started = []

        def start(node_ids):
            servers = {}
            for node_id in node_ids:
                args = build_parser().parse_args(
                    ["serve", "--port", "0", "--store", str(store_dir),
                     "--node-id", node_id, "--backend", "indexed",
                     "--cold-workers", "0", "--workers", "1"]
                )
                server = build_server(args).start()
                started.append(server)
                started.append(ClusterNode(
                    server.scheduler, store_dir, node_id, server.address,
                    lease_ttl=args.lease_ttl, heartbeat_interval=1.0,
                ).start())
                servers[node_id] = server
            front = ClusterFrontEnd(
                ClusterRouter(store_dir, monitor_interval=0.1)
            ).start()
            started.append(front)
            return ServiceClient(*front.address, timeout=15.0), servers

        yield start
        for part in reversed(started):
            if isinstance(part, ClusterNode):
                part.stop()
            elif isinstance(part, ClusterFrontEnd):
                part.shutdown()
            else:
                part.shutdown(drain=True)

    @pytest.mark.parametrize(
        "override",
        [
            {"rules": "ssl"},
            {"max_frames": -1},
            {"rules": ["nope"]},
            {"rule": ["ssl-verifier"]},
        ],
    )
    def test_a_node_400_is_relayed_without_failover_or_record(
        self, cluster, override
    ):
        front, servers = cluster(["n1"])
        body = {"app": "bench:1", "scale": 0.05, **override}
        node = ServiceClient(*servers["n1"].address)
        with pytest.raises(ServiceError) as direct:
            node.submit(body)
        with pytest.raises(ServiceError) as relayed:
            front.submit(body)
        assert relayed.value.status == direct.value.status == 400
        assert str(relayed.value) == str(direct.value)
        stats = front.stats()
        assert stats["routing"]["forward_failovers"] == 0
        assert stats["routing"]["routed"] == 0
        assert front.jobs() == [] and node.jobs() == []

    def test_a_draining_node_fails_over_and_the_job_keeps_node_conventions(
        self, cluster
    ):
        front, servers = cluster(["n1", "n2"])
        servers["n1"].api.draining = True  # a node's 503: try the next
        job = front.submit({"app": "bench:1", "scale": 0.05, "node": "n1"})
        assert job["node_id"] == "n2"
        assert front.stats()["routing"]["forward_failovers"] == 1
        assert front.wait(job["id"], timeout=60.0)["state"] == "done"

        node = ServiceClient(*servers["n2"].address)
        for client, job_id in ((front, job["id"]), (node, job["node_job_id"])):
            for query, traced in (("?trace", True), ("?trace=true", True),
                                  ("?notrace=1", False), ("", False)):
                status, view = client._request(
                    "GET", f"/v1/jobs/{job_id}{query}"
                )
                assert status == 200
                assert bool(view.get("trace")) is traced, (client, query)
