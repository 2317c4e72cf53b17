"""In-process units: node gossip, the node agent and routing."""

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.service import ServiceClient, ServiceError
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
        path = store._node_path("dead")
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

    def test_gc_sweeps_aged_cluster_files(self, store):
        directory = NodeDirectory(store, ttl_seconds=5.0)
        directory.announce("n1", {})
        store.gc(max_age_seconds=0.0)
        assert store.load_node_manifests() == []


    def test_gc_ages_out_lease_files_an_older_deployment_left(self, store):
        # Nodes coordinate through heartbeat manifests alone; lease
        # files a lease-era deployment left under cluster/ are debris
        # that gc's age rule reclaims while live manifests survive.
        NodeDirectory(store, ttl_seconds=5.0).announce("n1", {})
        leases = store.root / "cluster" / "leases"
        leases.mkdir(parents=True)
        debris = [leases / "specmap.json", leases / "specmap.1.claim"]
        aged = time.time() - 7200.0
        for path in debris:
            path.write_text("{}")
            os.utime(path, (aged, aged))
        store.gc(max_age_seconds=3600.0)
        assert not any(path.exists() for path in debris)
        assert [m["node_id"] for m in store.load_node_manifests()] == ["n1"]


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

    def warm_keys(self, limit):
        return ["k-new", "k-old"][:limit]


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
            manifest = store.load_node_manifest("n1")
            assert (manifest["host"], manifest["port"]) == ("127.0.0.1", 4321)
            assert manifest["depth"] == 3 and manifest["busy"] == 1
            assert manifest["warm_keys"] == ["k-new", "k-old"]
            assert node.beats == 1
            with pytest.raises(RuntimeError, match="already started"):
                node.start()
        assert store.load_node_manifest("n1") is None

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
        # lane, and the node gossips the content key it now serves.
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
            ) as node:
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
                node.beat()
                assert store.load_node_manifest("n2")["warm_keys"][0] == key
        finally:
            server.shutdown(drain=True)


class TestRouting:
    def _router(self, tmp_path, manifests):
        store = ArtifactStore(tmp_path / "store")
        directory = NodeDirectory(store, ttl_seconds=5.0)
        for node_id, manifest in manifests.items():
            directory.announce(node_id, manifest)
        return ClusterRouter(tmp_path / "store", lease_ttl=5.0)

    def test_gossip_affinity_routes_to_the_holder(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 0,
                       "warm_keys": []},
                "n2": {"host": "h", "port": 2, "depth": 0,
                       "warm_keys": ["k-hot"]},
            },
        )
        live = router.directory.live()
        assert router._candidates("k-hot", live)[0] == "n2"
        assert router.affinity_hits == 1

    def test_fallback_is_least_loaded(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 7,
                       "warm_keys": []},
                "n2": {"host": "h", "port": 2, "depth": 0,
                       "warm_keys": []},
            },
        )
        live = router.directory.live()
        assert router._candidates("k-unknown", live)[0] == "n2"
        assert router.affinity_hits == 0

    def test_sticky_beats_gossip_and_load(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 9,
                       "warm_keys": []},
                "n2": {"host": "h", "port": 2, "depth": 0,
                       "warm_keys": ["k"]},
            },
        )
        router._sticky["k"] = "n1"
        live = router.directory.live()
        assert router._candidates("k", live)[0] == "n1"

    def test_pin_and_exclude(self, tmp_path):
        router = self._router(
            tmp_path,
            {
                "n1": {"host": "h", "port": 1, "depth": 0,
                       "warm_keys": []},
                "n2": {"host": "h", "port": 2, "depth": 0,
                       "warm_keys": []},
            },
        )
        live = router.directory.live()
        assert router._candidates("k", live, pin="n2")[0] == "n2"
        assert router._candidates("k", live, exclude=("n1",)) == ["n2"]
        assert router._candidates("k", live, exclude=("n1", "n2")) == []

    def test_tiebreak_is_deterministic(self, tmp_path):
        manifests = {
            f"n{i}": {"host": "h", "port": i, "depth": 0, "warm_keys": []}
            for i in range(1, 4)
        }
        router = self._router(tmp_path, manifests)
        live = router.directory.live()
        first = router._candidates("some-key", live)
        assert first == router._candidates("some-key", live)

    def test_a_reclaim_a_node_refuses_with_a_4xx_fails_the_job(self, tmp_path):
        router = self._router(
            tmp_path,
            {"n2": {"host": "h", "port": 2, "depth": 0, "warm_keys": []}},
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
