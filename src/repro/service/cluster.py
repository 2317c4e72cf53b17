"""Multi-node ``backdroid serve``: store-coordinated job sharding.

The shared :class:`~repro.store.ArtifactStore` already makes analysis
*artifacts* safe to share between hosts (content-addressed shards,
atomic publishes); this module adds the small coordination layer that
makes whole *services* shareable:

* :class:`NodeDirectory` — node registration heartbeats, written as
  small JSON manifests under ``<store>/cluster/nodes/``.  A node that
  stops heartbeating simply ages out: liveness is a property of the
  file's freshness, no membership protocol required.
* :class:`ClusterNode` — the per-``serve``-process agent: heartbeats
  the directory with the node's address and load.
* :class:`ClusterRouter` / :class:`ClusterFrontEnd` — the front end:
  routes ``POST /v1/jobs`` to the node that ran the app's newest
  retained job (content-key affinity from the router's own job
  records, falling back to least-loaded with a rendezvous-hash
  tiebreak), forwards over plain HTTP, and monitors in-flight jobs so
  work on a dead node is reclaimed and retried on a peer **under the
  same trace** (per-attempt ``dispatch`` spans, exactly like the cold
  lane's died-worker retries).  It is served by the same
  :class:`~repro.service.server.HTTPTransport` and request conventions
  as a node.
Failure model: nodes fail by *silence* (crash, SIGKILL, partition).
A silent node's manifest goes stale after one TTL and the front end
reclaims its in-flight jobs onto live peers.  Nodes coordinate through
their heartbeat manifests alone: every node publishes store artifacts,
specmap entries included, because each publish is an atomic rename of
deterministic content.  The worst outcome of a race is a duplicate
analysis, which the store's content addressing absorbs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.error import URLError

from repro.core.batch import probe_spec
from repro.service.jobs import TERMINAL_STATES
from repro.service.server import (
    HTTPRoutes,
    HTTPTransport,
    ServiceClient,
    ServiceError,
)
from repro.store.artifacts import FORMAT_VERSION, ArtifactStore
from repro.telemetry import tracing
from repro.telemetry.logs import get_logger
from repro.workload.corpus import app_spec_from_request

_log = get_logger("repro.service.cluster")

#: Default node-silence TTL (seconds): a node silent this long is
#: treated as dead.  Heartbeats default to a third of it.
DEFAULT_LEASE_TTL = 10.0

#: Accepted dispatches a cluster job may use before the router fails it.
MAX_ATTEMPTS = 3

#: Cluster job records the router keeps; the oldest finished ones go
#: first.
RETAIN_JOBS = 1024


# ----------------------------------------------------------------------
# The node directory
# ----------------------------------------------------------------------
class NodeDirectory:
    """Every node manifest under ``<store>/cluster/nodes/``, aged against
    one TTL.  Manifests use the store's atomic publish and version/key
    validation, so a torn or stale file reads as absent."""

    def __init__(
        self, store: ArtifactStore, ttl_seconds: float = DEFAULT_LEASE_TTL
    ) -> None:
        self.store = store
        self.ttl_seconds = ttl_seconds
        self.root = store.root / "cluster" / "nodes"

    def announce(self, node_id: str, payload: dict) -> None:
        """Publish one heartbeat manifest (stamps ``updated_at``)."""
        self.store._write_json(self.root / f"{node_id}.json", {
            **payload, "version": FORMAT_VERSION, "key": node_id,
            "node_id": node_id, "updated_at": time.time(),
        })

    def nodes(self, include_stale: bool = False) -> list[dict]:
        """Readable manifests, sorted by node id, with computed
        ``age_seconds``/``stale`` flags; stale ones (silent past the
        TTL) are dropped unless asked for."""
        now = time.time()
        out = []
        for path in sorted(self.root.glob("*.json")):
            manifest = self.store._read_json(path, path.stem)
            updated = manifest.get("updated_at") if manifest else None
            if not isinstance(updated, (int, float)):
                continue
            age = max(0.0, now - updated)
            manifest["age_seconds"] = age
            manifest["stale"] = age > self.ttl_seconds
            if manifest["stale"] and not include_stale:
                continue
            out.append(manifest)
        return out

    def live(self) -> dict:
        """``node_id -> manifest`` for every fresh node."""
        return {m["node_id"]: m for m in self.nodes()}

    def remove(self, node_id: str) -> None:
        """Withdraw a node's manifest (shutdown); missing is fine."""
        try:
            (self.root / f"{node_id}.json").unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# The per-process cluster agent
# ----------------------------------------------------------------------
class ClusterNode:
    """Heartbeat agent attached to one running ``serve`` process.

    Each beat publishes the node manifest: address, pid, queue depth
    and busy workers.  The first beat runs synchronously in
    :meth:`start`, so by the time the serve banner prints the node is
    routable.
    """

    def __init__(
        self,
        scheduler,
        store_root,
        node_id: str,
        address: tuple,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        self.scheduler = scheduler
        self.node_id = node_id
        self.address = address
        self.directory = NodeDirectory(ArtifactStore(store_root), lease_ttl)
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_ttl / 3.0)
        )
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self) -> None:
        """One heartbeat: publish the node manifest."""
        counts = self.scheduler.queue.counts()["by_state"]
        host, port = self.address
        self.directory.announce(
            self.node_id,
            {
                "host": host,
                "port": int(port),
                "pid": os.getpid(),
                "depth": counts.get("queued", 0) + counts.get("running", 0),
                "busy": sum(
                    lane.busy for lane in self.scheduler.lanes.values()
                ),
            },
        )
        self.beats += 1

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.beat()
            except OSError:
                # A torn store (disk full, unmounted share) must not
                # kill the agent; the node just looks silent until the
                # store recovers.
                _log.warning(
                    "node %s heartbeat failed", self.node_id, exc_info=True
                )

    def start(self) -> "ClusterNode":
        if self._thread is not None:
            raise RuntimeError("cluster node already started")
        self.beat()  # synchronous: routable before the banner prints
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run,
            name=f"backdroid-node-{self.node_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Withdraw cleanly: stop beating, remove the manifest."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.directory.remove(self.node_id)

    def __enter__(self) -> "ClusterNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Front-end routing
# ----------------------------------------------------------------------
@dataclass
class ClusterJob:
    """The front end's record of one routed submission."""

    id: str
    payload: dict
    package: Optional[str] = None
    #: Routing key (content key, or a spec-fingerprint surrogate).
    key: Optional[str] = None
    node_id: Optional[str] = None
    node_job_id: Optional[str] = None
    #: Dispatches accepted by some node (1 on the happy path).
    attempts: int = 0
    #: ``routed`` → (``reclaimed`` →)* ``done`` | ``failed``
    state: str = "routed"
    error: Optional[str] = None
    trace_id: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    #: Cached terminal snapshot from the executing node.
    snapshot: Optional[dict] = None
    #: Router-side spans, collected when the root span closes.
    trace: Optional[list] = None
    #: Node ids that accepted (then lost) this job — excluded from
    #: reclaim candidates.
    failed_nodes: list = field(default_factory=list)
    _root_span: object = None
    _dispatch_span: object = None


def _rendezvous_score(key: str, node_id: str) -> int:
    digest = hashlib.sha256(f"{key}|{node_id}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


class ClusterRouter(HTTPRoutes):
    """Route, forward and babysit jobs across the live nodes.

    Its ``handle(method, target, body) -> (status, payload, close)``
    follows the same :class:`~repro.service.server.HTTPRoutes`
    conventions as a node's :class:`~repro.service.server.ServiceAPI`.
    A node's 4xx answer to a forwarded submission is relayed to the
    client at once: every node validates against the same rule
    catalogue, so a spec one node refuses, all refuse.

    Routing policy, in order:

    1. an explicit ``"node"`` pin in the submission body (tests,
       draining);
    2. affinity — the node of the key's newest retained job record, if
       still live: repeat traffic for an app lands on the node already
       holding its session and index;
    3. least-loaded (router in-flight + heartbeat depth), rendezvous
       hash as the deterministic tiebreak.

    The retained records (at most :data:`RETAIN_JOBS`) are the
    router's only per-key state.

    A monitor thread polls in-flight jobs: terminal results are
    cached; a job whose node went silent past the TTL is **reclaimed**
    — re-dispatched to a live peer under the same root span with a
    fresh per-attempt ``dispatch`` span — up to :data:`MAX_ATTEMPTS`
    accepted dispatches.
    """

    def __init__(
        self,
        store_root,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        monitor_interval: Optional[float] = None,
        client_timeout: float = 10.0,
    ) -> None:
        self.store = ArtifactStore(store_root)
        self.directory = NodeDirectory(self.store, lease_ttl)
        self.lease_ttl = lease_ttl
        self.monitor_interval = (
            monitor_interval
            if monitor_interval is not None
            else max(0.05, lease_ttl / 4.0)
        )
        self.client_timeout = client_timeout
        self.tracer = tracing.Tracer(enabled=True)
        self.draining = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Cluster job records in submission order.
        self._records: "dict[str, ClusterJob]" = {}
        self._clients: dict = {}
        # Routing counters (served under /v1/stats).
        self.routed = 0
        self.reclaims = 0
        self.forward_failovers = 0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "ClusterRouter":
        if self._monitor is None:
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="backdroid-cluster-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None

    # ------------------------------------------------------------------
    def _client(self, manifest: dict) -> ServiceClient:
        address = (manifest["host"], int(manifest["port"]))
        client = self._clients.get(address)
        if client is None:
            client = self._clients[address] = ServiceClient(
                address[0],
                address[1],
                timeout=self.client_timeout,
                retries=0,
            )
        return client

    def _candidates(
        self,
        key: Optional[str],
        live: dict,
        pin: Optional[str] = None,
        exclude: tuple = (),
    ) -> list:
        """Node ids to try, preferred first (see class docstring).

        One pass over the retained records counts each node's in-flight
        jobs and finds the node of ``key``'s newest record.  A record is
        stored once its first dispatch returns, so two submissions of
        one key that race through the front end may both route
        least-loaded.
        """
        usable = [n for n in live if n not in exclude]
        if not usable:
            return []
        inflight: dict = {}
        last = None
        with self._lock:
            for record in self._records.values():
                if record.node_id is None:
                    continue
                if record.state == "routed":
                    inflight[record.node_id] = (
                        inflight.get(record.node_id, 0) + 1
                    )
                if key is not None and record.key == key:
                    last = record.node_id
        return sorted(
            usable,
            key=lambda n: (
                n != pin,
                n != last,
                inflight.get(n, 0) + int(live[n].get("depth") or 0),
                -_rendezvous_score(key or "", n),
            ),
        )

    # ------------------------------------------------------------------
    def _dispatch(
        self, record: ClusterJob, live: dict, exclude: tuple = (),
        pin: Optional[str] = None,
    ) -> Optional[dict]:
        """Forward the submission to the first accepting candidate.

        Returns the accepting node's job snapshot, or None when every
        candidate refused/was unreachable (the record is untouched and
        may be retried by the monitor once the live set changes).  A
        node's 4xx is the client's error on every node: it is raised as
        the node's :class:`~repro.service.server.ServiceError`, not
        failed over.
        """
        candidates = self._candidates(
            record.key, live, pin=pin, exclude=exclude
        )
        for node_id in candidates:
            manifest = live[node_id]
            dispatch_span = self.tracer.start_span(
                "dispatch",
                parent=record._root_span,
                attrs={"node": node_id, "attempt": record.attempts + 1},
            )
            body = dict(record.payload)
            ctx = dispatch_span.context()
            if ctx is not None:
                body["trace"] = ctx
            try:
                snapshot = self._client(manifest).submit(body)
            except (ValueError, OSError, URLError) as exc:
                dispatch_span.set_attrs(forward_error=str(exc))
                dispatch_span.end()
                if isinstance(exc, ServiceError) and exc.status < 500:
                    raise
                # A 5xx (a draining node) or a dead socket: next
                # candidate.
                self.forward_failovers += 1
                continue
            with self._lock:
                record.attempts += 1
                record.node_id = node_id
                record.node_job_id = snapshot.get("id")
                record.state = "routed"
                if record._dispatch_span is not None:
                    record._dispatch_span.end()
                record._dispatch_span = dispatch_span
                dispatch_span.set_attrs(node_job_id=record.node_job_id)
            return snapshot
        return None

    def _finalize(self, record: ClusterJob, snapshot: dict) -> None:
        """Cache a terminal node snapshot and close the trace."""
        with self._lock:
            if record.state in ("done", "failed"):
                return
            record.snapshot = snapshot
            record.state = (
                "done" if snapshot.get("state") == "done" else "failed"
            )
            record.error = snapshot.get("error")
            span, dispatch = record._root_span, record._dispatch_span
            record._root_span = record._dispatch_span = None
        if dispatch is not None:
            dispatch.set_attrs(state=snapshot.get("state"))
            dispatch.end()
        if span is not None and span:
            span.set_attrs(
                state=record.state,
                node=record.node_id,
                attempts=record.attempts,
            )
            span.end()
            record.trace = self.tracer.collect(span.trace_id)

    def _fail(self, record: ClusterJob, error: str) -> None:
        with self._lock:
            if record.state in ("done", "failed"):
                return
            record.state = "failed"
            record.error = error
            span, dispatch = record._root_span, record._dispatch_span
            record._root_span = record._dispatch_span = None
        if dispatch is not None:
            dispatch.end()
        if span is not None and span:
            span.set_attrs(state="failed", error=error)
            span.end()
            record.trace = self.tracer.collect(span.trace_id)

    # ------------------------------------------------------------------
    def _poll_node(
        self, record: ClusterJob, manifest: dict, trace: bool = False
    ) -> Optional[dict]:
        try:
            return self._client(manifest).job(
                record.node_job_id, trace=trace
            )
        except (OSError, URLError, ValueError):
            return None

    def _sweep(self) -> None:
        """One monitor pass over the in-flight records."""
        live = self.directory.live()
        with self._lock:
            pending = [
                r
                for r in self._records.values()
                if r.state in ("routed", "reclaimed")
            ]
        for record in pending:
            if record.state == "routed" and record.node_id in live:
                snapshot = self._poll_node(record, live[record.node_id])
                if snapshot is not None and snapshot.get(
                    "state"
                ) in TERMINAL_STATES:
                    self._finalize(record, snapshot)
                continue
            # The owner is silent (or the record is awaiting a peer):
            # reclaim.
            if record.state == "routed":
                with self._lock:
                    if record.node_id not in record.failed_nodes:
                        record.failed_nodes.append(record.node_id)
                    record.state = "reclaimed"
                    self.reclaims += 1
                    if record._dispatch_span is not None:
                        record._dispatch_span.set_attrs(died=True)
                        record._dispatch_span.end()
                        record._dispatch_span = None
                _log.warning(
                    "node %s went silent; reclaiming job %s "
                    "(attempt %d/%d)",
                    record.node_id,
                    record.id,
                    record.attempts + 1,
                    MAX_ATTEMPTS,
                    extra={"trace_id": record.trace_id},
                )
            if record.attempts >= MAX_ATTEMPTS:
                self._fail(
                    record,
                    f"job lost on {record.failed_nodes} after "
                    f"{record.attempts} attempt(s)",
                )
                continue
            # With no live peer the record waits for the next sweep.
            try:
                self._dispatch(
                    record, live, exclude=tuple(record.failed_nodes)
                )
            except ServiceError as exc:
                self._fail(record, f"reclaim refused: {exc}")

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval):
            try:
                self._sweep()
            except Exception:
                _log.warning("cluster monitor sweep failed", exc_info=True)

    # ------------------------------------------------------------------
    # Routes (HTTPRoutes dispatches here)
    # ------------------------------------------------------------------
    def _post(self, path: str, body) -> tuple:
        if path != "/v1/jobs":
            return 404, {"error": f"no such endpoint {path!r}"}, True
        if self.draining:
            return (
                503,
                {"error": "front end is draining; not accepting "
                          "submissions"},
                True,
            )
        try:
            payload = self._submission(body)
            pin = payload.pop("node", None)
            spec = app_spec_from_request(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}, True
        key, _level = probe_spec(spec, self.store)
        live = self.directory.live()
        if not live:
            return 503, {"error": "no live nodes"}, True
        if pin is not None and pin not in live:
            return 400, {"error": f"unknown or dead node {pin!r}"}, True
        record = ClusterJob(
            id=f"cjob-{next(self._ids):06d}",
            payload=payload,
            package=spec.package,
            key=key,
        )
        record._root_span = self.tracer.start_span(
            "cluster.job",
            attrs={"package": spec.package, "job_id": record.id},
        )
        if record._root_span:
            record.trace_id = record._root_span.trace_id
        try:
            snapshot = self._dispatch(record, live, pin=pin)
        except ServiceError as exc:
            # Relayed as the node answered it, and like a node, the
            # front end keeps no record of a refused submission.
            record._root_span.end()
            self.tracer.collect(record.trace_id)
            return exc.status, {"error": str(exc)}, True
        with self._lock:
            self._records[record.id] = record
            self.routed += 1
            while len(self._records) > RETAIN_JOBS:
                oldest = next(iter(self._records.values()))
                if oldest.state not in ("done", "failed"):
                    break
                del self._records[oldest.id]
        if snapshot is None:
            self._fail(record, "no node accepted the submission")
            return 503, self._view(record), True
        return 202, self._view(record, node_snapshot=snapshot), False

    def _get(self, path: str, query: dict) -> tuple:
        if path == "/healthz":
            return 200, {"ok": True, "role": "front-end"}, False
        if path == "/v1/stats":
            return 200, self.stats(), False
        if path == "/v1/jobs":
            with self._lock:
                records = list(self._records.values())
            return 200, {"jobs": [self._view(r) for r in records]}, False
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            with self._lock:
                record = self._records.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}, True
            trace = self._flag(query, "trace")
            return 200, self._view(record, trace=trace), False
        return 404, {"error": f"no such endpoint {path!r}"}, True

    def _delete(self, path: str) -> tuple:
        if not path.startswith("/v1/jobs/"):
            return 404, {"error": f"no such endpoint {path!r}"}, True
        job_id = path[len("/v1/jobs/"):]
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, True
        if record.state in ("done", "failed"):
            return 409, {"error": f"job {job_id} already {record.state}"}, True
        live = self.directory.live()
        manifest = live.get(record.node_id)
        if manifest is None:
            self._fail(record, "cancelled while its node was silent")
            return 200, self._view(record), False
        try:
            self._client(manifest).cancel(record.node_job_id)
        except KeyError:
            pass
        except (ValueError, OSError, URLError) as exc:
            return 409, {"error": str(exc)}, True
        snapshot = self._poll_node(record, manifest)
        if snapshot is not None and snapshot.get("state") in TERMINAL_STATES:
            self._finalize(record, snapshot)
        return 200, self._view(record), False

    # ------------------------------------------------------------------
    def _view(
        self,
        record: ClusterJob,
        node_snapshot: Optional[dict] = None,
        trace: bool = False,
    ) -> dict:
        """The served job payload: node snapshot + cluster fields."""
        snapshot = record.snapshot or node_snapshot
        if snapshot is None and record.state in ("routed",):
            live = self.directory.live()
            manifest = live.get(record.node_id)
            if manifest is not None:
                snapshot = self._poll_node(record, manifest, trace=trace)
                if snapshot is not None and snapshot.get(
                    "state"
                ) in TERMINAL_STATES:
                    self._finalize(record, snapshot)
                    snapshot = record.snapshot
        if snapshot is not None:
            view = dict(snapshot)
        else:
            view = {
                "package": record.package,
                "state": (
                    "queued" if record.state == "reclaimed"
                    else record.state
                ),
                "result": None,
                "error": record.error,
            }
        view["id"] = record.id
        view["node_id"] = record.node_id
        view["node_job_id"] = record.node_job_id
        view["attempts"] = record.attempts
        view["key"] = record.key
        view["trace_id"] = record.trace_id
        if record.state == "failed":
            view["state"] = "failed"
            view["error"] = record.error
        if trace:
            spans = list(record.trace or [])
            node_trace = (
                snapshot.get("trace") if snapshot is not None else None
            )
            if node_trace:
                spans.extend(node_trace)
            view["trace"] = spans or None
        return view

    def stats(self) -> dict:
        with self._lock:
            states: dict = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            counters = {
                "routed": self.routed,
                "reclaims": self.reclaims,
                "forward_failovers": self.forward_failovers,
            }
        return {
            "role": "front-end",
            "nodes": self.directory.nodes(include_stale=True),
            "jobs": states,
            "routing": counters,
            "draining": self.draining,
        }


class ClusterFrontEnd:
    """The router behind the same HTTP transport as a node.

    The listening socket is bound eagerly, so :attr:`address` is
    authoritative before :meth:`start`.
    """

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self._transport = HTTPTransport(router.handle, host, port)

    @property
    def address(self) -> tuple:
        return self._transport.address

    def start(self) -> "ClusterFrontEnd":
        self._transport.start()
        self.router.start()
        return self

    def drain(self) -> None:
        self.router.draining = True

    def shutdown(self) -> None:
        self._transport.stop()
        self.router.stop()

    def __enter__(self) -> "ClusterFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
