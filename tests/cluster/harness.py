"""N real ``backdroid serve`` subprocesses over one shared store.

:class:`ClusterHarness` spawns the nodes, waits for each to answer
``/healthz`` and guarantees teardown: the substrate for the cluster
fault-injection tests (``conftest.py`` here), the cluster CI smoke
(``scripts/ci_cluster_smoke.py``) and the scaling benchmark
(``benchmarks/bench_cluster_scaling.py``), which put this directory on
``sys.path`` to import it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional
from urllib.error import URLError

from repro.service import ServiceClient
from repro.service.cluster import (
    DEFAULT_LEASE_TTL,
    ClusterFrontEnd,
    ClusterRouter,
)

_BANNER_RE = re.compile(r"http://([\d.]+):(\d+)")


class _NodeProcess:
    """One spawned ``backdroid serve`` node and its log pump."""

    def __init__(self, node_id: str, process: subprocess.Popen) -> None:
        self.node_id = node_id
        self.process = process
        self.address: Optional[tuple] = None
        self.log: list = []
        self._banner = threading.Event()
        self._pump = threading.Thread(
            target=self._drain, name=f"log-{node_id}", daemon=True
        )
        self._pump.start()

    def _drain(self) -> None:
        # Keeps the child's stdout pipe from filling (a full pipe
        # deadlocks the service's print statements) while retaining
        # the log for debugging.  The pump owns the pipe and closes it
        # at EOF, which a worker that outlives its node can delay.
        with self.process.stdout as stdout:
            for line in stdout:
                self.log.append(line.rstrip("\n"))
                if self.address is None:
                    match = _BANNER_RE.search(line)
                    if match:
                        self.address = (match.group(1), int(match.group(2)))
                        self._banner.set()
        self._banner.set()  # EOF: unblock waiters even without a banner

    def wait_banner(self, timeout: float) -> tuple:
        if not self._banner.wait(timeout) or self.address is None:
            raise RuntimeError(
                f"node {self.node_id} printed no listen banner; log:\n"
                + "\n".join(self.log[-20:])
            )
        return self.address


class ClusterHarness:
    """N real ``backdroid serve`` subprocesses over one shared store.

    Nodes are spawned sequentially (``n1`` first), each on an ephemeral
    port, and health-checked before the next starts.  Teardown is
    guaranteed: ``stop()`` terminates then kills every child, and the
    context manager/fixture finalizer always runs it.
    """

    def __init__(
        self,
        store_dir,
        nodes: int = 2,
        backend: str = "indexed",
        store_mode: str = "index",
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        workers: int = 1,
        cold_workers: int = 1,
        fast_lane_workers: int = 1,
        session_cache: int = 4,
        rules: str = "",
        env_overrides: Optional[dict] = None,
        extra_args: Optional[list] = None,
        startup_timeout: float = 30.0,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.node_count = nodes
        self.backend = backend
        self.store_mode = store_mode
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.workers = workers
        self.cold_workers = cold_workers
        self.fast_lane_workers = fast_lane_workers
        self.session_cache = session_cache
        self.rules = rules
        self.env_overrides = env_overrides or {}
        self.extra_args = list(extra_args or [])
        self.startup_timeout = startup_timeout
        self.nodes: "dict[str, _NodeProcess]" = {}
        self._front_ends: list = []

    # ------------------------------------------------------------------
    def _spawn(self, node_id: str) -> _NodeProcess:
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.update(self.env_overrides.get(node_id, {}))
        cmd = [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--store",
            str(self.store_dir),
            "--store-mode",
            self.store_mode,
            "--backend",
            self.backend,
            "--node-id",
            node_id,
            "--lease-ttl",
            str(self.lease_ttl),
            "--workers",
            str(self.workers),
            "--cold-workers",
            str(self.cold_workers),
            "--fast-lane-workers",
            str(self.fast_lane_workers),
            "--session-cache",
            str(self.session_cache),
        ]
        if self.heartbeat_interval is not None:
            cmd += ["--heartbeat-interval", str(self.heartbeat_interval)]
        if self.rules:
            cmd += ["--rules", self.rules]
        cmd += self.extra_args
        process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        return _NodeProcess(node_id, process)

    def start(self) -> "ClusterHarness":
        try:
            for index in range(1, self.node_count + 1):
                node_id = f"n{index}"
                node = self._spawn(node_id)
                self.nodes[node_id] = node
                host, port = node.wait_banner(self.startup_timeout)
                self._wait_health(host, port)
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_health(self, host: str, port: int) -> None:
        client = ServiceClient(host, port, timeout=2.0, retries=0)
        deadline = time.time() + self.startup_timeout
        while True:
            try:
                if client.health().get("ok"):
                    return
            except (OSError, URLError, ValueError):
                pass
            if time.time() > deadline:
                raise RuntimeError(f"node at {host}:{port} never healthy")
            time.sleep(0.05)

    # ------------------------------------------------------------------
    def endpoints(self) -> list:
        """Live ``(host, port)`` pairs, spawn order."""
        return [
            node.address
            for node in self.nodes.values()
            if node.address is not None
        ]

    def client(self, node_id: str, **kwargs) -> ServiceClient:
        node = self.nodes[node_id]
        host, port = node.wait_banner(self.startup_timeout)
        kwargs.setdefault("timeout", 10.0)
        return ServiceClient(host, port, **kwargs)

    def front_end(self, **kwargs) -> ClusterFrontEnd:
        """A started front end routing over this harness's store."""
        kwargs.setdefault("lease_ttl", self.lease_ttl)
        front = ClusterFrontEnd(
            ClusterRouter(self.store_dir, **kwargs)
        ).start()
        self._front_ends.append(front)
        return front

    # ------------------------------------------------------------------
    def kill_node(self, node_id: str, sig: int = signal.SIGKILL) -> None:
        """Fault injection: deliver ``sig`` (default SIGKILL) now."""
        node = self.nodes[node_id]
        try:
            node.process.send_signal(sig)
        except ProcessLookupError:
            pass
        node.process.wait(timeout=10.0)

    def stop(self) -> None:
        """Terminate every child; escalate to SIGKILL after a grace."""
        for front in self._front_ends:
            try:
                front.shutdown()
            except Exception:
                pass
        self._front_ends = []
        for node in self.nodes.values():
            if node.process.poll() is None:
                try:
                    node.process.terminate()
                except ProcessLookupError:
                    pass
        deadline = time.time() + 5.0
        for node in self.nodes.values():
            while node.process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
            if node.process.poll() is None:
                try:
                    node.process.kill()
                except ProcessLookupError:
                    pass
                node.process.wait(timeout=10.0)
        for node in self.nodes.values():
            node._pump.join(timeout=5.0)  # it closes the pipe at EOF

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
