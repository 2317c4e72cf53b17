"""The persistent analysis service: resident BackDroid, served over HTTP.

This package amortizes work across *queries*, the way a market-scale
vetting service would run; ``backdroid batch`` submits its apps to the
same scheduler, so a corpus run and a served job take one path:

* :mod:`repro.service.jobs` — :class:`Job` records and the thread-safe
  :class:`JobQueue`: lifecycle (``queued → running →
  done|failed|cancelled``), in-flight dedup (same disassembly sha *and*
  same analysis request coalesce onto one analysis), cancellation and
  bounded retention of finished jobs;
* :mod:`repro.service.scheduler` — the :class:`StoreAwareScheduler`:
  probes the :class:`~repro.store.ArtifactStore` at submit time and
  dispatches warm submissions (stored outcome or restorable index) to a
  small in-process fast lane while cold submissions get the main pool —
  in-process threads, or (``cold_executor="process"``) worker processes
  so cold CPU work never shares the GIL with warm restores — with
  per-lane depth/wait/utilization statistics;
* :mod:`repro.service.workers` — the process-isolation substrate:
  the worker entry point and the :class:`ProcessLane` of long-lived
  worker processes (kill a running analysis, survive worker crashes,
  respawn to constant capacity);
* :mod:`repro.service.server` — the stdlib-only JSON HTTP API
  (``POST /v1/jobs`` with per-job rule/backend/budget overrides,
  ``GET /v1/jobs/<id>``, ``DELETE /v1/jobs/<id>``, ``GET /v1/stats``,
  ``GET /healthz``): the one asyncio HTTP transport, the
  :class:`ServiceAPI` routes over the scheduler, the
  :class:`AnalysisServer` that serves them, and the matching (retrying)
  :class:`ServiceClient`;
* :mod:`repro.service.cluster` — multi-node sharding over one shared
  store: :class:`NodeDirectory` heartbeat manifests, the
  content-key-routing :class:`ClusterRouter` / :class:`ClusterFrontEnd`
  (affinity from the router's own job records, failover re-dispatch
  under the same trace, served by the same transport as a node).

The CLI front end is ``backdroid serve`` (``--node-id`` joins a
cluster; ``--peers store`` runs the front end).

The package exports each public name from the submodule that defines
it, importing that submodule on the name's first use (PEP 562), so a
caller that needs only the scheduler — ``backdroid batch`` — never
loads the HTTP and cluster stack (asyncio, http.client, ssl).
"""

import importlib

#: Each public name and the submodule that defines it.
_EXPORTS = {
    "DEFAULT_LEASE_TTL": "cluster",
    "ClusterFrontEnd": "cluster",
    "ClusterNode": "cluster",
    "ClusterRouter": "cluster",
    "NodeDirectory": "cluster",
    "CANCELLED": "jobs",
    "CANCELLING": "jobs",
    "DONE": "jobs",
    "FAILED": "jobs",
    "JOB_STATES": "jobs",
    "QUEUED": "jobs",
    "RUNNING": "jobs",
    "TERMINAL_STATES": "jobs",
    "Job": "jobs",
    "JobQueue": "jobs",
    "LaneStats": "scheduler",
    "StoreAwareScheduler": "scheduler",
    "AnalysisServer": "server",
    "ServiceAPI": "server",
    "ServiceClient": "server",
    "ServiceError": "server",
    "ColdResult": "workers",
    "ProcessLane": "workers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
