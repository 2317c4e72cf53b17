"""The store-aware two-lane scheduler.

The paper's pitch is per-query cost small enough to serve analyses on
demand; at service scale the remaining waste is *queueing*: a warm app
whose outcome (or index) is already in the artifact store costs
milliseconds, but in a FIFO pool it still waits behind cold apps that
cost seconds.  This scheduler probes the store at submit time
(:func:`repro.core.batch.probe_spec` — one tiny specmap read to resolve
the spec's content key, then one small manifest read plus shard
existence checks; never any app generation or shard deserialization)
and routes warm submissions to a small dedicated fast lane while cold
submissions get the main worker pool.  A *partial* probe (some of the
app's shards already published — typically by another app embedding
the same libraries) counts as warm: the analysis restores the present
shards lazily and patches only the missing groups.
``benchmarks/bench_service_scheduler.py`` measures the effect: on a
mixed corpus, warm jobs' mean wait drops versus single-lane FIFO
dispatch.

The warm fast lane runs in-process (restores are mmap-backed reads; the
shared :class:`~repro.api.session.SessionCache` lives here), while the
cold lane can execute **out of process**: with
``cold_executor="process"`` every cold analysis ships to a
:class:`~repro.service.workers.ProcessLane` worker and only the
serialized outcome payload crosses back, so cold CPU work (disassembly,
index folds) never shares the service interpreter's GIL with warm
fetches.  The default ``cold_executor="thread"`` keeps everything
in-process — the embedding-friendly library mode and the baseline the
sustained-traffic benchmark compares against.  Execution itself is
:func:`repro.core.batch.analyze_spec` either way (the process lane runs
it through :func:`repro.service.workers.run_analysis_payload`).
``backdroid batch`` (:func:`repro.core.batch.run_batch`) submits its
apps to this scheduler too, so a batch and a served job take one path.
Duplicate in-flight submissions coalesce in the
:class:`~repro.service.jobs.JobQueue` — one analysis, every job
completed with the same payload.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.api.request import AnalysisRequest
from repro.api.session import SessionCache
from repro.core.backdroid import BackDroidConfig
from repro.core.batch import (
    _outcome_fingerprint,
    analyze_spec,
    level_is_warm,
    outcome_payload,
    probe_spec,
)
from repro.service.jobs import CANCELLED, CANCEL_DONE, CANCEL_PENDING, Job, JobQueue
from repro.service.workers import STALL_ENV_VAR, ProcessLane
from repro.telemetry import tracing
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.quantiles import summarize
from repro.workload.generator import AppSpec, spec_fingerprint

#: How many recent depth observations each lane keeps for percentiles.
DEPTH_SAMPLE_WINDOW = 512

#: How many times a cold job is re-dispatched after its worker *dies*
#: (crash/OOM — never after an explicit cancel kill).  One retry rides
#: the already-forked replacement worker; a second death fails the job.
COLD_DIED_RETRIES = 1

_log = get_logger("scheduler")


@dataclass
class LaneStats:
    """One dispatch lane's live state.  Its job counts live in the
    scheduler's metrics registry, which ``stats()`` reads."""

    name: str
    workers: int
    #: Where this lane's analyses execute: ``"in-process"`` (threads in
    #: the service interpreter) or ``"process"`` (worker processes).
    kind: str = "in-process"
    #: Jobs currently queued or running in this lane.
    depth: int = 0
    #: Analyses executing right now (bounded by ``workers``).
    busy: int = 0
    #: Recent queue-depth observations, sampled at each submission, for
    #: the percentiles ``/v1/stats`` reports.
    depth_samples: deque = field(
        default_factory=lambda: deque(maxlen=DEPTH_SAMPLE_WINDOW),
        repr=False,
    )


class StoreAwareScheduler:
    """Two-lane, store-probing dispatch over thread pools.

    ``workers`` sizes the main (cold) pool; ``fast_lane_workers`` sizes
    the warm lane.  A zero-sized fast lane (or no configured store)
    degrades to single-lane FIFO dispatch — the baseline the benchmark
    compares against.

    ``cold_executor`` picks where cold analyses execute: ``"thread"``
    (default) keeps them in-process, ``"process"`` forks a
    :class:`~repro.service.workers.ProcessLane` of ``workers`` worker
    processes and the main pool's threads become dispatchers — each
    blocks on one out-of-process analysis, so lane capacity is
    unchanged.  Process mode requires picklable work: a custom
    ``registry`` (arbitrary client callables) is rejected up front.
    """

    def __init__(
        self,
        config: Optional[BackDroidConfig] = None,
        workers: int = 4,
        fast_lane_workers: int = 1,
        max_finished_jobs: int = 256,
        session_cache_size: int = 4,
        registry=None,
        cold_executor: str = "thread",
        node_id: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        if fast_lane_workers < 0:
            raise ValueError("fast_lane_workers must be >= 0")
        if session_cache_size < 0:
            raise ValueError("session_cache_size must be >= 0")
        if cold_executor not in ("thread", "process"):
            raise ValueError(
                "cold_executor must be 'thread' or 'process', "
                f"got {cold_executor!r}"
            )
        if cold_executor == "process" and registry is not None:
            raise ValueError(
                "cold_executor='process' cannot ship a custom registry "
                "(client detectors are arbitrary callables and may not "
                "pickle); use cold_executor='thread' or the built-in "
                "catalogue"
            )
        self.cold_executor = cold_executor
        #: Cluster identity (None on single-node serves).  Stamped on
        #: every job/result payload and, as a ``node`` const label, on
        #: every metric series, so per-node scrapes stay
        #: distinguishable once aggregated.
        self.node_id = node_id
        self.config = config if config is not None else BackDroidConfig()
        self.queue = JobQueue(max_finished=max_finished_jobs)
        #: Client sink specs/detectors served by every lane (None = the
        #: built-in catalogue).
        self.registry = registry
        #: Warm per-app sessions shared across jobs — differently-
        #: targeted submissions of one app reuse a single generated APK
        #: and built index.
        self.sessions = (
            SessionCache(max_sessions=session_cache_size)
            if session_cache_size > 0
            else None
        )
        self._store = self.config.artifact_store()
        self._config_fingerprint = (
            _outcome_fingerprint(self.config, self.registry)
            if self._store is not None
            else None
        )
        # The main pool's threads either run cold analyses themselves
        # (thread mode) or act as dispatchers, each blocking on one
        # ProcessLane worker (process mode) — either way its size is
        # the cold lane's concurrency.
        self._main = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="backdroid-main"
        )
        self._fast = (
            ThreadPoolExecutor(
                max_workers=fast_lane_workers,
                thread_name_prefix="backdroid-fast",
            )
            if fast_lane_workers > 0
            else None
        )
        self._cold = (
            ProcessLane(workers) if cold_executor == "process" else None
        )
        self.lanes = {
            "fast": LaneStats("fast", fast_lane_workers, kind="in-process"),
            "main": LaneStats(
                "main",
                workers,
                kind="process" if self._cold is not None else "in-process",
            ),
        }
        self._lock = threading.Lock()
        self._closed = False
        #: The scheduler's own tracer: library spans opened during a
        #: job's execution land here via the ambient-span context var.
        #: On by default; clearing ``tracer.enabled`` turns it off.
        self.tracer = tracing.Tracer(enabled=True)
        #: In-flight span handles per primary job id:
        #: ``job_id -> (root_span, queue_span)``.
        self._job_spans: dict[str, tuple] = {}
        #: The scheduler's one counter store: each job event is counted
        #: once, here, and ``stats()`` reads these instruments back.
        self.metrics = MetricsRegistry(
            const_labels={"node": node_id} if node_id else None
        )
        self._init_metrics()

    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        """Register the scheduler's named instruments.  Live state kept
        elsewhere (lane depth and busy, store counters, worker restarts,
        dedup hits) exports via callback gauges read at scrape time."""
        m = self.metrics
        self._m_submitted = m.counter(
            "backdroid_jobs_submitted_total",
            "Jobs submitted, by dispatch lane.",
            ("lane",),
        )
        self._m_completed = m.counter(
            "backdroid_jobs_completed_total",
            "Jobs that finished successfully, by lane.",
            ("lane",),
        )
        self._m_failed = m.counter(
            "backdroid_jobs_failed_total",
            "Jobs that finished with an error, by lane.",
            ("lane",),
        )
        self._m_cancelled = m.counter(
            "backdroid_jobs_cancelled_total",
            "Jobs cancelled by clients, by lane.",
            ("lane",),
        )
        self._m_analyses = m.counter(
            "backdroid_analyses_total",
            "Analyses actually executed (coalesced jobs share one).",
        )
        self._m_warm = m.counter(
            "backdroid_warm_submissions_total",
            "Submissions the store probe classified warm.",
        )
        self._m_warm_partial = m.counter(
            "backdroid_warm_partial_submissions_total",
            "Warm submissions that were partial shard hits.",
        )
        self._m_probe = m.counter(
            "backdroid_store_probe_total",
            "Store probes at submit time, by hit level.",
            ("level",),
        )
        self._m_wait = m.histogram(
            "backdroid_job_wait_seconds",
            "Queue wait (submission to execution start), by lane.",
            ("lane",),
        )
        self._m_service = m.histogram(
            "backdroid_job_service_seconds",
            "Execution time (start to finish), by lane.",
            ("lane",),
        )
        self._m_retries = m.counter(
            "backdroid_cold_worker_retries_total",
            "Cold dispatches retried after a worker death.",
        )
        depth = m.gauge(
            "backdroid_lane_depth",
            "Jobs currently queued or running, by lane.",
            ("lane",),
        )
        busy = m.gauge(
            "backdroid_lane_busy",
            "Analyses executing right now, by lane.",
            ("lane",),
        )
        for name, lane_stats in self.lanes.items():
            depth.set_function(
                lambda s=lane_stats: s.depth, lane=name
            )
            busy.set_function(
                lambda s=lane_stats: s.busy, lane=name
            )
        # The callbacks close over the queue and the cold lane, never
        # over the scheduler: the registry is the scheduler's own, so a
        # callback holding it would make a reference cycle that keeps a
        # stopped scheduler (and its session cache) alive until a full
        # cyclic collection.
        queue, cold = self.queue, self._cold
        m.gauge(
            "backdroid_dedup_hits",
            "Submissions coalesced onto an in-flight analysis.",
        ).set_function(lambda: queue.dedup_hits)
        m.gauge(
            "backdroid_cold_worker_restarts",
            "Cold worker processes restarted after kills/crashes.",
        ).set_function(
            lambda: cold.workers_restarted if cold is not None else 0
        )
        if self._store is not None:
            store_gauge = m.gauge(
                "backdroid_store_counter",
                "Live artifact-store counters (see the label for which).",
                ("counter",),
            )
            stats = self._store.stats
            for counter_name in stats.as_dict():
                store_gauge.set_function(
                    lambda s=stats, n=counter_name: getattr(s, n),
                    counter=counter_name,
                )

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: AppSpec,
        request: Optional[AnalysisRequest] = None,
        parent_trace: Optional[dict] = None,
    ) -> Job:
        """Probe, route, enqueue; returns the job record immediately.

        ``request`` overrides the service's default targets/knobs for
        this job only.  It is folded into the dedup key, so two
        submissions of one app coalesce only when their requests match
        — differently-targeted jobs run separately (but still share the
        warm per-app session underneath).

        ``parent_trace`` is a serialized ``{"trace_id", "span_id"}``
        context (a cluster front end's dispatch span): the job's root
        span parents on it, so one trace follows a job across
        processes.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if request is None:
            effective = self.config
            fingerprint = self._config_fingerprint
            suffix = ""
        else:
            effective = request.to_config(self.config)
            fingerprint = (
                _outcome_fingerprint(effective, self.registry)
                if self._store is not None
                else None
            )
            suffix = f"#{request.fingerprint()}"
        root_span = self.tracer.start_span(
            "job", parent=parent_trace, attrs={"package": spec.package}
        )
        probe_span = self.tracer.start_span("store.probe", parent=root_span)
        key, level = probe_spec(spec, self._store, fingerprint)
        warm = level_is_warm(level, effective)
        probe_span.set_attrs(level=level, warm=warm)
        probe_span.end()
        lane = "fast" if warm and self._fast is not None else "main"
        # The fingerprint surrogate always rides along as a dedup alias:
        # analyze_spec teaches the store the spec -> sha mapping mid-run,
        # so a duplicate of an in-flight cold submission would otherwise
        # resolve to the sha and miss the surrogate-keyed primary.
        aliases = (
            f"{key}{suffix}",
            f"spec:{spec_fingerprint(spec)}{suffix}",
        )
        job, is_primary = self.queue.submit(
            spec,
            key=f"{key}{suffix}",
            lane=lane,
            warm=warm,
            aliases=aliases,
            request=request,
            node_id=self.node_id,
        )
        with self._lock:
            stats = self.lanes[job.lane]
            if is_primary:
                stats.depth += 1
            stats.depth_samples.append(stats.depth)
        self._m_submitted.inc(lane=job.lane)
        self._m_probe.inc(level=str(level))
        if warm:
            # Lane-independent, so a FIFO-degraded scheduler still
            # reports its warm traffic; *partial* hits had only some
            # shards present and patch the rest at analysis time.
            self._m_warm.inc()
            if level == "partial":
                self._m_warm_partial.inc()
        if root_span:
            self.queue.set_trace_id(job.id, root_span.trace_id)
            root_span.set_attrs(job_id=job.id, lane=job.lane, warm=warm)
            if is_primary:
                queue_span = self.tracer.start_span(
                    "queue", parent=root_span, attrs={"lane": job.lane}
                )
                with self._lock:
                    self._job_spans[job.id] = (root_span, queue_span)
            else:
                # A coalesced follower never executes: its short trace
                # records the probe and points at the primary's trace.
                primary = self.queue.get(job.coalesced_into)
                root_span.set_attrs(
                    coalesced_into=job.coalesced_into,
                    primary_trace_id=(
                        primary.trace_id if primary is not None else None
                    ),
                )
                root_span.end()
                self.queue.attach_trace(
                    job.id, self.tracer.collect(root_span.trace_id)
                )
        if is_primary:
            pool = self._fast if job.lane == "fast" else self._main
            try:
                pool.submit(self._run, job.id, job.lane)
            except RuntimeError:
                # Lost the race against shutdown(): the executor already
                # rejected new futures.  Fail the job (and any follower
                # registered in the same instant) so nothing is left
                # queued forever, then surface the closed state.
                self._discard_job_spans(job.id, state="failed")
                members = self.queue.finish(
                    job.id, error="scheduler shut down before dispatch"
                )
                with self._lock:
                    stats = self.lanes[job.lane]
                    stats.depth = max(0, stats.depth - 1)
                self._m_failed.inc(len(members), lane=job.lane)
                raise RuntimeError("scheduler is shut down") from None
        return job

    # ------------------------------------------------------------------
    def _pop_job_spans(self, job_id: str) -> tuple:
        with self._lock:
            return self._job_spans.pop(job_id, (None, None))

    def _discard_job_spans(self, job_id: str, state: str) -> None:
        """Close a job's open spans without serving them (cancelled or
        shutdown-failed before a worker picked the job up)."""
        root_span, queue_span = self._pop_job_spans(job_id)
        if root_span is None:
            return
        if queue_span is not None:
            queue_span.end()
        root_span.set_attr("state", state)
        root_span.end()
        self.queue.attach_trace(
            job_id, self.tracer.collect(root_span.trace_id)
        )

    def _run(self, job_id: str, lane: str) -> None:
        job = self.queue.get(job_id)
        if job is None:
            # Cancelled (or shutdown-failed) *and* already evicted from
            # retention before a worker got to it.  The job record is
            # gone but the lane slot it held is not — release it via the
            # lane captured at submit time.
            self._discard_job_spans(job_id, state="evicted")
            with self._lock:
                stats = self.lanes[lane]
                stats.depth = max(0, stats.depth - 1)
            return
        if job.terminal:
            # Cancelled while queued: never analyze, just release the
            # lane slot the dead job still held.
            self._discard_job_spans(job_id, state=job.state)
            with self._lock:
                stats = self.lanes[job.lane]
                stats.depth = max(0, stats.depth - 1)
            return
        self.queue.mark_running(job_id)
        root_span, queue_span = self._pop_job_spans(job_id)
        if queue_span is not None:
            queue_span.set_attr("wait_seconds", job.wait_seconds)
            queue_span.end()
        with self._lock:
            self.lanes[job.lane].busy += 1
        self._m_analyses.inc()
        service_start = time.perf_counter()
        try:
            if job.lane == "main" and self._cold is not None:
                payload, error = self._execute_cold(job, root_span)
            else:
                with self.tracer.span(
                    "dispatch",
                    parent=root_span,
                    attrs={"executor": "in-process", "attempt": 1},
                ):
                    payload, error = self._execute_in_process(job)
        finally:
            with self._lock:
                stats = self.lanes[job.lane]
                stats.busy = max(0, stats.busy - 1)
        service_seconds = time.perf_counter() - service_start
        if root_span:
            root_span.set_attr(
                "state", "failed" if error is not None else "done"
            )
            root_span.end()
            self.queue.attach_trace(
                job_id, self.tracer.collect(root_span.trace_id)
            )
        if payload is not None and self.node_id is not None:
            # Stamp on a copy: the store-bound outcome payload schema
            # rejects unknown fields, so the node id rides only the
            # served job result.
            payload = dict(payload)
            payload["node_id"] = self.node_id
        members = self.queue.finish(job_id, result=payload, error=error)
        if error is not None:
            _log.warning(
                "job %s failed: %s", job_id, error,
                extra={"trace_id": job.trace_id},
            )
        with self._lock:
            stats = self.lanes[job.lane]
            stats.depth = max(0, stats.depth - 1)
        self._m_service.observe(service_seconds, lane=job.lane)
        # Followers count too: every member was a submission and
        # reached a terminal state with this payload.
        finished = self._m_completed if error is None else self._m_failed
        for member in members:
            if member.state == CANCELLED:
                self._m_cancelled.inc(lane=job.lane)
                continue  # a discarded result is not a wait served
            finished.inc(lane=job.lane)
            if member.wait_seconds is not None:
                self._m_wait.observe(member.wait_seconds, lane=job.lane)

    def _execute_in_process(
        self, job: Job
    ) -> tuple[Optional[dict], Optional[str]]:
        """Run one analysis in the service interpreter (warm path)."""
        self.queue.record_worker(job.id, os.getpid())
        outcome = analyze_spec(  # never raises
            job.spec,
            self.config,
            request=job.request,
            sessions=self.sessions,
            registry=self.registry,
        )
        outcome = dataclasses.replace(outcome, lane=job.lane)
        with tracing.span("report.render"):
            payload = outcome_payload(outcome)
        return payload, None if outcome.ok else outcome.error

    def _execute_cold(
        self, job: Job, root_span=None
    ) -> tuple[Optional[dict], Optional[str]]:
        """Ship one analysis to a worker process and await its payload.

        The stall fault-injection knob is read *here*, in the parent at
        dispatch time, and rides the task — long-lived workers forked at
        construction must not depend on their fork-time environment.

        A worker that *dies* mid-analysis (crash/OOM — not an explicit
        cancel kill) gets :data:`COLD_DIED_RETRIES` re-dispatches onto
        the replacement the lane already forked; each attempt opens its
        own ``dispatch`` span under the same trace.
        """
        attempts = 1 + COLD_DIED_RETRIES
        result = None
        for attempt in range(1, attempts + 1):
            stall = float(os.environ.get(STALL_ENV_VAR) or 0.0)
            dispatch_span = self.tracer.start_span(
                "dispatch",
                parent=root_span,
                attrs={"executor": "process", "attempt": attempt},
            )
            result = self._cold.execute(
                job.id,
                job.spec,
                self.config,
                job.request,
                stall_seconds=stall,
                trace_ctx=dispatch_span.context(),
            )
            self.queue.record_worker(job.id, result.pid)
            if result.spans:
                self.tracer.attach(dispatch_span.trace_id, result.spans)
            dispatch_span.set_attrs(
                worker_pid=result.pid,
                killed=result.killed,
                died=result.died,
            )
            dispatch_span.end()
            if result.died and attempt < attempts:
                _log.warning(
                    "cold worker (pid %s) died running job %s; retrying "
                    "on the replacement (attempt %d/%d)",
                    result.pid, job.id, attempt + 1, attempts,
                    extra={"trace_id": job.trace_id},
                )
                self._m_retries.inc()
                continue
            break
        if result.payload is not None:
            payload = dict(result.payload)
            payload["lane"] = job.lane
            return payload, payload.get("error")
        if result.killed:
            # The worker was terminated by a cancel; the queue is in
            # ``cancelling`` and finish() discards whatever we pass.
            return None, "cancelled by client"
        return None, (
            f"analysis worker died (pid {result.pid}); "
            "a replacement worker was started"
        )

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> tuple[Optional[Job], str]:
        """Cancel a job (see :meth:`JobQueue.cancel` for dispositions).

        Jobs cancelled before running are counted per lane; a running
        job's ``cancelled`` tally lands when its worker completes.  A
        running *out-of-process* cold job is actually interruptible:
        its worker process is terminated (and replaced), so the
        terminal ``cancelled`` state arrives without waiting for the
        analysis to finish.
        """
        job, disposition = self.queue.cancel(job_id)
        if disposition == CANCEL_DONE and job is not None:
            self._m_cancelled.inc(lane=job.lane)
        elif (
            disposition == CANCEL_PENDING
            and job is not None
            and job.lane == "main"
            and self._cold is not None
        ):
            self._cold.kill(job.id)
        return job, disposition

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        return self.queue.wait(job_id, timeout=timeout)

    def stats(self) -> dict:
        """Lanes, job counts, warm-hit rate and the store's counters.

        Job counts are read from the metrics registry one series at a
        time, so a read that races job events is not an atomic snapshot
        across counters: a job finishing mid-read can already show in
        one count and not yet in another.
        """
        lanes = {}
        with self._lock:
            for name, lane in self.lanes.items():
                completed = int(self._m_completed.value(lane=name))
                failed = int(self._m_failed.value(lane=name))
                finished = completed + failed
                lanes[name] = {
                    "name": name,
                    "kind": lane.kind,
                    "workers": lane.workers,
                    "submitted": int(self._m_submitted.value(lane=name)),
                    "completed": completed,
                    "failed": failed,
                    "cancelled": int(self._m_cancelled.value(lane=name)),
                    "depth": lane.depth,
                    "busy": lane.busy,
                    "utilization": (
                        lane.busy / lane.workers if lane.workers else 0.0
                    ),
                    # The shared quantile helper reports ``None`` (JSON
                    # null) for empty/one-sample windows, not a 0.
                    "depth_percentiles": summarize(lane.depth_samples),
                    "mean_wait_seconds": (
                        self._m_wait.sum(lane=name) / finished
                        if finished
                        else 0.0
                    ),
                }
        submitted = sum(lane["submitted"] for lane in lanes.values())
        return {
            "node_id": self.node_id,
            "lanes": lanes,
            "jobs": self.queue.counts(),
            "analyses_run": int(self._m_analyses.value()),
            "submitted": submitted,
            "warm_hit_rate": (
                self._m_warm.value() / submitted if submitted else 0.0
            ),
            "warm_partial_submissions": int(self._m_warm_partial.value()),
            "cold": {
                "executor": self.cold_executor,
                "worker_pids": (
                    self._cold.pids() if self._cold is not None else []
                ),
                "workers_restarted": (
                    self._cold.workers_restarted
                    if self._cold is not None
                    else 0
                ),
            },
            "store": (
                self._store.stats.as_dict()
                if self._store is not None
                else None
            ),
            "sessions": (
                self.sessions.describe()
                if self.sessions is not None
                else None
            ),
            # Embedded for backward-compatible JSON scraping; the same
            # instruments serve ``GET /metrics`` as Prometheus text.
            "metrics": self.metrics.as_dict(),
        }

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain every queued job."""
        self._closed = True
        if not wait and self._cold is not None:
            # Terminate worker processes first: dispatchers blocked on a
            # worker pipe observe the death immediately instead of
            # waiting out whatever analysis was in flight.
            self._cold.shutdown(wait=False)
        self._main.shutdown(wait=wait)
        if self._fast is not None:
            self._fast.shutdown(wait=wait)
        if wait and self._cold is not None:
            # Dispatchers are drained, so every worker is idle and
            # exits on the shutdown signal.
            self._cold.shutdown(wait=True)

    def __enter__(self) -> "StoreAwareScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
