"""Process-isolated analysis workers, shared by batch and serve.

Cold analyses are CPU-shaped (disassembly, index folds, slicing) while
warm restores are I/O-shaped (mmap reads); running both in one
interpreter makes every warm fetch queue behind the GIL whenever a cold
analysis is executing.  This module owns the *out-of-process* execution
substrate that fixes that:

* :func:`run_analysis` / :func:`run_analysis_payload` — the
  module-level worker entry points (they pickle by reference, which is
  what lets both ``run_batch --executor process`` and the service's
  cold lane ship work across a process boundary with one code path);
* :class:`ProcessLane` — a fixed-size pool of long-lived worker
  processes driven over pipes, with the lifecycle operations an
  interactive service needs and ``concurrent.futures`` cannot offer:
  cancel a *running* job by terminating its worker (the worker is
  reaped and a replacement is forked, so the lane never loses
  capacity), and survive worker crashes by failing only the job that
  was on the dead worker.

The parent process never sends analysis work to a worker without
registering which job it runs, so a cancellation can always find the
process to signal.  Results travel back as plain JSON-able outcome
payloads (the same versioned shape the store and the HTTP API use), so
nothing analysis-specific needs to pickle on the return path.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.batch import analyze_spec, outcome_payload
from repro.telemetry import tracing

#: Fault-injection hook (tests, chaos drills): when set in the parent's
#: environment at dispatch time, every cold task stalls this many
#: seconds inside the worker before analyzing — long enough to exercise
#: the cancel-a-running-worker path deterministically.
STALL_ENV_VAR = "BACKDROID_COLD_STALL_SECONDS"

#: Seconds between a worker's checks that its owner is still alive.  A
#: busy worker reads no pipe, so without this check it would finish its
#: task for an owner that was killed meanwhile.
OWNER_POLL_SECONDS = 0.5

#: The CPU-priority handicap of every cold worker.  Cold analyses are
#: throughput work; the service interpreter (event loop + warm lane) is
#: latency-sensitive.  A GIL-holding thread cannot be deprioritized, but
#: a process can: niced workers soak up idle CPU without preempting warm
#: restores when cores are scarce.
DEFAULT_NICE = 10


# ======================================================================
# Worker entry points (module-level: they pickle by reference)
# ======================================================================

def run_analysis(spec, config=None, request=None):
    """Analyze one spec; the shared worker entry point.

    This is what ``run_batch(executor="process")`` submits to its
    ``ProcessPoolExecutor`` and what :class:`ProcessLane` workers run —
    one entry point, so per-app isolation, store warm starts and
    outcome shapes are identical whichever pool executed the app.
    Never raises: errors are captured in ``AppOutcome.error``.
    """
    return analyze_spec(spec, config, request=request)


def run_analysis_payload(spec, config=None, request=None) -> dict:
    """Analyze one spec and return the serialized outcome payload.

    The service's cross-process result shape: a plain JSON-able dict
    (versioned by the envelope ``schema_version``), so the parent never
    has to unpickle analysis objects from an untrusted-after-crash
    worker — only primitives cross back.
    """
    outcome = run_analysis(spec, config, request)
    with tracing.span("report.render"):
        return outcome_payload(outcome)


def _exit_when_orphaned(owner_pid: int) -> None:
    """Poll the parent pid; exit the process once it is not *owner_pid*.

    An orphan is re-parented (to init or a subreaper), so a changed
    parent pid means the owner died.  ``prctl(PR_SET_PDEATHSIG)`` is no
    substitute: it fires when the forking *thread* exits, and the lane
    forks replacement workers from dispatcher threads.
    """
    while os.getppid() == owner_pid:
        time.sleep(OWNER_POLL_SECONDS)
    os._exit(1)


def _worker_main(conn, parent_conn, owner_pid: int) -> None:
    """One worker process's loop: recv task, analyze, send payload.

    A ``None`` task (or a closed pipe) is the shutdown signal.  The
    stall knob rides the task itself so the parent's environment at
    dispatch time — not the child's at fork time — controls it.

    ``parent_conn`` is the parent's end of this worker's pipe, which a
    forked child inherits.  It is closed first thing: while the child
    holds it, the parent's death never reads as EOF here, and the
    worker would outlive a killed service forever.  An idle worker
    sees that EOF at once; a busy one reads no pipe until its task
    ends, so a daemon thread also watches for the death of
    ``owner_pid``, the process that forked it.

    Trace propagation: when the task carries a serialized span context,
    the worker runs the analysis under a local tracer's ``worker`` span
    parented on it and ships the finished span dicts home in the
    result, so the job's trace crosses the process boundary intact.
    """
    parent_conn.close()
    threading.Thread(
        target=_exit_when_orphaned, args=(owner_pid,), daemon=True,
        name="backdroid-owner-watch",
    ).start()
    try:
        os.nice(DEFAULT_NICE)
    except (AttributeError, OSError):
        pass  # platform without nice(), or lowering denied
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        spec, config, request, stall_seconds, trace_ctx = task
        if stall_seconds:
            time.sleep(stall_seconds)
        spans: list = []
        if trace_ctx is not None:
            worker_tracer = tracing.Tracer(enabled=True)
            with worker_tracer.span(
                "worker", parent=trace_ctx, attrs={"stage": "cold-analysis"}
            ):
                payload = run_analysis_payload(spec, config, request)
            spans = worker_tracer.collect(trace_ctx["trace_id"])
        else:
            payload = run_analysis_payload(spec, config, request)
        try:
            conn.send(
                {"pid": os.getpid(), "payload": payload, "spans": spans}
            )
        except (BrokenPipeError, OSError):
            return


# ======================================================================
# The process lane
# ======================================================================

@dataclass(frozen=True)
class ColdResult:
    """What one out-of-process execution produced.

    Exactly one of three shapes: a completed ``payload`` (the analysis
    ran to the end — its own ``error`` field still distinguishes ok
    from failed), ``killed`` (the worker was terminated by an explicit
    cancel; the result is discarded by design), or ``died`` (the worker
    vanished without being asked to — crash, OOM kill — and the lane
    already forked a replacement).  ``spans`` carries the worker-side
    finished span dicts when the dispatch shipped a trace context.
    """

    payload: Optional[dict]
    pid: Optional[int]
    killed: bool = False
    died: bool = False
    spans: tuple = ()


class _Worker:
    """One long-lived worker process plus the parent's pipe end."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, os.getpid()),
            name="backdroid-cold-worker",
            daemon=True,
        )
        self.process.start()
        # The child holds its own copy; closing ours makes a dead child
        # surface as EOFError on recv instead of a hang.
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def stop(self) -> None:
        """Graceful shutdown: signal, wait, escalate to terminate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.close()

    def terminate(self) -> None:
        """Hard kill (cancellation, non-drain shutdown)."""
        self.process.terminate()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        # Reap the child so a long-lived service never accumulates
        # zombies across cancellations.
        self.process.join(timeout=5.0)


class ProcessLane:
    """A fixed pool of analysis worker processes with kill semantics.

    ``execute`` blocks its (dispatcher-thread) caller for the duration
    of one out-of-process analysis; concurrency comes from the
    scheduler running one dispatcher thread per worker.  ``kill``
    terminates the worker currently bound to a job token — the
    dispatcher's pending ``recv`` observes the death and reports a
    ``killed``/``died`` result while the lane forks a replacement, so
    capacity is invariant under both cancellations and crashes.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        methods = multiprocessing.get_all_start_methods()
        # fork keeps per-worker startup in the low milliseconds and
        # needs no importable __main__; everywhere it is missing
        # (Windows), spawn is the portable fallback.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.workers = workers
        self._lock = threading.Lock()
        #: Job token -> the worker currently executing it.
        self._running: dict[str, _Worker] = {}
        #: Tokens whose kill raced the dispatch handshake; checked both
        #: before send (never start doomed work) and after recv.
        self._kill_requested: set[str] = set()
        self._closed = False
        self.workers_restarted = 0
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._all: list[_Worker] = []
        for _ in range(workers):
            worker = _Worker(self._ctx)
            self._all.append(worker)
            self._idle.put(worker)

    # ------------------------------------------------------------------
    def pids(self) -> list[int]:
        """Live worker process ids (stable between restarts)."""
        with self._lock:
            return sorted(
                w.pid for w in self._all
                if w.pid is not None and w.process.is_alive()
            )

    # ------------------------------------------------------------------
    def execute(
        self,
        token: str,
        spec,
        config,
        request,
        stall_seconds: float = 0.0,
        trace_ctx: Optional[dict] = None,
    ) -> ColdResult:
        """Run one analysis on an idle worker; blocks until it resolves.

        *token* is the handle :meth:`kill` targets (the scheduler uses
        the job id).  *trace_ctx* is a serialized span context
        (:meth:`repro.telemetry.tracing.Span.context`) the worker
        parents its spans on; the finished spans come back on
        ``ColdResult.spans``.  Returns a :class:`ColdResult`; never
        raises for worker-side trouble.
        """
        worker = self._idle.get()
        with self._lock:
            if self._closed or token in self._kill_requested:
                killed = token in self._kill_requested
                self._kill_requested.discard(token)
                self._idle.put(worker)
                return ColdResult(None, worker.pid, killed=killed,
                                  died=not killed)
            self._running[token] = worker
        result = None
        try:
            worker.conn.send(
                (spec, config, request, stall_seconds, trace_ctx)
            )
            result = worker.conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            result = None
        finally:
            with self._lock:
                self._running.pop(token, None)
                killed = token in self._kill_requested
                self._kill_requested.discard(token)
        if result is not None:
            self._idle.put(worker)
            return ColdResult(
                result["payload"],
                result["pid"],
                spans=tuple(result.get("spans") or ()),
            )
        # The worker is gone (terminated by kill(), or crashed).  Reap
        # it and fork a replacement so the lane keeps its capacity.
        pid = worker.pid
        worker.close()
        replacement: Optional[_Worker] = None
        with self._lock:
            if worker in self._all:
                self._all.remove(worker)
            closed = self._closed
            if not closed:
                replacement = _Worker(self._ctx)
                self._all.append(replacement)
                self.workers_restarted += 1
        if replacement is not None:
            self._idle.put(replacement)
        elif closed:
            # Recycle the dead handle so dispatchers queued behind a
            # non-drain shutdown never block on an empty idle queue —
            # the closed check up top returns it without touching its
            # pipe.
            self._idle.put(worker)
        return ColdResult(None, pid, killed=killed, died=not killed)

    # ------------------------------------------------------------------
    def kill(self, token: str) -> bool:
        """Terminate the worker running *token* (cancellation).

        Returns True when a running worker was signalled.  When the
        token is not (yet) bound — the kill raced the dispatch — it is
        remembered, and :meth:`execute` refuses to start the work.
        """
        with self._lock:
            worker = self._running.get(token)
            self._kill_requested.add(token)
        if worker is None:
            return False
        worker.terminate()
        return True

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker.  ``wait=False`` terminates mid-analysis.

        With ``wait=True`` the caller must have drained its dispatchers
        first (the scheduler joins its dispatcher pool before calling
        this), so every worker is idle and exits on the ``None``
        signal.
        """
        with self._lock:
            self._closed = True
            workers = list(self._all)
            self._all.clear()
        for worker in workers:
            if wait:
                worker.stop()
            else:
                worker.terminate()
                worker.close()

    def __enter__(self) -> "ProcessLane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
