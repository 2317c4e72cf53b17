"""The HTTP service: one asyncio transport in front of the JSON API.

Endpoints (all JSON)::

    POST   /v1/jobs        submit an app spec -> 202 + the job record
                           (503 while the server is draining)
    GET    /v1/jobs/<id>   one job's status (and result once done)
    DELETE /v1/jobs/<id>   cancel: queued jobs cancel immediately,
                           running cold jobs' worker processes are
                           terminated, running warm jobs are marked
                           ``cancelling``
    GET    /v1/jobs        every retained job, submission order
    GET    /v1/stats       lanes, job counts, warm-hit rate, store
                           counters, the metrics registry snapshot,
                           plus the front end's own health
                           (event-loop lag, draining flag)
    GET    /metrics        the same instruments as Prometheus text
    GET    /healthz        liveness

``GET /v1/jobs/<id>?trace=1`` additionally returns the job's collected
span tree under ``"trace"`` (see :mod:`repro.telemetry.tracing`).

A ``POST /v1/jobs`` body may carry per-job analysis overrides alongside
the app spec — ``rules`` (list of rule ids), ``backend``, ``max_frames``
and ``hierarchy`` — which become an
:class:`~repro.api.request.AnalysisRequest` for that job only.
Differently-targeted submissions of one app never share a result, but
they do share the scheduler's warm per-app session underneath.  Any
other key (see :data:`SUBMISSION_KEYS`) is a 400 that names it, so a
misspelled override never silently runs the defaults.

The protocol work is written once and shared by a node and the cluster
front end (:class:`~repro.service.cluster.ClusterFrontEnd`):

* :class:`HTTPTransport` — the one HTTP/1.1 transport: a stdlib
  ``asyncio.start_server`` event loop on a daemon thread owns the
  sockets (parsing, keep-alive, request-size limits, slow-client
  timeouts) and hands every parsed request to a
  ``handle(method, target, body)`` callable on its own bounded handler
  pool, so queue locks, store probes and a front end's forwards to
  slow nodes never stall the loop.  A handler that raises is a 500.
  A lag monitor samples the event loop's scheduling delay into a
  histogram (a node's is ``backdroid_event_loop_lag_seconds``).
* :class:`HTTPRoutes` — the request conventions behind ``handle``:
  target normalization, query flags, method dispatch (501 for any
  method but GET, POST and DELETE) and submission-body decoding.
* :class:`ServiceAPI` — a node's routes over the scheduler; it also
  owns the *draining* flag that turns submissions away with 503
  during graceful shutdown.
* :class:`AnalysisServer` — a running node: the scheduler and its
  :class:`ServiceAPI` behind the transport.  With the scheduler's
  process cold lane, the service interpreter only ever runs event-loop
  bookkeeping and warm mmap-backed restores — cold CPU work lives in
  worker processes — so warm tail latency does not inflate under cold
  load.  The loop-lag percentiles are reported under
  ``stats()["server"]``.  While it serves, the heap it started with
  is frozen out of the cyclic collector, so a full collection never
  walks it on a warm job.

:class:`ServiceClient` is the matching ``urllib`` client used by tests,
CI smoke checks, scripts and the cluster router; it retries
connection-refused/reset errors with bounded exponential backoff (a
server may be restarting or mid-listen during deploys), while HTTP
errors (:class:`ServiceError`) and timeouts surface immediately.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _http_reasons
from typing import Callable, Optional
from urllib import request as urlrequest
from urllib.error import HTTPError, URLError

from repro.api.registry import builtin_rules
from repro.api.request import (
    REQUEST_OVERRIDE_KEYS,
    AnalysisRequest,
    analysis_request_from_payload,
)
from repro.service.jobs import (
    CANCEL_CONFLICT,
    CANCEL_TERMINAL,
    CANCEL_UNKNOWN,
    TERMINAL_STATES,
)
from repro.service.scheduler import StoreAwareScheduler
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import Histogram
from repro.workload.corpus import app_spec_from_request

_log = get_logger("repro.service.server")

#: Content type of the ``GET /metrics`` exposition body.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Event-loop lag histogram buckets (seconds): lag is healthy in the
#: sub-millisecond range and pathological past tens of milliseconds.
LAG_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: The keys a node accepts in a ``POST /v1/jobs`` body: the app spec,
#: the per-job overrides and a cluster front end's trace context.
SUBMISSION_KEYS = frozenset(
    ("app", "scale", "year", "index", *REQUEST_OVERRIDE_KEYS, "trace")
)

#: Largest request body a submission may carry (a spec is tiny; anything
#: bigger is a client error, not a payload to buffer).
MAX_BODY_BYTES = 64 * 1024

#: Most header lines one request may carry (``http.client``'s cap);
#: a single line is bounded by the stream's 64 KiB limit.
MAX_HEADERS = 100

#: Per-read timeouts: a client that stalls mid-request (or goes quiet
#: between keep-alive requests) must not pin a connection handler
#: forever.
IO_TIMEOUT_SECONDS = 30.0

#: How often the lag monitor samples the event loop's scheduling delay.
LAG_SAMPLE_INTERVAL = 0.05

#: Handler threads per transport.  A front end's handler blocks on a
#: node for up to its client timeout, so the pool is sized past the
#: event loop's default executor (at most 32 threads): a front end
#: with that many forwards stuck on a hung node still answers
#: ``/healthz``.  Threads are spawned only as concurrency needs them.
HANDLER_THREADS = 64


class ServiceError(ValueError):
    """An HTTP error answer: ``status`` and its client-facing message.

    :class:`ServiceClient` raises it when the service answers an error
    status (a ``ValueError``, so callers that predate it still catch
    it); the transport raises it to refuse a request it cannot parse.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HTTPRoutes:
    """The request conventions shared by every handler served over HTTP.

    :meth:`handle` maps ``(method, target, body)`` to ``(status,
    payload, close)``: it drops a trailing slash from the path, splits
    the query into flags (a bare ``?name`` reads as ``name=1``) and
    dispatches to the subclass's ``_get(path, query)``,
    ``_post(path, body)`` and ``_delete(path)``; any other method is a
    501.  ``payload`` is a JSON-able dict, or a ``str`` for the
    Prometheus text body.  ``close`` asks the transport to drop the
    connection after responding — set on every error so a keep-alive
    client never parses leftover bytes as its next response.
    """

    def handle(
        self, method: str, target: str, body: Optional[bytes] = None
    ) -> tuple[int, object, bool]:
        """Route one request; returns ``(status, payload, close)``."""
        path, _, query_text = target.partition("?")
        path = path.rstrip("/") or "/"
        query = {}
        for pair in query_text.split("&"):
            name, sep, value = pair.partition("=")
            if name:
                query[name] = value if sep else "1"
        if method == "GET":
            return self._get(path, query)
        if method == "POST":
            return self._post(path, body)
        if method == "DELETE":
            return self._delete(path)
        return 501, {"error": f"unsupported method {method!r}"}, True

    @staticmethod
    def _flag(query: dict, name: str) -> bool:
        return query.get(name, "").lower() in ("1", "true", "yes")

    @staticmethod
    def _submission(body: Optional[bytes]) -> dict:
        """The ``POST /v1/jobs`` object; ``ValueError`` (a 400) if the
        body is not a small JSON object."""
        if not body or len(body) > MAX_BODY_BYTES:
            raise ValueError("submission body required (a small JSON object)")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            raise ValueError("submission body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ValueError("submission body must be a JSON object")
        return payload


class ServiceAPI(HTTPRoutes):
    """A node's routes over one scheduler.

    ``extra_stats`` (when given) contributes the front end's own health
    under ``/v1/stats``'s ``server`` key.
    """

    def __init__(
        self,
        scheduler: StoreAwareScheduler,
        extra_stats: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.extra_stats = extra_stats
        #: While True (graceful shutdown in progress) submissions are
        #: rejected with 503; reads and cancels keep working so clients
        #: can collect results from the drain.
        self.draining = False
        self._m_requests = scheduler.metrics.counter(
            "backdroid_http_requests_total",
            "HTTP requests served, by method and status.",
            ("method", "status"),
        )

    # ------------------------------------------------------------------
    def handle(
        self, method: str, target: str, body: Optional[bytes] = None
    ) -> tuple[int, object, bool]:
        """Route one request (see :class:`HTTPRoutes`) and count it."""
        result = super().handle(method, target, body)
        self._m_requests.inc(method=method, status=str(result[0]))
        return result

    def _get(self, path: str, query: dict) -> tuple[int, object, bool]:
        scheduler = self.scheduler
        if path == "/healthz":
            return 200, {"ok": True}, False
        if path == "/metrics":
            return 200, scheduler.metrics.render_prometheus(), False
        if path == "/v1/stats":
            payload = scheduler.stats()
            payload["server"] = (
                self.extra_stats() if self.extra_stats is not None else None
            )
            return 200, payload, False
        if path == "/v1/jobs":
            return 200, {"jobs": scheduler.queue.snapshots()}, False
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            snapshot = scheduler.queue.snapshot(
                job_id, include_trace=self._flag(query, "trace")
            )
            if snapshot is None:
                return 404, {"error": f"unknown or evicted job {job_id!r}"}, True
            return 200, snapshot, False
        return 404, {"error": f"no such endpoint {path!r}"}, True

    def _post(
        self, path: str, body: Optional[bytes]
    ) -> tuple[int, dict, bool]:
        if path != "/v1/jobs":
            return 404, {"error": f"no such endpoint {path!r}"}, True
        if self.draining:
            return (
                503,
                {"error": "service is draining; not accepting submissions"},
                True,
            )
        scheduler = self.scheduler
        try:
            payload = self._submission(body)
            unknown = sorted(set(payload) - SUBMISSION_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown submission key(s) {unknown}: "
                    f"choose from {sorted(SUBMISSION_KEYS)}"
                )
            spec = app_spec_from_request(payload)
            request = analysis_request_from_payload(
                payload,
                known_rules=self._known_rules(),
                # Overrides layer onto the *service's* configuration, so
                # a body naming only e.g. max_frames keeps the
                # operator's rule selection.
                defaults=AnalysisRequest.from_config(scheduler.config),
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}, True
        parent_trace = payload.get("trace")
        if parent_trace is not None and not (
            isinstance(parent_trace, dict)
            and isinstance(parent_trace.get("trace_id"), str)
            and isinstance(parent_trace.get("span_id"), str)
        ):
            return (
                400,
                {
                    "error": (
                        "trace must be a serialized span context: "
                        '{"trace_id": ..., "span_id": ...}'
                    )
                },
                True,
            )
        try:
            job = scheduler.submit(
                spec, request=request, parent_trace=parent_trace
            )
        except RuntimeError as exc:  # shut down mid-flight
            return 503, {"error": str(exc)}, True
        # A fast-lane job can finish — and, under a tiny retention
        # bound, even be evicted — before this snapshot; the job record
        # itself is always a valid response body.
        snapshot = scheduler.queue.snapshot(job.id)
        return 202, snapshot if snapshot is not None else job.as_dict(), False

    def _delete(self, path: str) -> tuple[int, dict, bool]:
        if not path.startswith("/v1/jobs/"):
            return 404, {"error": f"no such endpoint {path!r}"}, True
        job_id = path[len("/v1/jobs/"):]
        job, disposition = self.scheduler.cancel(job_id)
        if disposition == CANCEL_UNKNOWN:
            return 404, {"error": f"unknown or evicted job {job_id!r}"}, True
        if disposition == CANCEL_TERMINAL:
            return 409, {"error": f"job {job_id} already {job.state}"}, True
        if disposition == CANCEL_CONFLICT:
            return (
                409,
                {
                    "error": (
                        f"job {job_id} is shared by coalesced submissions; "
                        f"cancel those followers instead"
                    )
                },
                True,
            )
        # cancelled now, or cancelling while the worker is reaped
        snapshot = self.scheduler.queue.snapshot(job_id)
        return 200, snapshot if snapshot is not None else job.as_dict(), False

    def _known_rules(self) -> tuple[str, ...]:
        """The rule ids submissions may target on this service."""
        if self.scheduler.registry is not None:
            return self.scheduler.registry.rules
        return builtin_rules()


class HTTPTransport:
    """One HTTP/1.1 listener in front of a ``handle(method, target, body)``.

    ``port=0`` binds an ephemeral port; the listening socket is bound
    eagerly, so :attr:`address` is authoritative before :meth:`start`.
    The event loop runs on a daemon thread.  Coroutines own the
    sockets; every parsed request runs ``handle`` on the transport's
    own pool of up to :data:`HANDLER_THREADS` threads, and its
    ``(status, payload, close)`` becomes the response.  A request line
    or header line past the stream's 64 KiB limit is a 414 or 431, more
    than :data:`MAX_HEADERS` header lines a 431, and a bad or oversized
    ``Content-Length`` a 400 — each answered unread, with the
    connection closed.  ``lag_histogram`` observes every lag-monitor
    sample and its recent window feeds :meth:`lag_seconds`; without
    one, the samples go to a histogram no registry exports.
    """

    def __init__(
        self,
        handle: Callable[[str, str, bytes], tuple],
        host: str = "127.0.0.1",
        port: int = 0,
        lag_histogram=None,
    ) -> None:
        self.handle = handle
        self._sock = socket.create_server((host, port), backlog=128)
        self._pool = ThreadPoolExecutor(
            HANDLER_THREADS, thread_name_prefix="backdroid-handler"
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: Event-loop scheduling delays (seconds over the monitor's
        #: intended sleep).
        self._lag_histogram = lag_histogram or Histogram(
            "event_loop_lag_seconds", "", buckets=LAG_BUCKETS
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative even for ``port=0``."""
        name = self._sock.getsockname()
        return name[0], name[1]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start serving on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="backdroid-asyncio", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error

    def join(self) -> None:
        """Block the caller until the event-loop thread exits."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Close the listener and every connection.

        Safe on a never-started transport (only the bound socket is
        released).  Handlers still running finish on their pool
        threads; their responses are dropped with the connections.
        """
        if self._thread is not None:
            loop, stop = self._loop, self._stop
            if loop is not None and stop is not None:
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:
                    pass  # loop already closed
            self._thread.join()
            self._thread = None
        else:
            self._sock.close()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        except Exception as exc:  # bind/registration failure
            self._startup_error = exc
            self._started.set()
            return
        lag_task = asyncio.ensure_future(self._monitor_loop_lag())
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            lag_task.cancel()
            server.close()
            await server.wait_closed()
            current = asyncio.current_task()
            pending = [t for t in asyncio.all_tasks() if t is not current]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: parse, dispatch, respond, keep alive."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServiceError as exc:
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    return
                if request is None:
                    return
                method, target, keep_alive, body = request
                status, payload, close = await loop.run_in_executor(
                    self._pool, self._call, method, target, body
                )
                close = close or not keep_alive
                ok = await self._respond(writer, status, payload, close=close)
                if close or not ok:
                    return
        except asyncio.CancelledError:
            # Shutdown cancels every open connection, idle keep-alive
            # ones included.  Returning instead of raising keeps
            # Python 3.11's stream callback from logging the
            # cancellation as an unhandled exception.
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A cancel landing here would end the task cancelled,
                # and the stream callback's log record of it would keep
                # the stopped server alive through its traceback.
                pass

    async def _read_request(self, reader) -> Optional[tuple]:
        """Parse one request: ``(method, target, keep_alive, body)``.

        None when the client closed, stalled past the I/O timeout or
        sent less body than it announced.  Raises :class:`ServiceError`
        for a request refused before its body is read.
        """
        try:
            line = b"\r\n"
            while line and not line.strip():  # stray CRLF between requests
                line = await self._read_line(reader, 414, "request line")
            if not line:
                return None  # the client closed the connection
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                raise ServiceError(400, "malformed request line")
            method, target, version = parts
            headers: dict[str, str] = {}
            for _ in range(MAX_HEADERS + 1):
                line = await self._read_line(reader, 431, "header line")
                if not line:
                    return None
                if line in (b"\r\n", b"\n"):
                    break
                name, sep, value = line.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            else:
                raise ServiceError(
                    431, f"more than {MAX_HEADERS} header lines"
                )
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                raise ServiceError(400, "bad Content-Length") from None
            if length < 0 or length > MAX_BODY_BYTES:
                raise ServiceError(
                    400, "submission body required (a small JSON object)"
                )
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=IO_TIMEOUT_SECONDS
                )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            return None
        keep_alive = (
            version != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        return method, target, keep_alive, body

    @staticmethod
    async def _read_line(reader, status: int, what: str) -> bytes:
        """One line; ``status`` refuses a line past the stream limit."""
        try:
            return await asyncio.wait_for(
                reader.readline(), timeout=IO_TIMEOUT_SECONDS
            )
        except ValueError:  # LimitOverrunError, as readline reports it
            raise ServiceError(status, f"{what} too long") from None

    def _call(self, method: str, target: str, body: bytes) -> tuple:
        """``handle`` on a pool thread; a handler that raises is a 500."""
        try:
            return self.handle(method, target, body)
        except Exception as exc:
            _log.warning(
                "handler error on %s %s", method, target, exc_info=True
            )
            return 500, {"error": f"internal error: {exc}"}, True

    @staticmethod
    async def _respond(writer, status: int, payload, close: bool) -> bool:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_http_reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        head += "\r\n"
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    # ------------------------------------------------------------------
    async def _monitor_loop_lag(self) -> None:
        """Sample how late the loop wakes a timed sleep (GIL pressure).

        With cold work in worker processes it stays flat; a handler or
        thread that hogs the GIL shows up here first.
        """
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_SAMPLE_INTERVAL)
            self._lag_histogram.observe(
                max(0.0, loop.time() - before - LAG_SAMPLE_INTERVAL)
            )

    def lag_seconds(self) -> dict:
        """Event-loop lag percentiles over the recent samples."""
        # The histogram's window and quantile helper: sub-two-sample
        # windows report null (a fresh server has no lag distribution
        # yet, not a zero one).
        lag = self._lag_histogram
        return {
            "p50": lag.quantile(0.50),
            "p99": lag.quantile(0.99),
            "max": lag.quantile(1.0),
        }


class AnalysisServer:
    """A running analysis service: scheduler + :class:`HTTPTransport`.

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` — the listening socket is bound eagerly in the
    constructor, so the address is authoritative before :meth:`start`.
    The event loop runs on a daemon thread, so ``serve_forever``
    semantics stay with the caller (:meth:`join` blocks on it; the CLI
    waits for SIGTERM/SIGINT, tests just use the context manager).
    """

    def __init__(
        self,
        scheduler: StoreAwareScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Bind the listener (not yet serving) over ``scheduler``."""
        self.scheduler = scheduler
        self._froze_heap = False
        self.api = ServiceAPI(scheduler, extra_stats=self._server_stats)
        self._transport = HTTPTransport(
            self.api.handle,
            host,
            port,
            lag_histogram=scheduler.metrics.histogram(
                "backdroid_event_loop_lag_seconds",
                "Event-loop scheduling delay per lag-monitor sample.",
                buckets=LAG_BUCKETS,
            ),
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative even for ``port=0``."""
        return self._transport.address

    def _server_stats(self) -> dict:
        return {
            "loop": "asyncio",
            "draining": self.api.draining,
            "event_loop_lag_seconds": self._transport.lag_seconds(),
        }

    # ------------------------------------------------------------------
    def start(self) -> "AnalysisServer":
        """Start serving on a daemon thread; returns self for chaining.

        Once serving, the interpreter's heap as it stands (modules,
        classes, the scheduler) is frozen out of the cyclic collector
        (:func:`gc.freeze`).  A full collection would otherwise walk
        all of it on whichever warm job triggers one, stalling that job
        and the event loop for 10-20 ms; frozen, it walks only what the
        service allocated since.  :meth:`shutdown` unfreezes it.
        """
        self._transport.start()
        gc.freeze()
        self._froze_heap = True
        return self

    def join(self) -> None:
        """Block the caller until the event-loop thread exits."""
        self._transport.join()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting submissions and wait for in-flight jobs.

        Sets the 503-on-submit draining flag (reads and cancels keep
        working), then blocks until every queued/running job reaches a
        terminal state or *timeout* elapses.  Returns True when the
        queue went idle — the caller then shuts down with
        ``drain=True``; on False, ``drain=False`` abandons the stragglers.
        """
        self.api.draining = True
        return self.scheduler.queue.wait_idle(timeout)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the listener, then (with ``drain``) finish queued jobs.

        Ordering matters: closing the listener first guarantees no new
        submissions race the drain, so every job accepted before
        shutdown reaches a terminal state.  Safe on a never-started
        server (only the bound socket is released).
        """
        self._transport.stop()
        self.scheduler.shutdown(wait=drain)
        # The stats callback is a bound method of this server, held by
        # the API this server holds: drop it so a stopped server, its
        # scheduler and the scheduler's session cache are freed by
        # reference counting, not left to a full cyclic collection.
        self.api.extra_stats = None
        if self._froze_heap:
            gc.unfreeze()
            self._froze_heap = False

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)


class ServiceClient:
    """Minimal ``urllib`` client for the service API (tests, CI, scripts).

    Every request carries ``timeout``; connection-establishment
    failures (refused/reset — a restarting or still-binding server) are
    retried up to ``retries`` times with exponential backoff starting
    at ``backoff_seconds``.  HTTP error statuses and read timeouts are
    *not* retried — they mean the server answered (or accepted) the
    request, and submissions are not idempotent.

    With multiple ``endpoints`` (a cluster of nodes, or a front end
    plus direct node fallbacks), a connection failure **rotates** to
    the next endpoint immediately — a reset against a draining node is
    the next host's problem, not a reason to burn backoff budget —
    and only once every endpoint has failed in a row does the client
    sleep and consume a retry.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_seconds: float = 0.1,
        endpoints: Optional[list] = None,
    ) -> None:
        """Point the client at ``host:port`` — or a list of
        ``(host, port)`` ``endpoints`` tried in rotation."""
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if endpoints:
            self.endpoints = [(h, int(p)) for h, p in endpoints]
        elif host is not None and port is not None:
            self.endpoints = [(host, int(port))]
        else:
            raise ValueError("pass host/port or a non-empty endpoints list")
        self._endpoint_index = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        #: Connection-error retries performed over this client's
        #: lifetime (observability for tests and scripts).
        self.retries_used = 0
        #: Endpoint rotations after connection failures (failovers).
        self.rotations = 0

    @property
    def base_url(self) -> str:
        host, port = self.endpoints[self._endpoint_index]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    @staticmethod
    def _is_connection_error(exc: Exception) -> bool:
        """True for errors where the request never reached the server."""
        if isinstance(exc, ConnectionError):
            return True
        if isinstance(exc, URLError):
            # Timeouts (socket.timeout is TimeoutError) mean the server
            # may have the request — never resubmit those.
            return isinstance(
                exc.reason, ConnectionError
            ) and not isinstance(exc.reason, TimeoutError)
        return False

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        retries: Optional[int] = None,
        raw: bool = False,
    ) -> tuple[int, object]:
        """One request; ``retries`` overrides the client default (0 for
        the retry-free read paths) and ``raw`` returns the body text
        instead of parsed JSON (the ``/metrics`` exposition)."""
        max_retries = self.retries if retries is None else retries
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempt = 0
        failed_in_row = 0
        while True:
            # Rebuilt per attempt: a rotation changes the base url.
            req = urlrequest.Request(
                self.base_url + path, data=data, headers=headers,
                method=method,
            )
            try:
                with urlrequest.urlopen(req, timeout=self.timeout) as response:
                    body = response.read()
                    if raw:
                        return response.status, body.decode("utf-8", "replace")
                    return response.status, json.loads(body or b"{}")
            except HTTPError as exc:
                body = exc.read()
                if raw:
                    return exc.code, body.decode("utf-8", "replace")
                try:
                    return exc.code, json.loads(body or b"{}")
                except json.JSONDecodeError:
                    return exc.code, {"error": body.decode("utf-8", "replace")}
            except (URLError, ConnectionError) as exc:
                if not self._is_connection_error(exc):
                    raise
                failed_in_row += 1
                if len(self.endpoints) > 1:
                    self._endpoint_index = (
                        self._endpoint_index + 1
                    ) % len(self.endpoints)
                    self.rotations += 1
                    if failed_in_row < len(self.endpoints):
                        continue  # next endpoint, no backoff consumed
                if attempt >= max_retries:
                    raise
                time.sleep(self.backoff_seconds * (2 ** attempt))
                attempt += 1
                self.retries_used += 1
                failed_in_row = 0

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` liveness payload (``{\"ok\": true}``)."""
        return self._request("GET", "/healthz")[1]

    def submit(self, request_payload: dict) -> dict:
        """Submit a spec; raises :class:`ServiceError` on an error
        status (a 400 for a bad spec, a 503 from a draining service)."""
        status, payload = self._request("POST", "/v1/jobs", request_payload)
        if status >= 400:
            raise ServiceError(status, payload.get("error", f"HTTP {status}"))
        return payload

    def job(self, job_id: str, trace: bool = False) -> Optional[dict]:
        """One job's snapshot, or None for unknown/evicted ids.  Pass
        ``trace=True`` to include the recorded span tree (``?trace=1``)."""
        path = f"/v1/jobs/{job_id}" + ("?trace=1" if trace else "")
        status, payload = self._request("GET", path)
        return None if status == 404 else payload

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; raises ``KeyError`` on unknown ids and
        :class:`ServiceError` when the job cannot be cancelled (already
        terminal, or shared by coalesced submissions)."""
        status, payload = self._request("DELETE", f"/v1/jobs/{job_id}")
        if status == 404:
            raise KeyError(f"unknown or evicted job {job_id!r}")
        if status >= 400:
            raise ServiceError(status, payload.get("error", f"HTTP {status}"))
        return payload

    def jobs(self) -> list[dict]:
        """Every retained job snapshot, in submission order."""
        return self._request("GET", "/v1/jobs")[1]["jobs"]

    def stats(self) -> dict:
        """The ``/v1/stats`` payload: lanes, jobs, warm rate, store,
        and the embedded metrics snapshot.  Read-only
        observability path: never retried, so a probe during shutdown
        fails fast instead of backing off."""
        return self._request("GET", "/v1/stats", retries=0)[1]

    def metrics(self) -> str:
        """The raw Prometheus exposition text from ``/metrics``.
        Retry-free like :meth:`stats`; raises :class:`ServiceError` on
        an error status."""
        status, body = self._request("GET", "/metrics", retries=0, raw=True)
        if status >= 400:
            raise ServiceError(status, f"HTTP {status}: {body.strip()}")
        return body

    def wait(
        self, job_id: str, timeout: float = 30.0, poll_seconds: float = 0.05
    ) -> dict:
        """Poll a job to a terminal state over HTTP."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot is None:
                raise KeyError(f"unknown or evicted job {job_id!r}")
            if snapshot["state"] in TERMINAL_STATES:
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            time.sleep(poll_seconds)
