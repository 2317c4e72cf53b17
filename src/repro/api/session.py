"""The reusable per-app analysis session.

``BackDroid(config).analyze(apk)`` rebuilt everything on every call:
search backend (and, for the indexed backend, its posting lists), the
search command cache, the store handle.  An :class:`AnalysisSession`
owns that expensive per-app state once and serves many
:class:`~repro.api.request.AnalysisRequest`\\ s against it:

* backends are constructed once per backend name and shared by every
  request, so a second request performs **zero index builds**;
* the session-wide :class:`~repro.search.caching.SearchCommandCache`
  carries search results across requests (search results depend only on
  the bytecode, never on targets or budgets, so sharing is exact);
* per-request state that affects verdicts — the sink-reachability cache
  (budget-dependent) and the loop detector — stays per run.

Reports carry **per-request deltas** of the shared backend/cache
counters, so a one-shot session reports exactly what the legacy driver
did, and a warm session's second request reports
``index_build_seconds == 0.0`` with ``index_prebuilt`` set.

``session.stream(request)`` yields progress events sink-by-sink;
``session.run(request)`` drives the stream and returns the
:class:`~repro.api.envelope.ReportEnvelope`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Iterator, Optional, Union

from repro.android.apk import Apk
from repro.api.envelope import ReportEnvelope
from repro.api.events import (
    AnalysisEvent,
    AnalysisFinished,
    SinkAnalyzed,
    SinkDiscovered,
)
from repro.api.registry import TargetRegistry
from repro.api.request import AnalysisRequest
from repro.core.backdroid import BackDroidConfig, find_sink_call_sites
from repro.core.forward import ForwardPropagation
from repro.core.report import AnalysisReport, SinkRecord
from repro.core.slicer import BackwardSlicer
from repro.search.backends import DEFAULT_BACKEND, SearchBackend, create_backend
from repro.search.caching import SearchCommandCache, SinkReachabilityCache
from repro.search.engine import CallerResolutionEngine
from repro.search.loops import LoopDetector
from repro.store import ArtifactStore
from repro.telemetry import tracing


def _index_materialized(stats: dict) -> bool:
    """Whether a backend's describe() shows an already-built index."""
    return stats.get("name") == "indexed" and bool(
        stats.get("vocab_size", 0)
        or stats.get("index_restored", False)
        or stats.get("index_build_seconds", 0.0)
    )


def _delta_backend_stats(pre: dict, post: dict, prebuilt: bool) -> dict:
    """Per-request backend statistics from before/after snapshots.

    Query counters and build time are flows (post - pre); vocabulary and
    posting sizes are state (post value).  ``index_prebuilt`` records
    that the index existed before this request began — the observable
    "no rebuild happened" signal the session-reuse contract promises.
    """
    delta = {"name": post["name"]}
    for counter in (
        "literal_queries",
        "pattern_queries",
        "token_queries",
        "fallbacks",
    ):
        delta[counter] = post.get(counter, 0) - pre.get(counter, 0)
    delta["index_build_seconds"] = max(
        0.0,
        post.get("index_build_seconds", 0.0) - pre.get("index_build_seconds", 0.0),
    )
    delta["index_restored"] = bool(
        post.get("index_restored", False) and not pre.get("index_restored", False)
    )
    delta["shards_patched"] = max(
        0, post.get("shards_patched", 0) - pre.get("shards_patched", 0)
    )
    delta["vocab_size"] = post.get("vocab_size", 0)
    delta["posting_entries"] = post.get("posting_entries", 0)
    # Laziness observables: groups decoded and bytes parsed are flows
    # (what *this request* materialized); mapped bytes are state (the
    # restore maps every shard once, on the first touching request).
    for counter in ("materialized_groups", "bytes_decoded"):
        delta[counter] = max(0, post.get(counter, 0) - pre.get(counter, 0))
    delta["bytes_mapped"] = post.get("bytes_mapped", 0)
    delta["index_prebuilt"] = prebuilt
    return delta


class AnalysisSession:
    """Many targeted analyses of one app over shared per-app state."""

    def __init__(
        self,
        apk: Apk,
        *,
        default_backend: str = DEFAULT_BACKEND,
        store: Union[str, ArtifactStore, None] = None,
        search_cache_max_entries: Optional[int] = None,
        registry: Optional[TargetRegistry] = None,
    ) -> None:
        """Open a session over one app.

        ``apk`` is the app under analysis; ``default_backend`` names the
        search backend requests fall back to; ``store`` attaches a
        warm-start artifact store (a directory path or an open
        :class:`~repro.store.ArtifactStore`); ``search_cache_max_entries``
        bounds the shared search-command cache; ``registry`` supplies
        client sink specs and detectors (defaults to the built-ins).
        """
        self.apk = apk
        self.default_backend = default_backend
        self.registry = registry if registry is not None else TargetRegistry()
        self.store = ArtifactStore(store) if isinstance(store, str) else store
        self.search_cache = SearchCommandCache(
            max_entries=search_cache_max_entries
        )
        self._backends: dict[str, SearchBackend] = {}
        self._lock = threading.RLock()
        #: Requests completed by this session.
        self.requests_served = 0
        #: Inverted-index builds this session paid for (folds, not
        #: restores) — the reuse contract keeps this at <= 1 per backend.
        self.index_builds = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        apk: Apk,
        config: Optional[BackDroidConfig] = None,
        registry: Optional[TargetRegistry] = None,
    ) -> "AnalysisSession":
        """A session carrying a legacy config's session-level knobs."""
        config = config if config is not None else BackDroidConfig()
        return cls(
            apk,
            default_backend=config.search_backend,
            store=config.artifact_store(),
            search_cache_max_entries=config.search_cache_max_entries,
            registry=registry,
        )

    # ------------------------------------------------------------------
    def backend_for(self, name: Optional[str] = None) -> SearchBackend:
        """The session's shared backend instance for *name* (built once)."""
        name = name if name is not None else self.default_backend
        with self._lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = create_backend(
                    name, self.apk.disassembly, store=self.store
                )
                self._backends[name] = backend
            return backend

    # ------------------------------------------------------------------
    def run(
        self,
        request: Optional[AnalysisRequest] = None,
        on_event: Optional[Callable[[AnalysisEvent], None]] = None,
    ) -> ReportEnvelope:
        """Serve one request; returns its envelope.

        Thread-safe: concurrent runs on one session serialize on the
        session lock (the shared caches are not otherwise synchronized).
        ``on_event`` observes the same stream ``stream()`` would yield.
        """
        with self._lock:
            envelope: Optional[ReportEnvelope] = None
            for event in self.stream(request):
                if on_event is not None:
                    on_event(event)
                if isinstance(event, AnalysisFinished):
                    envelope = event.envelope
            assert envelope is not None  # stream always terminates with one
            return envelope

    # ------------------------------------------------------------------
    def stream(
        self, request: Optional[AnalysisRequest] = None
    ) -> Iterator[AnalysisEvent]:
        """The Fig. 2 pipeline as an event stream (one request).

        Yields every :class:`SinkDiscovered` after the initial search,
        one :class:`SinkAnalyzed` per sink as it completes, and a final
        :class:`AnalysisFinished` carrying the envelope.
        """
        request = request if request is not None else AnalysisRequest()
        started = time.perf_counter()
        with tracing.span("index.prepare") as prepare_span:
            backend = self.backend_for(request.backend)
            pre_stats = backend.describe()
            prepare_span.set_attrs(
                backend=backend.name,
                prebuilt=_index_materialized(pre_stats),
            )
        prebuilt = _index_materialized(pre_stats)
        # A disabled search cache still gets a private per-run cache (the
        # legacy engine behaved the same); it just goes unreported and
        # carries nothing across requests.
        cache = (
            self.search_cache
            if request.enable_search_cache
            else SearchCommandCache()
        )
        cache_pre = (
            cache.stats.lookups,
            cache.stats.hits,
            cache.stats.evictions,
        )
        loops = LoopDetector()
        engine = CallerResolutionEngine(
            self.apk,
            cache=cache,
            loops=loops,
            backend=backend,
            store=self.store,
        )
        slicer = BackwardSlicer(
            self.apk, engine=engine, max_frames=request.max_frames
        )
        sink_cache = SinkReachabilityCache()
        report = AnalysisReport(package=self.apk.package)

        with tracing.span("search.sinks") as search_span:
            sites = find_sink_call_sites(
                self.apk,
                engine,
                request.sink_specs(self.registry),
                check_class_hierarchy=request.check_class_hierarchy,
            )
            search_span.set_attr("sites", len(sites))
            index_obj = getattr(backend, "_index", None)
            if index_obj is not None:
                # The search is what faults shard groups in, so the
                # decode counters belong on this span.
                search_span.set_attrs(
                    materialized_groups=index_obj.materialized_groups,
                    bytes_mapped=index_obj.bytes_mapped,
                    bytes_decoded=index_obj.bytes_decoded,
                )
        total = len(sites)
        for index, site in enumerate(sites):
            yield SinkDiscovered(site=site, index=index, total=total)

        # The caller-resolution stage stays open across the per-sink
        # yields, so it is opened without becoming the ambient span
        # (code running between yields must not nest under it).
        resolve_span = tracing.start_span("resolve.callers")
        for index, site in enumerate(sites):
            sink_started = time.perf_counter()
            record = SinkRecord(site=site, reachable=False)
            cached_verdict = (
                sink_cache.lookup(site.method)
                if request.enable_sink_cache
                else None
            )
            if cached_verdict is False:
                # Sec. IV-F: the hosting method is known-unreachable.
                record.cached = True
                record.duration_seconds = time.perf_counter() - sink_started
                report.records.append(record)
                yield SinkAnalyzed(record=record, index=index, total=total)
                continue
            ssg = slicer.slice_sink(site)
            record.reachable = ssg.reached_entry
            record.ssg_size = len(ssg)
            record.entry_points = tuple(
                sorted(str(e) for e in ssg.entry_points)
            )
            if request.enable_sink_cache:
                sink_cache.store(site.method, ssg.reached_entry)
            if ssg.reached_entry:
                facts = ForwardPropagation(self.apk, ssg).run()
                record.facts_repr = {k: str(v) for k, v in facts.items()}
                detector = self.registry.detector_for(site.spec.rule)
                if detector is not None:
                    record.finding = detector.evaluate(
                        facts, site.method, site.stmt_index, self.apk.full_pool
                    )
            if request.collect_ssg_dumps:
                report.notes.append(ssg.render())
            record.duration_seconds = time.perf_counter() - sink_started
            report.records.append(record)
            yield SinkAnalyzed(record=record, index=index, total=total)

        resolve_span.set_attrs(
            sinks=len(sites),
            reachable=sum(1 for r in report.records if r.reachable),
            cached=sum(1 for r in report.records if r.cached),
        )
        resolve_span.end()
        report.analysis_seconds = time.perf_counter() - started
        if request.enable_search_cache:
            lookups = cache.stats.lookups - cache_pre[0]
            hits = cache.stats.hits - cache_pre[1]
            report.search_cache_rate = hits / lookups if lookups else 0.0
            report.search_cache_lookups = lookups
            report.search_cache_evictions = (
                cache.stats.evictions - cache_pre[2]
            )
        report.sink_cache_rate = sink_cache.stats.rate
        report.loop_counts = dict(loops.counts)
        report.search_backend = backend.name
        post_stats = backend.describe()
        report.backend_stats = _delta_backend_stats(
            pre_stats, post_stats, prebuilt
        )
        if (
            not prebuilt
            and _index_materialized(post_stats)
            and not report.backend_stats["index_restored"]
        ):
            self.index_builds += 1
        self.requests_served += 1
        yield AnalysisFinished(
            envelope=ReportEnvelope(report=report, request=request)
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Session-level reuse statistics (monitoring, tests)."""
        with self._lock:
            return {
                "package": self.apk.package,
                "default_backend": self.default_backend,
                "requests_served": self.requests_served,
                "index_builds": self.index_builds,
                "backends": {
                    name: backend.describe()
                    for name, backend in self._backends.items()
                },
                "search_cache": {
                    "entries": len(self.search_cache),
                    "lookups": self.search_cache.stats.lookups,
                    "hits": self.search_cache.stats.hits,
                    "rate": self.search_cache.stats.rate,
                },
            }


class SessionCache:
    """A bounded LRU of live sessions, keyed by app identity.

    The scheduler (and thread/serial batch runs) keep one warm session
    per app recipe, so differently-targeted jobs against the same app
    share one generated APK, one token stream and one built index.
    Sessions hold an app's whole disassembly in memory — keep the bound
    small.
    """

    def __init__(self, max_sessions: int = 4) -> None:
        """Create a cache holding at most ``max_sessions`` live sessions."""
        if max_sessions < 1:
            raise ValueError("max_sessions must be a positive integer")
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, AnalysisSession] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[AnalysisSession]:
        """The cached session for ``key`` (refreshing its LRU slot), or
        None on a miss."""
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                self.misses += 1
                return None
            self._sessions.move_to_end(key)
            self.hits += 1
            return session

    def put(self, key: str, session: AnalysisSession) -> None:
        """Insert (or refresh) ``session`` under ``key``, evicting the
        least recently used entry past the bound."""
        with self._lock:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> dict:
        """Occupancy and hit/miss/eviction counters as a JSON-able dict."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
