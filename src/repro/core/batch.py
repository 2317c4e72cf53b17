"""Corpus-scale batch analysis: many apps, one worker pool.

The paper vets one app at a time; serving corpus-scale traffic means
analyzing thousands.  This driver fans a list of generatable
:class:`~repro.workload.generator.AppSpec` recipes across a
``concurrent.futures`` pool (threads by default; processes for CPU-bound
corpora — the worker is a module-level function precisely so it
pickles), collects one compact :class:`AppOutcome` per app, and
aggregates the statistics the paper reports per app (analysis time,
command/sink cache rates, findings) across the whole run.

A failing app never aborts the batch: its exception is captured in
``AppOutcome.error`` and surfaces in the aggregate failure count,
mirroring how the paper's corpus runs tolerate per-app analyzer errors
(Sec. VI-C).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import statistics
import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.android.apk import render_disassembly
from repro.core.backdroid import BackDroidConfig
from repro.dex.disassembler import RestoredDisassembly
from repro.store import WARM_LEVELS, ArtifactStore, store_key
from repro.telemetry import tracing
from repro.workload.generator import AppSpec, generate_app, spec_fingerprint

#: Executor kinds selectable from the CLI.
EXECUTORS = ("thread", "process", "serial")


@dataclass(frozen=True)
class AppOutcome:
    """One app's per-run summary (cheap to pickle across processes)."""

    package: str
    seconds: float = 0.0
    method_count: int = 0
    sink_count: int = 0
    reachable_sinks: int = 0
    findings: tuple[tuple[str, str], ...] = ()  # (rule, class)
    search_cache_rate: float = 0.0
    search_cache_evictions: int = 0
    sink_cache_rate: float = 0.0
    backend: str = "linear"
    #: Served whole from the warm-start store (``seconds`` is then the
    #: restore time, not an analysis time).
    store_hit: bool = False
    #: The indexed backend restored its posting lists instead of folding
    #: the token stream.
    index_restored: bool = False
    #: Shard groups the store re-folded during a warm-partial restore
    #: (0 for cold builds and full-shard restores).
    shards_patched: int = 0
    #: Time this run spent building an inverted index (0.0 whenever the
    #: index was restored, the outcome was served from the store, or the
    #: linear backend ran).
    index_build_seconds: float = 0.0
    #: Shard groups a lazy restore decoded for this app's queries (0
    #: for cold builds and eager restores).
    materialized_groups: int = 0
    #: Shard bytes mmapped by this app's lazy restore.
    bytes_mapped: int = 0
    #: Shard bytes actually decoded; ``bytes_mapped - bytes_decoded``
    #: is what laziness avoided parsing.
    bytes_decoded: int = 0
    #: Which dispatch lane ran the app (store-aware scheduling).
    lane: str = "main"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    @property
    def vulnerable(self) -> bool:
        return bool(self.findings)


def outcome_payload(outcome: AppOutcome) -> dict:
    """A JSON-able snapshot of one outcome (store entries, service
    results, ``--json`` output).

    Carries the shared envelope ``schema_version`` so every serialized
    result in the system — full report envelopes, store outcomes, HTTP
    job payloads — is versioned by one constant.
    """
    from repro.api.envelope import SCHEMA_VERSION

    payload = dataclasses.asdict(outcome)
    payload["findings"] = [list(f) for f in outcome.findings]
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def _outcome_from_payload(payload: dict) -> AppOutcome:
    """Rebuild an outcome from its stored snapshot (raises on mismatch)."""
    from repro.api.envelope import SCHEMA_VERSION

    kwargs = dict(payload)
    if kwargs.pop("schema_version", None) != SCHEMA_VERSION:
        raise ValueError("outcome payload schema_version mismatch")
    names = {f.name for f in dataclasses.fields(AppOutcome)}
    if not names.issuperset(kwargs):
        raise ValueError("unknown outcome fields in store payload")
    kwargs["findings"] = tuple(
        (str(rule), str(cls)) for rule, cls in kwargs.get("findings", ())
    )
    return AppOutcome(**kwargs)


def _outcome_fingerprint(config: BackDroidConfig, registry=None) -> str:
    """The store key suffix finished outcomes are cached under.

    A custom registry changes detectors (and hence findings), so its
    fingerprint must key the outcome cache alongside the config's.
    """
    fingerprint = config.store_fingerprint()
    if registry is not None:
        fingerprint = hashlib.sha256(
            f"{fingerprint}|{registry.fingerprint()}".encode()
        ).hexdigest()[:16]
    return fingerprint


def _restore_outcome(
    store: ArtifactStore, key: str, fingerprint: str, package: str, via: str
) -> Optional[AppOutcome]:
    """The stored outcome for content ``key`` under outcome
    ``fingerprint``, ready to serve, or None on any miss.

    A missing, corrupt or schema-stale snapshot is a miss, and so is
    one recorded for another package: a specmap entry is trusted only
    as far as the outcome it leads to names the requested app.  ``via``
    (``"specmap"`` or ``"disassembly"``) says how ``key`` was resolved.
    """
    with tracing.span("store.outcome_restore", attrs={"via": via}) as span:
        started = time.perf_counter()
        payload = store.load_outcome(key, fingerprint)
        restored = None
        if payload is not None:
            try:
                restored = _outcome_from_payload(payload)
            except (TypeError, ValueError):
                pass  # corrupt snapshot: the caller re-analyzes
        if restored is not None and restored.package != package:
            restored = None
        span.set_attr("hit", restored is not None)
        if restored is None:
            return None
        return dataclasses.replace(
            restored,
            seconds=time.perf_counter() - started,
            store_hit=True,
            index_build_seconds=0.0,
        )


def _restore_disassembly(store: ArtifactStore, key: str, apk) -> None:
    """Give ``apk`` its disassembly rebuilt from the store entry at
    ``key`` (resolved through the specmap), when the store can vouch
    for it, or the render that healed a damaged entry; otherwise leave
    it to render on first use."""
    with tracing.span("disassemble", attrs={"via": "store"}) as span:
        restored = store.load_disassembly(
            key, apk.classes, functools.partial(render_disassembly, apk.classes)
        )
        span.set_attr("hit", isinstance(restored, RestoredDisassembly))
    if restored is not None:
        apk.disassembly = restored


def key_app(
    store: ArtifactStore,
    fingerprint: str,
    mapped_key: Optional[str],
    apk,
    restore: bool = True,
) -> str:
    """The content key of ``apk``'s disassembly, which ``restore``
    first rebuilds from ``mapped_key``'s entry, the specmap's key for
    the recipe ``fingerprint``.  A key that differs is taught to the
    specmap, so probes and later runs resolve the recipe without
    generating it."""
    if restore and mapped_key is not None:
        _restore_disassembly(store, mapped_key, apk)
    key = store_key(apk.disassembly)
    if key != mapped_key:
        store.save_spec_key(fingerprint, key)
    return key


def analyze_spec(
    spec: AppSpec,
    config: Optional[BackDroidConfig] = None,
    request=None,
    sessions=None,
    registry=None,
) -> AppOutcome:
    """Generate and analyze one app; never raises (errors are captured).

    With a ``"full"``-mode store configured, a finished outcome for the
    same bytecode and config is restored instead of re-analyzed; the
    returned outcome then has ``store_hit`` set and reports the restore
    time as its ``seconds``.  The recipe's specmap entry is tried first:
    when it leads to a valid outcome for this package, the app is never
    generated or rendered.  Otherwise the app is generated, its content
    key computed, and the lookup retried under that key whenever the
    specmap had no entry or a different one (a node whose specmap
    writes are guarded off, or identical bytecode from another recipe).

    When the specmap resolves the recipe but no outcome is served (an
    ``"index"``-mode store, or a full-mode run under new rules), the
    app's disassembly is rebuilt from the entry's shards instead of
    rendered (:meth:`~repro.store.ArtifactStore.load_disassembly`); the
    app is still generated, because the slicer needs its IR.

    ``request`` (an :class:`~repro.api.request.AnalysisRequest`)
    overrides the config's targets/knobs for this run.  ``sessions`` (a
    :class:`~repro.api.session.SessionCache`) lets repeated runs against
    one recipe — including differently-targeted ones — share a warm
    :class:`~repro.api.session.AnalysisSession` instead of regenerating
    and re-indexing the app.  ``registry`` threads client sink specs and
    detectors into the session.
    """
    from repro.api.request import AnalysisRequest
    from repro.api.session import AnalysisSession

    config = config if config is not None else BackDroidConfig()
    effective = request.to_config(config) if request is not None else config
    try:
        fingerprint = spec_fingerprint(spec)
        store = effective.artifact_store()
        outcome_fp = _outcome_fingerprint(effective, registry)
        reuse_outcomes = store is not None and effective.store_mode == "full"
        mapped_key = (
            store.load_spec_key(fingerprint) if store is not None else None
        )
        if mapped_key is not None and reuse_outcomes:
            restored = _restore_outcome(
                store, mapped_key, outcome_fp, spec.package, "specmap"
            )
            if restored is not None:
                return restored
        # Sessions are only interchangeable when every session-level
        # input matches: the app recipe, the registry driving sink
        # specs/detectors, and the config knobs the session captures at
        # construction (store, cache bound).  Keying on all of them
        # keeps a shared cache correct across differently-configured
        # callers.
        cache_key = "|".join((
            fingerprint,
            registry.fingerprint() if registry is not None else "default",
            repr(effective.store_dir),
            repr(effective.store_mode),
            repr(effective.search_cache_max_entries),
        ))
        session = sessions.get(cache_key) if sessions is not None else None
        with tracing.span(
            "app.generate",
            attrs={"package": spec.package, "session_reused": session is not None},
        ):
            apk = session.apk if session is not None else generate_app(spec).apk
        if store is not None:
            key = key_app(
                store, fingerprint, mapped_key, apk, restore=session is None
            )
            if key != mapped_key and reuse_outcomes:
                # Retry the lookup the specmap could not answer.
                restored = _restore_outcome(
                    store, key, outcome_fp, spec.package, "disassembly"
                )
                if restored is not None:
                    return restored
        if session is None:
            session = AnalysisSession.from_config(
                apk, effective, registry=registry
            )
            if sessions is not None:
                sessions.put(cache_key, session)
        run_request = (
            request
            if request is not None
            else AnalysisRequest.from_config(effective)
        )
        if run_request.backend is None:
            # Pin the backend explicitly: a cached session may carry a
            # different default than this run's config.
            run_request = dataclasses.replace(
                run_request, backend=effective.search_backend
            )
        report = session.run(run_request).report
        outcome = AppOutcome(
            package=apk.package,
            seconds=report.analysis_seconds,
            method_count=apk.method_count(),
            sink_count=report.sink_count,
            reachable_sinks=report.reachable_sink_count,
            findings=tuple(
                (f.rule, f.method.class_name) for f in report.findings
            ),
            search_cache_rate=report.search_cache_rate,
            search_cache_evictions=report.search_cache_evictions,
            sink_cache_rate=report.sink_cache_rate,
            backend=report.search_backend,
            index_restored=bool(
                report.backend_stats.get("index_restored", False)
            ),
            shards_patched=int(
                report.backend_stats.get("shards_patched", 0)
            ),
            index_build_seconds=float(
                report.backend_stats.get("index_build_seconds", 0.0)
            ),
            materialized_groups=int(
                report.backend_stats.get("materialized_groups", 0)
            ),
            bytes_mapped=int(report.backend_stats.get("bytes_mapped", 0)),
            bytes_decoded=int(report.backend_stats.get("bytes_decoded", 0)),
        )
        if reuse_outcomes:
            store.save_outcome(key, outcome_fp, outcome_payload(outcome))
        return outcome
    except Exception as exc:  # noqa: BLE001 - batch isolation by design
        return AppOutcome(
            package=spec.package, error=f"{type(exc).__name__}: {exc}"
        )


def probe_spec(
    spec: AppSpec,
    store: Optional[ArtifactStore],
    config_fingerprint: Optional[str] = None,
) -> tuple[str, str]:
    """``(dedup_key, probe_level)`` for one submission, without generating.

    The dedup key is the app's disassembly sha when the store has seen
    the recipe before (so two specs producing identical bytecode
    coalesce), and a spec-fingerprint surrogate otherwise — still stable
    across duplicate submissions of the same recipe.
    """
    fingerprint = spec_fingerprint(spec)
    if store is None:
        return f"spec:{fingerprint}", "none"
    key = store.load_spec_key(fingerprint)
    if key is None:
        return f"spec:{fingerprint}", "none"
    return key, store.probe(key, config_fingerprint).level


def level_is_warm(level: str, config: BackDroidConfig) -> bool:
    """Whether a probe level means *cheap under this config*.

    An outcome-level hit (already fingerprint-matched to the config) is
    warm whenever outcomes may be reused (``"full"`` mode).  An index-
    or partial-level hit only saves work for the indexed backend — the
    linear scan never restores posting lists, so for it a stored index
    is not warmth, it is a full-cost analysis.  A *partial* hit (some
    shards present, e.g. another app already published this app's
    libraries) still rides the fast lane: composing the present shards
    and re-folding only the missing groups is far cheaper than a cold
    build.
    """
    if level not in WARM_LEVELS:
        return False
    if level == "outcome" and config.store_mode == "full":
        return True
    return config.search_backend == "indexed"


def plan_lanes(
    specs: Sequence[AppSpec], config: BackDroidConfig
) -> list[str]:
    """The store-aware lane of every spec (``"fast"`` or ``"main"``)."""
    store = config.artifact_store()
    if store is None:
        return ["main"] * len(specs)
    config_fingerprint = config.store_fingerprint()
    return [
        "fast"
        if level_is_warm(
            probe_spec(spec, store, config_fingerprint)[1], config
        )
        else "main"
        for spec in specs
    ]


@dataclass
class BatchResult:
    """Per-app outcomes plus run-level aggregates."""

    outcomes: list[AppOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    executor: str = "thread"
    backend: str = "linear"
    #: Whether a warm-start store was configured for this run (hit/miss
    #: lines are only rendered when it was).
    store_enabled: bool = False

    # ------------------------------------------------------------------
    @property
    def analyzed(self) -> list[AppOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[AppOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def app_count(self) -> int:
        return len(self.outcomes)

    @property
    def total_analysis_seconds(self) -> float:
        return sum(o.seconds for o in self.analyzed)

    @property
    def total_sinks(self) -> int:
        return sum(o.sink_count for o in self.analyzed)

    @property
    def total_findings(self) -> int:
        return sum(o.finding_count for o in self.analyzed)

    @property
    def vulnerable_apps(self) -> int:
        return sum(1 for o in self.analyzed if o.vulnerable)

    @property
    def mean_seconds(self) -> float:
        rows = self.analyzed
        return statistics.fmean(o.seconds for o in rows) if rows else 0.0

    @property
    def median_seconds(self) -> float:
        rows = self.analyzed
        return statistics.median(o.seconds for o in rows) if rows else 0.0

    @property
    def mean_search_cache_rate(self) -> float:
        rows = self.analyzed
        return (
            statistics.fmean(o.search_cache_rate for o in rows) if rows else 0.0
        )

    @property
    def mean_sink_cache_rate(self) -> float:
        rows = self.analyzed
        return (
            statistics.fmean(o.sink_cache_rate for o in rows) if rows else 0.0
        )

    @property
    def store_hits(self) -> int:
        """Apps whose finished outcome was served from the warm store."""
        return sum(1 for o in self.analyzed if o.store_hit)

    @property
    def store_misses(self) -> int:
        return len(self.analyzed) - self.store_hits

    @property
    def warm_hit_rate(self) -> float:
        rows = self.analyzed
        return self.store_hits / len(rows) if rows else 0.0

    @property
    def index_restores(self) -> int:
        """Apps whose inverted index was restored instead of rebuilt."""
        return sum(1 for o in self.analyzed if o.index_restored)

    @property
    def partial_restores(self) -> int:
        """Apps restored warm-partial (some shards patched in place)."""
        return sum(1 for o in self.analyzed if o.shards_patched > 0)

    @property
    def shards_patched(self) -> int:
        """Total shard groups re-folded across all warm-partial apps."""
        return sum(o.shards_patched for o in self.analyzed)

    @property
    def lazy_restores(self) -> int:
        """Apps restored lazily (mmapped shards, on-demand decode)."""
        return sum(1 for o in self.analyzed if o.materialized_groups > 0
                   or o.bytes_mapped > 0)

    @property
    def groups_materialized(self) -> int:
        """Total shard groups decoded across all lazy restores."""
        return sum(o.materialized_groups for o in self.analyzed)

    @property
    def total_bytes_mapped(self) -> int:
        return sum(o.bytes_mapped for o in self.analyzed)

    @property
    def total_bytes_decoded(self) -> int:
        return sum(o.bytes_decoded for o in self.analyzed)

    @property
    def fast_lane_apps(self) -> int:
        """Apps the up-front store probe routed to the warm fast lane."""
        return sum(1 for o in self.outcomes if o.lane == "fast")

    @property
    def main_lane_apps(self) -> int:
        return len(self.outcomes) - self.fast_lane_apps

    @property
    def speedup_over_serial(self) -> float:
        """Summed per-app time / wall time — the pool's effective overlap."""
        return (
            self.total_analysis_seconds / self.wall_seconds
            if self.wall_seconds
            else 0.0
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Per-app rows plus the aggregate block, ready to print."""
        lines = [
            f"{'app':34}  {'methods':>7}  {'sinks':>5}  {'reach':>5}  "
            f"{'vulns':>5}  {'time(s)':>8}  {'cache':>7}"
        ]
        for o in self.outcomes:
            if o.ok:
                warm = "  [warm]" if o.store_hit else ""
                lines.append(
                    f"{o.package:34}  {o.method_count:7d}  {o.sink_count:5d}  "
                    f"{o.reachable_sinks:5d}  {o.finding_count:5d}  "
                    f"{o.seconds:8.3f}  {o.search_cache_rate:6.1%}{warm}"
                )
            else:
                lines.append(f"{o.package:34}  ERROR: {o.error}")
        lines.append("")
        lines.append(
            f"batch: {self.app_count} apps "
            f"({len(self.failures)} failed), backend={self.backend}, "
            f"{self.workers} {self.executor} worker(s)"
        )
        lines.append(
            f"  wall time      : {self.wall_seconds:.3f}s "
            f"(sum of per-app: {self.total_analysis_seconds:.3f}s, "
            f"overlap {self.speedup_over_serial:.2f}x)"
        )
        lines.append(
            f"  per-app time   : mean {self.mean_seconds:.3f}s, "
            f"median {self.median_seconds:.3f}s"
        )
        lines.append(
            f"  cache rates    : search {self.mean_search_cache_rate:.2%}, "
            f"sink {self.mean_sink_cache_rate:.2%} (per-app averages)"
        )
        lines.append(
            f"  findings       : {self.total_findings} across "
            f"{self.vulnerable_apps} vulnerable app(s), "
            f"{self.total_sinks} sinks analyzed"
        )
        if self.store_enabled:
            lines.append(
                f"  store          : {self.store_hits} hit(s) / "
                f"{self.store_misses} miss(es) "
                f"({self.warm_hit_rate:.0%} warm), "
                f"{self.index_restores} restored index(es), "
                f"{self.partial_restores} partial "
                f"({self.shards_patched} shard(s) patched)"
            )
            if self.lazy_restores:
                lines.append(
                    f"  lazy restores  : {self.lazy_restores} app(s), "
                    f"{self.groups_materialized} group(s) materialized, "
                    f"{self.total_bytes_decoded} of "
                    f"{self.total_bytes_mapped} mapped byte(s) decoded"
                )
            lines.append(
                f"  lanes          : {self.fast_lane_apps} fast / "
                f"{self.main_lane_apps} main (store-aware dispatch)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """A machine-readable snapshot (the CLI's ``--json`` output)."""
        from repro.api.envelope import SCHEMA_VERSION

        aggregate = {
            "app_count": self.app_count,
            "failed": len(self.failures),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "executor": self.executor,
            "backend": self.backend,
            "total_analysis_seconds": self.total_analysis_seconds,
            "mean_seconds": self.mean_seconds,
            "median_seconds": self.median_seconds,
            "speedup_over_serial": self.speedup_over_serial,
            "mean_search_cache_rate": self.mean_search_cache_rate,
            "mean_sink_cache_rate": self.mean_sink_cache_rate,
            "total_sinks": self.total_sinks,
            "total_findings": self.total_findings,
            "vulnerable_apps": self.vulnerable_apps,
            "store_enabled": self.store_enabled,
        }
        if self.store_enabled:
            aggregate["store"] = {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "warm_hit_rate": self.warm_hit_rate,
                "index_restores": self.index_restores,
                "partial_restores": self.partial_restores,
                "shards_patched": self.shards_patched,
                "lazy_restores": self.lazy_restores,
                "groups_materialized": self.groups_materialized,
                "bytes_mapped": self.total_bytes_mapped,
                "bytes_decoded": self.total_bytes_decoded,
                "fast_lane_apps": self.fast_lane_apps,
                "main_lane_apps": self.main_lane_apps,
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "apps": [outcome_payload(o) for o in self.outcomes],
            "aggregate": aggregate,
        }


def _make_executor(kind: str, max_workers: Optional[int]) -> Executor:
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=max_workers)
    if kind == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor {kind!r}: choose from {EXECUTORS}")


def resolve_worker_count(
    executor: str, max_workers: Optional[int] = None
) -> int:
    """The pool size a run will use, computed from public inputs.

    Mirrors the ``concurrent.futures`` documented defaults instead of
    poking the executor's private ``_max_workers`` attribute.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}: choose from {EXECUTORS}"
        )
    if executor == "serial":
        return 1
    if max_workers is not None:
        return max_workers
    cpus = os.cpu_count() or 1
    if executor == "thread":
        # ThreadPoolExecutor's documented default since Python 3.8.
        return min(32, cpus + 4)
    return cpus


def run_batch(
    specs: Sequence[AppSpec],
    config: Optional[BackDroidConfig] = None,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    progress: Optional[Callable[[AppOutcome], None]] = None,
    request=None,
    session_cache_size: int = 4,
) -> BatchResult:
    """Analyze every spec across a worker pool, preserving input order.

    ``executor`` is ``"thread"`` (default: safe everywhere, overlaps
    generation and I/O), ``"process"`` (true CPU parallelism for large
    corpora) or ``"serial"`` (in-process, for debugging/determinism).
    ``progress`` is invoked with each outcome as it completes.

    ``request`` (an :class:`~repro.api.request.AnalysisRequest`)
    overrides the config's targets/knobs for every app in the run.  For
    in-process executors (``thread``/``serial``) a bounded
    :class:`~repro.api.session.SessionCache` of ``session_cache_size``
    warm sessions is shared across the run, so duplicate specs reuse
    one generated app and one built index (process pools cannot share
    sessions; pass ``session_cache_size=0`` to disable sharing).

    With a store configured, every spec is probed up front
    (:func:`plan_lanes`) and warm apps are dispatched first — the cheap
    fast-lane work drains ahead of the cold pool instead of queueing
    behind it.  The result (and its rendered table) stays in input
    order regardless of dispatch order.
    """
    config = config if config is not None else BackDroidConfig()
    effective = request.to_config(config) if request is not None else config
    started = time.perf_counter()
    outcomes: list[Optional[AppOutcome]] = [None] * len(specs)
    workers = resolve_worker_count(executor, max_workers)
    lanes = plan_lanes(specs, effective)
    sessions = None
    if executor != "process" and session_cache_size > 0:
        from repro.api.session import SessionCache

        sessions = SessionCache(max_sessions=session_cache_size)
    # Warm-first priority; ties keep input order, so dispatch stays
    # deterministic.
    order = sorted(
        range(len(specs)), key=lambda i: (0 if lanes[i] == "fast" else 1, i)
    )

    def _with_lane(index: int, outcome: AppOutcome) -> AppOutcome:
        return dataclasses.replace(outcome, lane=lanes[index])

    if executor == "serial":
        for i in order:
            outcomes[i] = _with_lane(
                i, analyze_spec(specs[i], config, request, sessions)
            )
            if progress is not None:
                progress(outcomes[i])
    else:
        if executor == "process":
            # The shared worker entry point (also the service's cold
            # lane): one module-level function crosses the process
            # boundary, so batch and serve ship identical work.
            # Imported lazily — the service package imports this module.
            from repro.service.workers import run_analysis

            def _submit(pool, i):
                return pool.submit(run_analysis, specs[i], config, request)
        else:
            def _submit(pool, i):
                return pool.submit(
                    analyze_spec, specs[i], config, request, sessions
                )
        with _make_executor(executor, max_workers) as pool:
            futures = {_submit(pool, i): i for i in order}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 - e.g. a worker
                    # process died (BrokenProcessPool): record it against
                    # the spec instead of aborting the whole batch.
                    outcome = AppOutcome(
                        package=specs[index].package,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                outcomes[index] = _with_lane(index, outcome)
                if progress is not None:
                    progress(outcomes[index])

    return BatchResult(
        outcomes=[o for o in outcomes if o is not None],
        wall_seconds=time.perf_counter() - started,
        workers=workers,
        executor=executor,
        backend=effective.search_backend,
        store_enabled=effective.store_dir is not None,
    )
