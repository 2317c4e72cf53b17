"""Command-line front end.

Because this reproduction operates on a synthetic bytecode substrate
(there is no APK parser — see DESIGN.md), the CLI works on the built-in
app sources:

* the paper's worked examples (``lgtv``, ``heyzap``, ``palcomp3``);
* generated benchmark apps (``bench:<index>``).

Commands::

    backdroid analyze lgtv --rules open-port --dump-ssg
    backdroid analyze bench:7 --backend indexed --json
    backdroid compare bench:3 --timeout 5
    backdroid corpus --year 2018 --count 1000
    backdroid batch bench:0..20 --backend indexed --workers 8
    backdroid batch --year 2016 --count 24 --scale 0.2
    backdroid batch bench:0..50 --store .bdstore --store-mode full
    backdroid store warm bench:0..50 --store .bdstore
    backdroid store stats --store .bdstore
    backdroid store verify --store .bdstore
    backdroid store gc --store .bdstore --max-age-hours 48
    backdroid serve --port 8099 --store .bdstore --cold-workers 4 --fast-lane-workers 1
    backdroid inventory bench:3
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
from typing import Optional

from repro.android.apk import Apk
from repro.api import AnalysisRequest, AnalysisSession
from repro.baseline import AmandroidConfig, AmandroidStyleAnalyzer
from repro.core import STORE_MODES, BackDroid, BackDroidConfig, run_batch
from repro.core.batch import EXECUTORS, analyze_spec, key_app
from repro.search.backends import BACKENDS, DEFAULT_BACKEND
from repro.store import ArtifactStore, store_key
from repro.workload.corpus import (
    benchmark_app_spec,
    sample_year_corpus,
    year_app_spec,
)
from repro.workload.generator import AppSpec, generate_app, spec_fingerprint
from repro.workload.paperapps import build_heyzap, build_lg_tv_plus, build_palcomp3

_PAPER_APPS = {
    "lgtv": build_lg_tv_plus,
    "heyzap": build_heyzap,
    "palcomp3": build_palcomp3,
}


def _bench_index(spec: str) -> int:
    """The index of a ``bench:<index>`` spec, with a friendly error."""
    raw = spec.split(":", 1)[1]
    try:
        index = int(raw)
    except ValueError:
        raise SystemExit(
            f"bad benchmark app spec {spec!r}: the part after 'bench:' must "
            f"be a non-negative integer, e.g. bench:7"
        ) from None
    if index < 0:
        raise SystemExit(
            f"bad benchmark app spec {spec!r}: the index must be >= 0"
        )
    return index


def _load_app(name: str) -> Apk:
    if name in _PAPER_APPS:
        return _PAPER_APPS[name]()
    if name.startswith("bench:"):
        return generate_app(benchmark_app_spec(_bench_index(name))).apk
    raise SystemExit(
        f"unknown app {name!r}: use one of {sorted(_PAPER_APPS)} or bench:<index>"
    )


def _rules(args) -> tuple[str, ...]:
    return tuple(args.rules.split(",")) if args.rules else ("crypto-ecb", "ssl-verifier")


def cmd_analyze(args) -> int:
    from repro import telemetry

    config = BackDroidConfig(
        sink_rules=_rules(args),
        check_class_hierarchy_in_initial_search=args.hierarchy_fix,
        collect_ssg_dumps=args.dump_ssg,
        search_backend=args.backend,
        store_dir=args.store,
    )
    store = config.artifact_store()
    request = AnalysisRequest.from_config(config)
    # A throwaway per-invocation tracer (disabled without --trace, when
    # every span is a no-op): the root span is ambient, so generation
    # and the pipeline's library spans nest under it with no plumbing
    # (same mechanism the service scheduler uses).
    tracer = telemetry.Tracer(enabled=args.trace)
    with tracer.span("analyze", attrs={"app": args.app}) as root:
        with telemetry.span("app.generate") as generate:
            apk = _load_app(args.app)
            generate.set_attr("package", apk.package)
        if store is not None and args.app.startswith("bench:"):
            # A generated app has a recipe, so its disassembly is
            # restored from the store as in batch and service jobs.
            fingerprint = spec_fingerprint(
                benchmark_app_spec(_bench_index(args.app))
            )
            key_app(store, fingerprint, store.load_spec_key(fingerprint), apk)
        envelope = AnalysisSession.from_config(apk, config).run(request)
    if args.trace:
        envelope.trace = {
            "trace_id": root.trace_id,
            "spans": tracer.collect(root.trace_id),
        }
    report = envelope.report
    if args.json:
        print(json.dumps(envelope.as_dict(), indent=2, sort_keys=True))
        return 1 if report.vulnerable else 0
    print(report.to_text())
    if args.dump_ssg:
        for note in report.notes:
            print()
            print(note)
    if args.trace and envelope.trace:
        from repro.telemetry import render_span_tree

        print()
        print("trace " + envelope.trace["trace_id"])
        print(render_span_tree(envelope.trace["spans"]))
    return 1 if report.vulnerable else 0


def cmd_compare(args) -> int:
    apk = _load_app(args.app)
    backdroid = BackDroid(
        BackDroidConfig(sink_rules=_rules(args), search_backend=args.backend)
    )
    baseline = AmandroidStyleAnalyzer(
        AmandroidConfig(timeout_seconds=args.timeout), sink_rules=_rules(args)
    )
    bd = backdroid.analyze(apk)
    am = baseline.analyze(apk)
    print(f"app: {apk.package} ({apk.method_count()} methods)")
    print(f"BackDroid : {bd.analysis_seconds:8.3f}s  "
          f"{len(bd.findings)} findings  ({bd.sink_count} sinks analyzed)")
    status = "TIMEOUT" if am.timed_out else (am.error or "ok")
    print(f"whole-app : {am.analysis_seconds:8.3f}s  "
          f"{len(am.findings)} findings  [{status}]")
    only_bd = {f.method.class_name for f in bd.findings} - {
        f.method.class_name for f in am.findings
    }
    if only_bd:
        print("flagged only by BackDroid: " + ", ".join(sorted(only_bd)))
    return 0


def cmd_corpus(args) -> int:
    apps = sample_year_corpus(args.year, count=args.count)
    sizes = [a.size_mb for a in apps]
    print(f"year {args.year}: {len(apps)} apps, "
          f"avg {statistics.fmean(sizes):.1f}MB, "
          f"median {statistics.median(sizes):.1f}MB")
    return 0


def _parse_batch_spec(spec: str) -> list[int]:
    """Expand a ``bench:<i>`` or ``bench:<a>..<b>`` spec into indices.

    Ranges are python-style half-open: ``bench:0..20`` is apps 0-19.
    """
    if not spec.startswith("bench:"):
        raise SystemExit(
            f"bad batch app spec {spec!r}: use bench:<index> or "
            f"bench:<start>..<end> (e.g. bench:0..20)"
        )
    raw = spec.split(":", 1)[1]
    if ".." in raw:
        start_raw, _, end_raw = raw.partition("..")
        try:
            start, end = int(start_raw), int(end_raw)
        except ValueError:
            raise SystemExit(
                f"bad batch app spec {spec!r}: range bounds must be "
                f"integers, e.g. bench:0..20"
            ) from None
        if start < 0 or end <= start:
            raise SystemExit(
                f"bad batch app spec {spec!r}: need 0 <= start < end"
            )
        return list(range(start, end))
    return [_bench_index(spec)]


def _collect_specs(args) -> list[AppSpec]:
    """The app recipes a batch-shaped command line names."""
    specs: list[AppSpec] = []
    for spec in args.apps:
        specs.extend(
            benchmark_app_spec(i, scale=args.scale)
            for i in _parse_batch_spec(spec)
        )
    if args.year is not None:
        specs.extend(
            year_app_spec(args.year, i, scale=args.scale)
            for i in range(args.count)
        )
    if not specs:
        raise SystemExit(
            "nothing to analyze: pass bench:<start>..<end> specs and/or "
            "--year/--count"
        )
    return specs


def cmd_batch(args) -> int:
    specs = _collect_specs(args)
    if args.cache_max is not None and args.cache_max < 1:
        raise SystemExit("--cache-max must be a positive integer")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be a positive integer")
    config = BackDroidConfig(
        sink_rules=_rules(args),
        search_backend=args.backend,
        search_cache_max_entries=args.cache_max,
        store_dir=args.store,
        store_mode=args.store_mode,
    )
    result = run_batch(
        specs,
        config=config,
        max_workers=args.workers,
        executor=args.executor,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 2 if result.failures else 0


def _require_store(args) -> ArtifactStore:
    if not args.store:
        raise SystemExit("a store directory is required: pass --store DIR")
    return ArtifactStore(args.store)


def cmd_store(args) -> int:
    if args.action == "stats":
        inventory = _require_store(args).describe()
        if args.json:
            print(json.dumps(inventory.as_dict(), indent=2, sort_keys=True))
        else:
            print(inventory.render())
        return 0

    if args.action == "verify":
        results = _require_store(args).verify()
        failures = 0
        for entry in results:
            if entry.status == "no-index":
                print(f"{entry.key[:12]}  SKIP  no stored index")
            elif entry.status == "stale":
                print(f"{entry.key[:12]}  SKIP  {entry.detail}")
            elif entry.ok:
                print(f"{entry.key[:12]}  ok    parity with a fresh build")
            else:
                failures += 1
                print(f"{entry.key[:12]}  FAIL  {entry.status}: {entry.detail}")
        verified = sum(1 for e in results if e.status == "ok")
        print(f"verified {verified} stored index(es), {failures} failure(s), "
              f"{len(results)} entry(ies) total")
        return 1 if failures else 0

    if args.action == "gc":
        store = _require_store(args)
        if args.max_age_hours < 0:
            raise SystemExit("--max-age-hours must be >= 0")
        result = store.gc(args.max_age_hours * 3600.0)
        print(
            f"removed {result.entries_removed} entry(ies) and "
            f"{result.shards_removed} unreferenced shard(s), "
            f"reclaimed {result.bytes_reclaimed} bytes"
        )
        return 0

    # warm: prebuild artifacts so later runs start hot.  "index" mode
    # builds and persists each app's inverted index; "full" mode runs
    # the whole analysis once so outcomes are reusable too.
    store = _require_store(args)
    specs = _collect_specs(args)
    config = BackDroidConfig(
        sink_rules=_rules(args),
        search_backend="indexed",
        store_dir=args.store,
        store_mode=args.store_mode,
    )
    warmed = 0
    for spec in specs:
        if args.store_mode == "full":
            outcome = analyze_spec(spec, config)
            if outcome.ok:
                warmed += 1
            else:
                print(f"{outcome.package}: ERROR: {outcome.error}")
        else:
            apk = generate_app(spec).apk
            if store.load_index(apk.disassembly) is None:
                # save_index shards the token stream itself; building
                # an app-level index here would be folded work thrown
                # away.
                store.save_index(apk.disassembly)
            # Teach the specmap too, so the scheduler's store probe
            # (batch and serve) can classify the warmed app without
            # generating it.
            store.save_spec_key(
                spec_fingerprint(spec), store_key(apk.disassembly)
            )
            warmed += 1
    print(f"warmed {warmed}/{len(specs)} app(s) into {args.store} "
          f"(mode: {args.store_mode})")
    return 0


def build_server(args):
    """The configured (but not yet started) analysis service.

    ``--cold-workers`` sizes the cold lane's worker *processes*
    (default: ``--workers``): the service runs cold analyses out of
    process so warm restores never share the GIL with disassembly and
    index folds.  ``--cold-workers 0`` keeps cold analyses in-process
    (thread pool), the embedding-style fallback.
    """
    # Imported lazily: the service layer is only needed by ``serve``.
    from repro.service import AnalysisServer, StoreAwareScheduler

    if args.workers < 1:
        raise SystemExit("--workers must be a positive integer")
    if args.fast_lane_workers < 0:
        raise SystemExit("--fast-lane-workers must be >= 0")
    if args.retain_jobs < 1:
        raise SystemExit("--retain-jobs must be a positive integer")
    cold_workers = getattr(args, "cold_workers", None)
    if cold_workers is None:
        cold_workers = args.workers
    if cold_workers < 0:
        raise SystemExit("--cold-workers must be >= 0")
    # The cold lane *is* the main pool: with process isolation on, its
    # process count is the lane's concurrency.
    cold_executor = "process" if cold_workers > 0 else "thread"
    workers = cold_workers if cold_executor == "process" else args.workers
    config = BackDroidConfig(
        sink_rules=_rules(args),
        search_backend=args.backend,
        store_dir=args.store,
        store_mode=args.store_mode,
    )
    scheduler = StoreAwareScheduler(
        config,
        workers=workers,
        fast_lane_workers=args.fast_lane_workers,
        max_finished_jobs=args.retain_jobs,
        session_cache_size=getattr(args, "session_cache", 4),
        cold_executor=cold_executor,
        node_id=getattr(args, "node_id", None),
    )
    return AnalysisServer(scheduler, host=args.host, port=args.port)


def _serve_front_end(args) -> int:
    """``serve --peers``: the cluster front end (router, no analyses).

    Discovers nodes through the heartbeat manifests in the shared store
    and routes/forwards submissions; see :mod:`repro.service.cluster`.
    """
    import signal

    from repro.service.cluster import ClusterFrontEnd, ClusterRouter

    router = ClusterRouter(
        args.store,
        lease_ttl=args.lease_ttl,
        client_timeout=30.0,
    )
    front = ClusterFrontEnd(router, host=args.host, port=args.port)
    front.start()
    host, port = front.address
    print(f"backdroid cluster front end listening on http://{host}:{port}")
    print(f"  routing over store {args.store} "
          f"(node ttl {args.lease_ttl:g}s); nodes register by "
          "heartbeating the same store")
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_stop)
        except ValueError:
            break
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    front.drain()
    front.shutdown()
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.telemetry.logs import configure_logging

    configure_logging(getattr(args, "log_format", "text"))
    node_id = getattr(args, "node_id", None)
    peers = getattr(args, "peers", None)
    if (node_id or peers) and not args.store:
        raise SystemExit("--node-id/--peers require --store (the shared "
                         "store is the coordination substrate)")
    if node_id and peers:
        raise SystemExit("--node-id (worker) and --peers (front end) are "
                         "mutually exclusive")
    if peers:
        return _serve_front_end(args)
    server = build_server(args)
    server.start()
    host, port = server.address
    node = None
    if node_id:
        from repro.service.cluster import ClusterNode

        node = ClusterNode(
            server.scheduler,
            args.store,
            node_id,
            (host, port),
            lease_ttl=args.lease_ttl,
            heartbeat_interval=getattr(args, "heartbeat_interval", None),
        )
        # Started (first beat synchronous) before the banner prints, so
        # anything that saw the banner can already route to this node.
        node.start()
    store_note = (
        f"store {args.store} (mode {args.store_mode}), "
        f"{args.fast_lane_workers} fast-lane worker(s)"
        if args.store
        else "no store (every submission rides the main lane)"
    )
    scheduler = server.scheduler
    cold_note = (
        f"{scheduler.lanes['main'].workers} cold worker process(es)"
        if scheduler.cold_executor == "process"
        else f"{scheduler.lanes['main'].workers} in-process cold worker(s)"
    )
    print(f"backdroid service listening on http://{host}:{port}")
    print(f"  {cold_note}, {store_note}")
    if node is not None:
        print(f"  cluster node {node_id} (node ttl {args.lease_ttl:g}s, "
              f"heartbeat {node.heartbeat_interval:g}s)")
    print("  endpoints: POST /v1/jobs, GET /v1/jobs/<id>[?trace=1], "
          "DELETE /v1/jobs/<id>, GET /v1/stats, GET /metrics, "
          "GET /healthz  (SIGTERM/Ctrl-C to drain and stop)")
    # SIGTERM (orchestrators) and SIGINT (Ctrl-C) both trigger the
    # graceful drain: stop accepting (503), give in-flight jobs
    # --drain-timeout seconds, then shut down — hard if they overran.
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_stop)
        except ValueError:  # not on the main thread (embedding, tests)
            break
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    print(f"draining in-flight jobs (up to {args.drain_timeout:g}s) ...")
    drained = server.drain(timeout=args.drain_timeout)
    if not drained:
        print("drain timeout exceeded; abandoning unfinished jobs")
    if node is not None:
        # Withdraw from the cluster after the drain: peers keep seeing
        # a live (draining) node until its jobs settle.
        node.stop()
    server.shutdown(drain=drained)
    return 0


def cmd_inventory(args) -> int:
    apk = _load_app(args.app)
    print(f"package : {apk.package}")
    print(f"size    : {apk.size_mb:.1f}MB (year {apk.year})")
    print(f"classes : {apk.class_count()}  methods: {apk.method_count()}  "
          f"code units: {apk.code_units()}")
    print("components:")
    for component in apk.manifest.components:
        print(f"  {component.kind.value:9} {component.class_name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backdroid",
        description="Targeted inter-procedural analysis via on-the-fly "
        "bytecode search (BackDroid reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flag(p) -> None:
        p.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default=DEFAULT_BACKEND,
            help="bytecode search backend (default: %(default)s)",
        )

    def add_store_dir(p) -> None:
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="persistent warm-start artifact store directory",
        )

    def add_store_flags(p) -> None:
        add_store_dir(p)
        p.add_argument(
            "--store-mode", choices=STORE_MODES, default="index",
            help="what warm entries may replace: the inverted index only, "
            "or finished per-app outcomes too (default: %(default)s)",
        )

    analyze = sub.add_parser("analyze", help="run BackDroid on an app")
    analyze.add_argument("app")
    analyze.add_argument("--rules", default="",
                         help="comma-separated rule ids (default: crypto+ssl)")
    analyze.add_argument("--hierarchy-fix", action="store_true",
                         help="enable the class-hierarchy initial-search fix")
    analyze.add_argument("--dump-ssg", action="store_true")
    analyze.add_argument("--json", action="store_true",
                         help="emit the versioned ReportEnvelope JSON "
                         "instead of the text report")
    analyze.add_argument("--trace", action="store_true",
                         help="record a telemetry span tree for this run "
                         "(printed after the report, or embedded in the "
                         "--json envelope's 'trace' section)")
    add_backend_flag(analyze)
    add_store_dir(analyze)
    analyze.set_defaults(func=cmd_analyze)

    compare = sub.add_parser("compare", help="BackDroid vs whole-app baseline")
    compare.add_argument("app")
    compare.add_argument("--rules", default="")
    compare.add_argument("--timeout", type=float, default=5.0)
    add_backend_flag(compare)
    compare.set_defaults(func=cmd_compare)

    batch = sub.add_parser(
        "batch", help="analyze a whole generated corpus across a worker pool"
    )
    batch.add_argument(
        "apps", nargs="*",
        help="bench:<index> or bench:<start>..<end> specs (half-open range)",
    )
    batch.add_argument("--year", type=int, default=None,
                       help="also analyze a generated Table-I year sample")
    batch.add_argument("--count", type=int, default=20,
                       help="apps in the --year sample (default: 20)")
    batch.add_argument("--scale", type=float, default=1.0,
                       help="bulk-code scale factor (default: 1.0)")
    batch.add_argument("--rules", default="")
    batch.add_argument("--workers", type=int, default=None,
                       help="threads per lane, warm and cold, or worker "
                       "processes for every app with --executor process "
                       "(default: the CPU count; serial runs one)")
    batch.add_argument("--executor", choices=EXECUTORS, default="thread")
    batch.add_argument("--cache-max", type=int, default=None,
                       help="LRU bound for the per-app search command cache")
    batch.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of the table")
    add_backend_flag(batch)
    add_store_flags(batch)
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve", help="run the persistent analysis service (HTTP JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8099,
                       help="listen port, 0 for ephemeral (default: %(default)s)")
    serve.add_argument("--workers", type=int, default=4,
                       help="main (cold-lane) worker pool size (default: 4)")
    serve.add_argument("--fast-lane-workers", type=int, default=1,
                       help="dedicated workers for store-warm submissions "
                       "(0 disables the fast lane; default: 1)")
    serve.add_argument("--retain-jobs", type=int, default=256,
                       help="finished jobs kept for polling (default: 256)")
    serve.add_argument("--cold-workers", type=int, default=None,
                       help="cold-lane worker processes (default: --workers; "
                       "0 runs cold analyses in-process instead)")
    serve.add_argument("--session-cache", type=int, default=4,
                       help="warm per-app sessions kept resident "
                       "(default: 4; 0 disables the session cache)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to let in-flight jobs finish on "
                       "SIGTERM/SIGINT before abandoning them (default: 30)")
    serve.add_argument("--log-format", choices=("text", "json"),
                       default="text",
                       help="structured log format; 'json' emits one "
                       "object per line with trace/span ids stamped "
                       "(default: %(default)s)")
    serve.add_argument("--node-id", default=None, metavar="ID",
                       help="join the cluster on the shared --store as "
                       "this node: heartbeat the node directory, stamp "
                       "node_id on jobs/results and metrics")
    serve.add_argument("--peers", default=None, metavar="MODE",
                       choices=("auto", "store"),
                       help="run the cluster *front end* instead of a "
                       "worker: route submissions to nodes discovered "
                       "through their heartbeats in the shared --store "
                       "('auto' and 'store' are synonyms)")
    serve.add_argument("--lease-ttl", type=float, default=10.0,
                       help="cluster node-silence TTL in seconds: a node "
                       "silent this long is treated as dead and its "
                       "in-flight jobs are reclaimed (default: 10)")
    serve.add_argument("--heartbeat-interval", type=float, default=None,
                       help="seconds between cluster heartbeats "
                       "(default: TTL / 3)")
    serve.add_argument("--rules", default="")
    add_backend_flag(serve)
    add_store_flags(serve)
    serve.set_defaults(func=cmd_serve)

    store = sub.add_parser(
        "store", help="manage the warm-start artifact store"
    )
    store_sub = store.add_subparsers(dest="action", required=True)

    warm = store_sub.add_parser(
        "warm", help="prebuild artifacts for a corpus so later runs start hot"
    )
    warm.add_argument(
        "apps", nargs="*",
        help="bench:<index> or bench:<start>..<end> specs (half-open range)",
    )
    warm.add_argument("--year", type=int, default=None,
                      help="also warm a generated Table-I year sample")
    warm.add_argument("--count", type=int, default=20,
                      help="apps in the --year sample (default: 20)")
    warm.add_argument("--scale", type=float, default=1.0,
                      help="bulk-code scale factor (default: 1.0)")
    warm.add_argument("--rules", default="")
    add_store_flags(warm)
    warm.set_defaults(func=cmd_store)

    stats = store_sub.add_parser("stats", help="describe the store contents")
    stats.add_argument("--store", default=None, metavar="DIR")
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of the table")
    stats.set_defaults(func=cmd_store)

    verify = store_sub.add_parser(
        "verify",
        help="replay the backend-parity check against every stored index",
    )
    verify.add_argument("--store", default=None, metavar="DIR")
    verify.set_defaults(func=cmd_store)

    gc = store_sub.add_parser("gc", help="drop stale store entries")
    gc.add_argument("--store", default=None, metavar="DIR")
    gc.add_argument(
        "--max-age-hours", type=float, default=0.0,
        help="keep entries newer than this many hours (default: 0, "
        "i.e. clear everything)",
    )
    gc.set_defaults(func=cmd_store)

    corpus = sub.add_parser("corpus", help="sample a Table-I year corpus")
    corpus.add_argument("--year", type=int, default=2018)
    corpus.add_argument("--count", type=int, default=1000)
    corpus.set_defaults(func=cmd_corpus)

    inventory = sub.add_parser("inventory", help="describe an app")
    inventory.add_argument("app")
    inventory.set_defaults(func=cmd_inventory)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
