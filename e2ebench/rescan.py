"""``corpus_rescan``: a closed loop of in-process ``analyze_spec`` jobs.

N distinct apps go through three passes over one fresh store, one job
at a time on the indexed backend, interleaved app by app:

1. ``cold`` (full mode): fold the index, analyze, publish shards, the
   outcome and the specmap entry;
2. ``index_hit`` (index mode): lazy shard restore, full re-analysis;
3. ``outcome_hit`` (full mode): restore the stored outcome, no analysis.

This is the paper's corpus vetting followed by the re-scan after a rule
change.  The cold pass does every fold and write; the rescans only read.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import time

from apps import Corpus, Oracle, RunResult, check_planted_truths
from layers import LAYER_METRICS, LayerTracer, class_metrics, render_table
from stats import at_reference, machine_probe, median, quantile

#: Bulk-code scale of the ``bench:`` recipes: the median cold job takes
#: on the order of 100 ms on a 2-core box.
SCALE = 1.0
#: Quantile range of the size distribution the apps are taken from.
#: The top of the generator's tail (apps tens of times the median) is
#: left out so three passes over 100+ apps fit one run.
Q_LO, Q_HI = 0.10, 0.80
#: Apps per ``--seconds``: 50 s gives 125 jobs per class, twelve of them
#: beyond the p90.
APPS_PER_SECOND = 2.5
#: Latency limit for ``warm_slo_frac`` on this workload (outcome hits).
WARM_SLO_S = 0.35

CLASSES = ("cold", "index_hit", "outcome_hit")


@dataclasses.dataclass
class Setup:
    apps: list
    work: str


def app_count(seconds: float) -> int:
    return max(10, round(seconds * APPS_PER_SECOND))


def setup(seed: int, seconds: float, work: str) -> Setup:
    """Select the corpus, plant the oracle, and run a warm-up app
    through every job kind so lazy module state is built before timing."""
    corpus = Corpus(seed, SCALE, Q_LO, Q_HI)
    warmup = corpus.take(1)[0]
    apps = corpus.take(app_count(seconds))
    check_planted_truths(warmup)
    oracle = Oracle()
    run_passes([warmup], os.path.join(work, "warmup-store"), oracle)
    if oracle.mismatches:
        raise RuntimeError("warm-up job failed: " + oracle.mismatches[0])
    return Setup(apps=apps, work=work)


def _configs(store_dir: str):
    from repro.core.backdroid import BackDroidConfig

    full = BackDroidConfig(
        search_backend="indexed", store_dir=store_dir, store_mode="full"
    )
    return (
        ("cold", full),
        ("index_hit", dataclasses.replace(full, store_mode="index")),
        ("outcome_hit", full),
    )


def _tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def run_passes(apps, store_dir: str, oracle: Oracle, tracer=None) -> dict:
    """The three jobs of every app over one fresh store; returns
    ``{class: [job dict, ...]}`` plus each class's summed reference-speed
    job time under ``"<class>.wall"``.  With a *tracer* every job runs
    traced.

    The passes run app by app (cold, index hit, outcome hit), so each
    class's samples spread over the whole run: a slow phase of a shared
    machine then touches every class a little instead of one class
    wholly.  Every rescan still reads a store its cold job wrote.  A
    machine probe before each app gives every job a reference-speed
    time (``ref_seconds``) next to its raw ``seconds``.
    """
    from repro.core.batch import analyze_spec

    shutil.rmtree(store_dir, ignore_errors=True)
    os.makedirs(store_dir)
    configs = _configs(store_dir)
    results: dict = {}
    for cls, _ in configs:
        results[cls], results[f"{cls}.wall"] = [], 0.0
    reference: dict = {}
    probes = []
    for app in apps:
        probes.append(machine_probe())
        for cls, config in configs:
            if tracer is not None:
                before = _tree_bytes(store_dir)
                outcome, elapsed = tracer.run_job(
                    f"{cls}:{app.index}", analyze_spec, app.spec, config
                )
                written = _tree_bytes(store_dir) - before
            else:
                started = time.perf_counter()
                outcome = analyze_spec(app.spec, config)
                elapsed = time.perf_counter() - started
                written = 0
            results[cls].append({
                "app": app, "seconds": elapsed, "outcome": outcome,
                "bytes_written": written,
            })
            _check(cls, app, outcome, reference, oracle)
    for cls, _ in configs:
        for position, job in enumerate(results[cls]):
            # A centred window of probes smooths the probe's own jitter
            # while still following the machine's slower phases.
            nearby = probes[max(0, position - 2):position + 3]
            job["ref_seconds"] = at_reference(job["seconds"], median(nearby))
            results[f"{cls}.wall"] += job["ref_seconds"]
    results["probe_s"] = median(probes)
    return results


def _check(cls, app, outcome, reference, oracle: Oracle) -> None:
    if not outcome.ok:
        return  # counted as a failure, not a mismatch
    oracle.verdicts(app, outcome.findings)
    shape = {
        # A cold job may restore shards other apps already published
        # (shared library classes): only a stored outcome or a complete
        # index would make it warm.
        "cold": not outcome.store_hit and (
            not outcome.index_restored or outcome.shards_patched > 0
        ),
        "index_hit": (outcome.index_restored and not outcome.store_hit
                      and outcome.shards_patched == 0),
        "outcome_hit": outcome.store_hit,
    }[cls]
    oracle.expect(shape, f"{cls} {app.name}: job did not take the {cls} path")
    if cls == "cold":
        reference[app.index] = outcome.findings
    elif app.index in reference:
        oracle.same(cls, app, outcome.findings, reference[app.index])


def _fails(results) -> int:
    return sum(1 for cls in CLASSES for job in results[cls] if not job["outcome"].ok)


def measure(ctx: Setup, setup_s: float) -> RunResult:
    """Untraced run: every end-to-end metric."""
    oracle = Oracle()
    results = run_passes(ctx.apps, os.path.join(ctx.work, "store"), oracle)
    metrics: dict = {"setup_s": (setup_s, "s")}
    raw = {}
    for cls in CLASSES:
        ok = [job for job in results[cls] if job["outcome"].ok]
        times = [job["ref_seconds"] for job in ok]
        metrics[f"{cls}_job_s.p50"] = (median(times), "s")
        metrics[f"{cls}_job_s.p90"] = (quantile(times, 0.9), "s")
        raw[f"{cls}_job_s.p50"] = median([job["seconds"] for job in ok])
    cold_ok = sum(1 for job in results["cold"] if job["outcome"].ok)
    metrics["apps_per_s"] = (cold_ok / results["cold.wall"], "1/s")
    warm = results["outcome_hit"]
    metrics["warm_slo_frac"] = (
        sum(1 for job in warm
            if job["outcome"].ok and job["ref_seconds"] <= WARM_SLO_S) / len(warm),
        "ratio",
    )
    attempted = len(CLASSES) * len(ctx.apps)
    failed = _fails(results)
    metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    metrics["verdict_agreement"] = (oracle.agreement, "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return RunResult(metrics, attempted, failed, oracle, record={
        "probe_s": results["probe_s"], "raw_p50_s": raw,
    })


def p50s(results: dict) -> dict[str, float]:
    """Per-class p50 reference-speed job seconds of one pass set."""
    return {
        cls: median([job["ref_seconds"] for job in results[cls]])
        for cls in CLASSES
    }


def measure_traced(ctx: Setup, untraced_p50: dict) -> RunResult:
    """Traced run: the three passes with every layer wrapped.

    *untraced_p50* is the per-class p50 of an untraced run of the same
    apps in a fresh interpreter (the overhead baseline): a pass set run
    earlier in this process would warm the program's own caches."""
    oracle = Oracle()
    tracer = LayerTracer()
    traced = run_passes(ctx.apps, os.path.join(ctx.work, "store"), oracle, tracer)
    profile = tracer.job_profile()
    traced_p50 = p50s(traced)
    metrics: dict = {}
    tables = []
    for cls in CLASSES:
        rows = []
        for job in traced[cls]:
            outcome = job["outcome"]
            if not outcome.ok:
                continue
            key = f"{cls}:{job['app'].index}"
            row = dict(profile[key])
            row.update(
                sinks=outcome.sink_count,
                methods=outcome.method_count,
                search_cache_rate=outcome.search_cache_rate,
                sink_cache_rate=outcome.sink_cache_rate,
                decode_frac=(
                    outcome.bytes_decoded / outcome.bytes_mapped
                    if outcome.bytes_mapped
                    else 0.0
                ),
                bytes_written=job["bytes_written"],
                lines=tracer.counts[key].get("dex.lines", 0),
            )
            rows.append(row)
        values = class_metrics(rows, traced_p50[cls] / untraced_p50[cls] - 1.0)
        for name in LAYER_METRICS:
            metrics[f"{cls}.{name}"] = (values[name], unit_of(name))
        tables.append(render_table(cls, rows, values))
    attempted = len(CLASSES) * len(ctx.apps)
    failed = _fails(traced)
    return RunResult(
        metrics, attempted, failed, oracle, report="\n\n".join(tables)
    )


def unit_of(name: str) -> str:
    """The unit of one per-layer metric (class prefix stripped)."""
    if name.endswith(("_s", "_s_per_sink")):
        return "s"
    if name.endswith("per_kmethod"):
        return "s/kmethod"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_frac") or "_rho_" in name:
        return "ratio"
    return "count"
