"""Fig. 9 — the number of sink API calls vs BackDroid's analysis time.

The paper's point: BackDroid's cost "largely depends on the number of
sink API calls analyzed, instead of the app/code size that existing
tools are mainly affected by".  Fig. 9 shows an approximately linear
trend with per-sink cost under 30 seconds (i.e. 0.5 paper-minutes per
sink on our scale).

The sweep holds the bulk-code volume constant and varies only the sink
count, isolating the per-sink slope; a second series varies only the
bulk size at a fixed sink count to show the near-flat size dependence.
Each size point is the median of several fresh generate-and-analyze
runs, taken in rounds over the sizes: one cold analysis of the
smallest app takes ~10 ms, so a single sample's scheduling noise could
decide the growth bar on its own.

A third series repeats the size sweep on the warm path, up to 480
filler classes: each app is analyzed once cold into one store, then
each size point is the median end-to-end time of several index-hit
jobs (``analyze_spec`` against an ``"index"``-mode store), again in
rounds.  An index hit restores the app's disassembly and index from
the store, so it is the job closest to the paper's claim.  Its specs
carry a ``size_mb``: without one, generation sizes the app by counting
every statement, which builds every body and so measures app size.
"""

import dataclasses
import statistics
import time

from benchmarks.conftest import emit_table, render_table, to_paper_minutes
from repro.core import BackDroid, BackDroidConfig, analyze_spec
from repro.workload.generator import AppSpec, generate_app
from repro.workload.patterns import PatternSpec

_SINK_COUNTS = (1, 5, 10, 20, 40, 60, 80, 100)
_SIZES = (20, 60, 120, 240)
_FIXED_FILLER = 60
_FIXED_SINKS = 10
_SIZE_RUNS = 5
_HIT_SIZES = (20, 60, 120, 240, 480)
_HIT_RUNS = 5


def _sweep():
    driver = BackDroid()
    sink_series = []
    for count in _SINK_COUNTS:
        patterns = tuple(
            PatternSpec("wrapper_chain", insecure=(i % 3 == 0)) for i in range(count)
        )
        generated = generate_app(
            AppSpec(package=f"com.fig9.s{count}", seed=count, patterns=patterns,
                    filler_classes=_FIXED_FILLER)
        )
        report = driver.analyze(generated.apk)
        sink_series.append((count, report.sink_count, report.analysis_seconds))

    patterns = tuple(
        PatternSpec("wrapper_chain", insecure=False) for _ in range(_FIXED_SINKS)
    )
    specs = [
        AppSpec(package=f"com.fig9.z{filler}", seed=filler, patterns=patterns,
                filler_classes=filler)
        for filler in _SIZES
    ]
    methods = {}
    seconds = {spec.package: [] for spec in specs}
    # Rounds visit every size in turn, so a slow spell of the machine
    # lands on all sizes alike rather than on one size's samples.
    for _ in range(_SIZE_RUNS):
        for spec in specs:
            generated = generate_app(spec)
            methods[spec.package] = generated.apk.method_count()
            seconds[spec.package].append(
                driver.analyze(generated.apk).analysis_seconds
            )
    size_series = [
        (methods[spec.package], statistics.median(seconds[spec.package]))
        for spec in specs
    ]
    return sink_series, size_series


def test_fig9_sinks_vs_time(benchmark):
    sink_series, size_series = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    sink_rows = [
        [str(requested), str(analyzed), f"{seconds:.3f}s",
         f"{to_paper_minutes(seconds):.2f}m",
         f"{to_paper_minutes(seconds) / max(analyzed, 1):.3f}m/sink"]
        for requested, analyzed, seconds in sink_series
    ]
    size_rows = [
        [str(methods), f"{seconds:.3f}s", f"{to_paper_minutes(seconds):.2f}m"]
        for methods, seconds in size_series
    ]
    growth = size_series[-1][1] / max(size_series[0][1], 1e-9)
    methods_growth = size_series[-1][0] / size_series[0][0]
    table = (
        render_table(
            "Fig. 9a: sink count vs BackDroid time (bulk code fixed)",
            ["#Sinks", "Analyzed", "Seconds", "Paper-min", "Per-sink"],
            sink_rows,
        )
        + "\n\n"
        + render_table(
            "Fig. 9b: app size vs BackDroid time (sink count fixed at 10, "
            f"median of {_SIZE_RUNS} runs)",
            ["#Methods", "Seconds", "Paper-min"],
            size_rows,
        )
        + f"\n\ntime growth {growth:.2f}x over {methods_growth:.2f}x "
        "method growth"
    )
    emit_table("fig9_sinks_vs_time", table)

    # Shape assertions: time grows with sinks, roughly linearly, and the
    # per-sink cost stays below the paper's 30-second (0.5 paper-minute)
    # guideline.
    times = [seconds for _, _, seconds in sink_series]
    assert times[-1] > times[0], "more sinks must cost more"
    per_sink = [
        to_paper_minutes(seconds) / analyzed
        for _, analyzed, seconds in sink_series
        if analyzed
    ]
    assert statistics.median(per_sink) < 0.5, "per-sink cost < 30 paper-seconds"
    # Size dependence at fixed sinks is sub-linear relative to the
    # method growth in the size series.
    assert growth < methods_growth, "size affects BackDroid sub-linearly"


def _index_hit_sweep(store_dir):
    """Fig. 9b on the warm path: (methods, median index-hit seconds)
    per size."""
    patterns = tuple(
        PatternSpec("wrapper_chain", insecure=False) for _ in range(_FIXED_SINKS)
    )
    specs = [
        AppSpec(package=f"com.fig9.w{filler}", seed=filler, patterns=patterns,
                filler_classes=filler, size_mb=5.0)
        for filler in _HIT_SIZES
    ]
    full = BackDroidConfig(
        search_backend="indexed", store_dir=str(store_dir), store_mode="full"
    )
    index = dataclasses.replace(full, store_mode="index")
    methods = {}
    for spec in specs:
        cold = analyze_spec(spec, full)
        assert cold.ok, cold.error
        methods[spec.package] = cold.method_count
    seconds = {spec.package: [] for spec in specs}
    for _ in range(_HIT_RUNS):
        for spec in specs:
            started = time.perf_counter()
            outcome = analyze_spec(spec, index)
            seconds[spec.package].append(time.perf_counter() - started)
            assert outcome.ok and outcome.index_restored, outcome.error
    return [
        (methods[spec.package], statistics.median(seconds[spec.package]))
        for spec in specs
    ]


def test_fig9b_index_hits_vs_app_size(benchmark, tmp_path):
    series = benchmark.pedantic(
        _index_hit_sweep, args=(tmp_path / "store",), rounds=1, iterations=1
    )
    growth = series[-1][1] / max(series[0][1], 1e-9)
    methods_growth = series[-1][0] / series[0][0]
    emit_table(
        "fig9b_index_hits",
        render_table(
            "Fig. 9b on the warm path: app size vs index-hit job time "
            f"(sink count fixed at {_FIXED_SINKS}, median of {_HIT_RUNS} jobs)",
            ["#Methods", "Job ms"],
            [[str(methods), f"{seconds * 1e3:.1f}"] for methods, seconds in series],
        )
        + f"\n\nindex-hit time growth {growth:.2f}x over {methods_growth:.2f}x "
        "method growth",
    )
    assert growth < methods_growth, "index hits grow sub-linearly with size"
