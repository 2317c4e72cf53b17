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
"""

import statistics

from benchmarks.conftest import emit_table, render_table, to_paper_minutes
from repro.core import BackDroid
from repro.workload.generator import AppSpec, generate_app
from repro.workload.patterns import PatternSpec

_SINK_COUNTS = (1, 5, 10, 20, 40, 60, 80, 100)
_SIZES = (20, 60, 120, 240)
_FIXED_FILLER = 60
_FIXED_SINKS = 10
_SIZE_RUNS = 5


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
