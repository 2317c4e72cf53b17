"""Fig. 1 — FlowDroid's call-graph generation time for 144 modern apps.

Paper distribution (timeout = 5 hours = 300 paper-minutes):

    1m-5m: 31   5m-10m: 44   10m-20m: 20   20m-30m: 10
    30m-100m: 5   Timeout: 34  (24% timed out; median ~9.76 min)

Shape to reproduce: a substantial timeout fraction (~quarter of the
apps), a median around ~10 paper-minutes, and a CG-generation median
several times slower than BackDroid's *complete* analysis (the paper
reports 4.58x).
"""

import statistics

from benchmarks.conftest import (
    bucket_histogram,
    emit_table,
    render_table,
    run_flowdroid_cg,
    to_paper_minutes,
)

_PAPER_BUCKETS = {
    "1m-5m": 31,
    "5m-10m": 44,
    "10m-20m": 20,
    "20m-30m": 10,
    "30m-100m": 5,
    "Timeout": 34,
}

_EDGES = [
    ("0m-1m", 0.0, 1.0),
    ("1m-5m", 1.0, 5.0),
    ("5m-10m", 5.0, 10.0),
    ("10m-20m", 10.0, 20.0),
    ("20m-30m", 20.0, 30.0),
    ("30m-100m", 30.0, 100.0),
    ("100m-300m", 100.0, 300.0),
]


def test_fig1_flowdroid_callgraph_times(benchmark):
    rows = benchmark.pedantic(run_flowdroid_cg, rounds=1, iterations=1)

    finished = [r for r in rows if not r.fd_timed_out]
    timed_out = [r for r in rows if r.fd_timed_out]
    minutes = [to_paper_minutes(r.fd_seconds) for r in finished]
    histogram = bucket_histogram(minutes, _EDGES)
    histogram["Timeout"] = len(timed_out)

    table_rows = [
        [label, str(count), str(_PAPER_BUCKETS.get(label, "-"))]
        for label, count in histogram.items()
        if count or label in _PAPER_BUCKETS
    ]
    median_min = statistics.median(minutes) if minutes else float("nan")
    bd_median_min = statistics.median(
        to_paper_minutes(r.bd_seconds) for r in rows
    )
    summary = (
        f"\nFlowDroid CG generation: median {median_min:.2f} paper-min "
        f"(paper: 9.76), timeouts {len(timed_out)}/{len(rows)} "
        f"({len(timed_out) / len(rows):.0%}, paper: 24%)\n"
        f"CG-only vs BackDroid complete analysis: "
        f"{median_min / bd_median_min:.2f}x slower (paper: 4.58x)"
    )
    emit_table(
        "fig1_flowdroid_cg",
        render_table(
            "Fig. 1: FlowDroid call-graph generation time (144 modern apps)",
            ["Bucket", "#Apps", "#Apps(paper)"],
            table_rows,
        )
        + summary,
    )

    # Shape assertions.
    assert timed_out, "some apps must exceed the CG timeout"
    assert 0.05 <= len(timed_out) / len(rows) <= 0.5, "timeout share near 24%"
    assert median_min > bd_median_min, "CG-only slower than BackDroid's analysis"
