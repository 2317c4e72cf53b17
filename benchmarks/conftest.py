"""Shared benchmark infrastructure.

The Sec. VI experiments all run over one corpus pass: every benchmark app
is generated once, analyzed by BackDroid and by the Amandroid-style
baseline, and the per-app rows are shared by the figure/table benchmarks
through a session fixture.  The FlowDroid-style CG generator, which only
Fig. 1 reads, runs over the corpus in a second pass, once per session and
only when Fig. 1 asks for it.

Environment knobs (all optional):

* ``REPRO_BENCH_APPS``    — corpus size (default 144, the paper's count);
* ``REPRO_BENCH_SCALE``   — bulk-code scale factor (default 1.0);
* ``REPRO_BENCH_TIMEOUT`` — scaled per-app timeout in seconds standing in
  for the paper's 300 minutes (default 5.0, i.e. 1 paper-minute ≈ 1/60 s).

Every benchmark writes its paper-style table to
``benchmarks/results/<name>.txt`` and echoes it into the terminal summary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import pytest

from repro.baseline import (
    AmandroidConfig,
    AmandroidStyleAnalyzer,
    FlowDroidConfig,
    FlowDroidStyleCallGraphGenerator,
)
from repro.core import BackDroid, BackDroidConfig
from repro.search.loops import LoopKind
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import generate_app
from repro.workload.patterns import GroundTruth

BENCH_APPS = int(os.environ.get("REPRO_BENCH_APPS", "144"))
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "5.0"))

#: The paper gave Amandroid 300 minutes; our budget is BENCH_TIMEOUT
#: seconds, so one paper-minute corresponds to this many wall seconds.
SECONDS_PER_PAPER_MINUTE = BENCH_TIMEOUT / 300.0

RESULTS_DIR = Path(__file__).parent / "results"

_REPORT_SECTIONS: list[tuple[str, str]] = []


def to_paper_minutes(seconds: float) -> float:
    """Convert measured wall seconds into paper-scale minutes."""
    return seconds / SECONDS_PER_PAPER_MINUTE


def emit_table(name: str, text: str) -> None:
    """Record a paper-style table: file + terminal summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    _REPORT_SECTIONS.append((name, text))
    print(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_SECTIONS:
        return
    terminalreporter.section("BackDroid reproduction tables")
    for name, text in _REPORT_SECTIONS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {name} =====")
        for line in text.splitlines():
            terminalreporter.write_line(line)


# ======================================================================
# The shared corpus pass
# ======================================================================


@dataclass
class AppRow:
    """Everything the figure/table benchmarks need for one app."""

    package: str
    size_mb: float
    truths: list[GroundTruth] = field(default_factory=list)
    has_hazard: bool = False
    # BackDroid
    bd_seconds: float = 0.0
    bd_sinks: int = 0
    bd_findings: list[tuple[str, str]] = field(default_factory=list)  # (rule, class)
    bd_cache_rate: float = 0.0
    bd_sink_cache_rate: float = 0.0
    bd_loop_counts: dict = field(default_factory=dict)
    # Amandroid-style baseline
    am_seconds: float = 0.0
    am_timed_out: bool = False
    am_error: Optional[str] = None
    am_findings: list[tuple[str, str]] = field(default_factory=list)
    # FlowDroid-style CG generation (filled by run_flowdroid_cg)
    fd_seconds: float = 0.0
    fd_timed_out: bool = False

    @property
    def bd_vulnerable(self) -> bool:
        return bool(self.bd_findings)

    @property
    def am_vulnerable(self) -> bool:
        return bool(self.am_findings)


_CORPUS_CACHE: Optional[list[AppRow]] = None
_FLOWDROID_DONE = False


def _prepared_app(index: int):
    """One corpus app, every class declared and its bodies built.

    Bulk classes declare their methods on first read.  BackDroid runs
    first and its clock covers its render, so declare every class here,
    untimed, as generation does for unsized specs.
    """
    generated = generate_app(benchmark_app_spec(index, scale=BENCH_SCALE))
    for cls in generated.apk.classes.application_classes():
        cls.methods
    return generated


def run_corpus() -> list[AppRow]:
    """Run BackDroid and the Amandroid-style baseline over the benchmark
    corpus (cached)."""
    global _CORPUS_CACHE
    if _CORPUS_CACHE is not None:
        return _CORPUS_CACHE

    backdroid = BackDroid(BackDroidConfig())
    amandroid = AmandroidStyleAnalyzer(AmandroidConfig(timeout_seconds=BENCH_TIMEOUT))

    rows: list[AppRow] = []
    for index in range(BENCH_APPS):
        generated = _prepared_app(index)
        apk = generated.apk
        row = AppRow(
            package=apk.package,
            size_mb=apk.size_mb,
            truths=list(generated.truths),
            has_hazard=generated.has_hazard,
        )

        bd_report = backdroid.analyze(apk)
        row.bd_seconds = bd_report.analysis_seconds
        row.bd_sinks = bd_report.sink_count
        row.bd_findings = [
            (f.rule, f.method.class_name) for f in bd_report.findings
        ]
        row.bd_cache_rate = bd_report.search_cache_rate
        row.bd_sink_cache_rate = bd_report.sink_cache_rate
        row.bd_loop_counts = dict(bd_report.loop_counts)

        am_report = amandroid.analyze(apk)
        row.am_seconds = am_report.analysis_seconds
        row.am_timed_out = am_report.timed_out
        row.am_error = am_report.error
        row.am_findings = [
            (f.rule, f.method.class_name) for f in am_report.findings
        ]

        rows.append(row)
    _CORPUS_CACHE = rows
    return rows


def run_flowdroid_cg() -> list[AppRow]:
    """:func:`run_corpus`'s rows with the FlowDroid CG columns filled,
    once per session.

    Each app is prepared as for the corpus pass, and its full class
    pool, which the tools that ran first left built, is built untimed
    too.
    """
    global _FLOWDROID_DONE
    rows = run_corpus()
    if _FLOWDROID_DONE:
        return rows
    flowdroid = FlowDroidStyleCallGraphGenerator(
        FlowDroidConfig(timeout_seconds=BENCH_TIMEOUT)
    )
    for index, row in enumerate(rows):
        apk = _prepared_app(index).apk
        apk.full_pool
        fd_report = flowdroid.generate(apk)
        row.fd_seconds = fd_report.generation_seconds
        row.fd_timed_out = fd_report.timed_out
    _FLOWDROID_DONE = True
    return rows


@pytest.fixture(scope="session")
def corpus_rows() -> list[AppRow]:
    return run_corpus()


def bucket_histogram(
    values_minutes: list[float], edges: list[tuple[str, float, float]]
) -> dict[str, int]:
    """Bucket paper-minute values into labelled ranges."""
    counts = {label: 0 for label, _, _ in edges}
    for value in values_minutes:
        for label, low, high in edges:
            if low <= value < high:
                counts[label] += 1
                break
    return counts


def render_table(title: str, header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width table rendering for the result files."""
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
