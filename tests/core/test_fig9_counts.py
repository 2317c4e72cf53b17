"""Fig. 9 in counts: analysis work follows the sinks, not the app size.

The paper's Fig. 9 claims BackDroid's cost depends on the number of
sink API calls analyzed rather than on the app's code size.  Timed
benches need many runs to show that; the analysis's own work counters
show it in one.  The sweep holds the sinks fixed (10 ``wrapper_chain``
patterns) and grows the bulk code from 213 to 3,893 methods, then runs
each app cold on both backends and as an index hit.  Every work count
must be equal at every size and on every path, and an index hit must
declare the same classes at every size (it reads no bulk class).

The seed is fixed: the bench's ``seed=filler`` would move the patterns
with the size.
"""

import pytest

from repro.api import AnalysisRequest, AnalysisSession
from repro.core import BackDroidConfig
from repro.core.batch import key_app
from repro.dex.disassembler import RestoredDisassembly
from repro.workload.generator import AppSpec, generate_app, spec_fingerprint
from repro.workload.patterns import PatternSpec

FILLER_CLASSES = (20, 120, 480)
PATTERNS = tuple(
    PatternSpec("wrapper_chain", insecure=(i % 3 == 0)) for i in range(10)
)


def _spec(filler_classes):
    return AppSpec(
        package="com.fig9.counts",
        seed=7,
        patterns=PATTERNS,
        filler_classes=filler_classes,
        size_mb=5.0,
    )


def _work(report):
    """The report's work counts, by name."""
    return {
        "search commands": report.search_cache_lookups,
        "token queries": report.backend_stats["token_queries"],
        "ssg units": sum(record.ssg_size for record in report.records),
        "findings": sorted(
            (f.rule, f.method.class_name) for f in report.findings
        ),
        "sinks": report.sink_count,
        "reachable sinks": report.reachable_sink_count,
    }


def _run(spec, config):
    """One job on a freshly generated app: the disassembly is restored
    from the store when the specmap knows the recipe, as
    :func:`~repro.core.batch.analyze_spec` does.  Returns the apk and
    the report."""
    apk = generate_app(spec).apk
    store = config.artifact_store()
    if store is not None:
        fingerprint = spec_fingerprint(spec)
        key_app(store, fingerprint, store.load_spec_key(fingerprint), apk)
    session = AnalysisSession.from_config(apk, config)
    return apk, session.run(AnalysisRequest.from_config(config)).report


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """``{(filler classes, path): report}`` plus the classes each index
    hit declared, as ``{filler classes: (declared, app classes)}``."""
    store_dir = str(tmp_path_factory.mktemp("fig9") / "store")
    linear = BackDroidConfig(search_backend="linear")
    indexed = BackDroidConfig(
        search_backend="indexed", store_dir=store_dir, store_mode="index"
    )
    reports, declared = {}, {}
    for filler in FILLER_CLASSES:
        spec = _spec(filler)
        reports[filler, "cold linear"] = _run(spec, linear)[1]
        reports[filler, "cold indexed"] = _run(spec, indexed)[1]
        apk, report = _run(spec, indexed)
        assert isinstance(apk.disassembly, RestoredDisassembly)
        assert report.backend_stats["index_restored"]
        reports[filler, "index hit"] = report
        classes = list(apk.classes.application_classes())
        declared[filler] = (
            sum(1 for cls in classes if cls._pending is None),
            len(classes),
        )
    return reports, declared


def test_analysis_work_is_equal_at_every_size_and_on_every_path(sweep):
    reports, _ = sweep
    work = {point: _work(report) for point, report in reports.items()}
    first = work[FILLER_CLASSES[0], "cold linear"]
    assert first["sinks"] == 10 and first["findings"]
    for point, counts in work.items():
        assert counts == first, point


def test_an_index_hit_declares_the_same_classes_at_every_size(sweep):
    _, declared = sweep
    counts = [declared[filler][0] for filler in FILLER_CLASSES]
    assert counts == [counts[0]] * len(counts)
    # The bulk grows, and the hit declares none of it.
    totals = [declared[filler][1] for filler in FILLER_CLASSES]
    assert totals == sorted(totals) and totals[-1] - totals[0] == 460
    assert counts[0] < totals[0]
