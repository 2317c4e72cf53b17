"""Cross-app shard dedup — store size and restore cost vs. private stores.

Real corpora embed the same SDKs everywhere (the paper's Table I apps
are dominated by shared library code), so the artifact store shards
every app's token stream and posting lists per class group and keys
each shard by content.  This benchmark generates a corpus of apps that
all embed one large shared library, persists them two ways, and
compares:

* **private stores** — every app saved into its own store root, the
  pre-sharding cost model (no cross-app sharing possible);
* **shared store**  — all apps saved into one root, library shards
  published once and referenced by every manifest.

Acceptance bars (the ISSUE/CI gate):

* on the two-app corpus the shared store is at least **30% smaller**
  than the summed private stores;
* every restored index **answers as a fresh fold does**: for each
  vocabulary text of the fold and each descriptor- or signature-shaped
  substring of one, plus a mid-token substring of each (the needle set
  of ``tests/store/answer_parity.py``), ``token_lines`` returns the
  same lines;
* restoring an index from shards is **no slower than folding it from
  the token stream** — warm restores must stay cheaper than cold
  builds (the no-regression bar).  Both sides are timed as a job pays
  them: the cold build folds each group
  (``TokenIndex.for_disassembly``) and keys the app, which a cold job
  does to publish it; the restore keys the app and loads its index.

Knobs: ``REPRO_BENCH_SHARD_APPS`` sizes the full corpus (default 6;
the 30% bar is always measured on the first two apps).
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The parity bar asks the test suite's needle set (one generator) of
# the test suite's reference fold.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests/store"))

from answer_parity import assert_same_answers, reference_index  # noqa: E402
from benchmarks.conftest import emit_table, render_table  # noqa: E402
from repro.search.backends.indexed import TokenIndex  # noqa: E402
from repro.store import ArtifactStore, store_key  # noqa: E402
from repro.workload.generator import (  # noqa: E402
    AppSpec,
    LibrarySpec,
    generate_app,
)

SHARD_APPS = max(2, int(os.environ.get("REPRO_BENCH_SHARD_APPS", "6")))

#: One big vendored SDK, identical in every app of the corpus — sized
#: like the connectivity/ad SDKs that dominate the paper's Table I
#: apps (the library outweighs each app's own code).
SHARED_LIB = LibrarySpec(
    package="org.megasdk", seed=11, classes=120, methods_per_class=8
)


def _corpus_specs() -> list[AppSpec]:
    return [
        AppSpec(
            package=f"com.dedup.app{index}",
            seed=index,
            filler_classes=12,
            libraries=(SHARED_LIB,),
        )
        for index in range(SHARD_APPS)
    ]


def _fresh_disassembly(spec: AppSpec):
    return generate_app(spec).apk.disassembly


def _store_bytes(store: ArtifactStore) -> int:
    return store.describe().total_bytes


def run_sharding(root: str):
    specs = _corpus_specs()
    disassemblies = [_fresh_disassembly(spec) for spec in specs]

    private_bytes = []
    for index, disassembly in enumerate(disassemblies):
        private = ArtifactStore(os.path.join(root, f"private-{index}"))
        private.save_index(disassembly)
        private_bytes.append(_store_bytes(private))

    shared = ArtifactStore(os.path.join(root, "shared"))
    shared_sizes = []
    for disassembly in disassemblies:
        shared.save_index(disassembly)
        shared_sizes.append(_store_bytes(shared))

    # Restore timing vs. a cold build, on clean (unmemoized)
    # disassemblies.
    build_times, restore_times = [], []
    for spec in specs:
        cold = _fresh_disassembly(spec)
        started = time.perf_counter()
        TokenIndex.for_disassembly(cold)
        store_key(cold)
        build_times.append(time.perf_counter() - started)
        warm = _fresh_disassembly(spec)
        started = time.perf_counter()
        restored = shared.load_index(warm)
        restore_times.append(time.perf_counter() - started)
        assert restored is not None and restored.patched_groups == 0
        assert_same_answers(restored, reference_index(warm))
        # Freed here, so the next restore's timing does not include
        # tearing down this app's index and disassembly.
        del restored

    return {
        "private_bytes": private_bytes,
        "shared_sizes": shared_sizes,
        "inventory": shared.describe(),
        "build_times": build_times,
        "restore_times": restore_times,
    }


def test_store_sharding(benchmark):
    with tempfile.TemporaryDirectory(prefix="bdshard-bench-") as root:
        result = benchmark.pedantic(
            run_sharding, args=(root,), rounds=1, iterations=1
        )

    private = result["private_bytes"]
    shared = result["shared_sizes"]
    inventory = result["inventory"]

    # The ISSUE bar: >=30% smaller on a two-app corpus with one shared
    # library, measured against per-app private stores.
    two_app_private = private[0] + private[1]
    two_app_shared = shared[1]
    two_app_reduction = 1.0 - two_app_shared / two_app_private
    assert two_app_reduction >= 0.30, (
        f"two-app store shrank only {two_app_reduction:.1%} "
        f"({two_app_shared} vs {two_app_private} bytes)"
    )

    full_private = sum(private)
    full_shared = shared[-1]
    full_reduction = 1.0 - full_shared / full_private
    assert inventory.dedup_ratio > 1.0
    assert inventory.bytes_saved > 0

    # No warm-restore regression: restoring from shards must not cost
    # more than folding the index from scratch.
    build_median = statistics.median(result["build_times"])
    restore_median = statistics.median(result["restore_times"])
    assert restore_median <= build_median, (
        f"shard restore ({restore_median * 1e3:.2f} ms) slower "
        f"than a fresh fold ({build_median * 1e3:.2f} ms)"
    )

    rows = [
        [
            "2 apps",
            f"{two_app_private}",
            f"{two_app_shared}",
            f"{two_app_reduction:.1%}",
        ],
        [
            f"{SHARD_APPS} apps",
            f"{full_private}",
            f"{full_shared}",
            f"{full_reduction:.1%}",
        ],
    ]
    table = render_table(
        "Store bytes: private per-app roots vs one shared (deduped) root",
        ["corpus", "private B", "shared B", "reduction"],
        rows,
    )
    summary = [
        table,
        "",
        f"unique shards      : {inventory.shards} "
        f"({inventory.shard_refs} references)",
        f"dedup ratio        : {inventory.dedup_ratio:.2f}x "
        f"({inventory.bytes_saved} bytes saved)",
        f"fresh fold median  : {build_median * 1e3:.2f} ms",
        f"shard restore      : {restore_median * 1e3:.2f} ms "
        "(answers as the fresh fold)",
    ]
    emit_table("store_sharding", "\n".join(summary))
