"""Cross-app shard dedup: two overlapping apps, one stored library.

Two synthetic apps embed the same vendored SDK.  The artifact store
splits each app's token stream and posting lists into per-class-group
*shards* keyed by content, so the SDK's shard is persisted exactly once:

1. app one is saved — its own group *and* the SDK group are published;
2. app two is saved — only its own group is new; the SDK shard is
   shared (``shards_shared`` counts it);
3. both apps restore to indexes that **answer every query** as a fresh
   fold of the app does;
4. a third app that was *never saved* still warm-starts: the SDK shard
   already on disk is served as it is, and only the app's own group is
   folded and published (``patched_groups`` — the incremental
   re-indexing path).

Run with::

    PYTHONPATH=src python examples/store_sharding.py
"""

import sys
import tempfile
from pathlib import Path

# Parity is checked against the test suite's reference fold, over its
# needle set: every vocabulary text, every descriptor- or
# signature-shaped substring of one, and a mid-token substring of each.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests/store"))

from answer_parity import assert_same_answers, reference_index  # noqa: E402
from repro.store import ArtifactStore, partition_disassembly  # noqa: E402
from repro.workload.generator import (  # noqa: E402
    AppSpec,
    LibrarySpec,
    generate_app,
)

SDK = LibrarySpec(package="org.vendored.sdk", seed=3, classes=20,
                  methods_per_class=6)


def _spec(package: str, seed: int) -> AppSpec:
    return AppSpec(package=package, seed=seed, filler_classes=6,
                   libraries=(SDK,))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="bdshard-demo-") as root:
        store = ArtifactStore(root)

        # --- save two apps that share the SDK ------------------------
        one = generate_app(_spec("com.example.alpha", 1)).apk.disassembly
        two = generate_app(_spec("com.example.beta", 2)).apk.disassembly
        store.save_index(one)
        store.save_index(two)
        inventory = store.describe()
        print(f"apps saved        : 2")
        print(f"unique shards     : {inventory.shards} "
              f"({inventory.shard_refs} manifest references)")
        print(f"bytes saved       : {inventory.bytes_saved} "
              f"(dedup ratio {inventory.dedup_ratio:.2f}x)")
        assert store.stats.shards_shared >= 1, "the SDK shard must dedup"
        assert inventory.shard_refs > inventory.shards

        # --- restores answer as fresh folds do -----------------------
        for spec in (_spec("com.example.alpha", 1), _spec("com.example.beta", 2)):
            disassembly = generate_app(spec).apk.disassembly
            restored = store.load_index(disassembly)
            assert restored is not None and restored.patched_groups == 0
            assert restored.build_seconds == 0.0
            assert_same_answers(restored, reference_index(disassembly))
        print("parity            : restored indexes answer as fresh folds")

        # --- a never-saved sibling app warm-starts off the SDK -------
        gamma = generate_app(_spec("com.example.gamma", 3)).apk.disassembly
        restored = store.load_index(gamma)
        assert restored is not None, "SDK shard should make this a partial hit"
        assert restored.patched_groups >= 1
        assert_same_answers(restored, reference_index(gamma))
        print(f"cross-app warm    : gamma served "
              f"{len(partition_disassembly(gamma)) - restored.patched_groups} shared "
              f"shard(s), folded {restored.patched_groups} of its own")
        print("store counters    :", store.stats.as_dict())


if __name__ == "__main__":
    main()
