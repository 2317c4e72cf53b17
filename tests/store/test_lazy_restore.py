"""Tests for zero-copy lazy restores (the binary shard path).

Covers the laziness contract end to end: a fully binary warm entry
restores as a :class:`LazyTokenIndex` that (1) answers every needle
identically to a fresh fold, (2) decodes only the groups a query
touches — strictly fewer bytes than a query touching every group, and
(3) self-heals corrupt shard sections from the live disassembly.
Needles come from ``reference_index(disassembly)``, the direct fold of
the app.
"""

import gc
import struct
import warnings

import pytest

from repro.search.backends.indexed import TokenIndex
from repro.search.index import BytecodeSearcher
from repro.store import (
    ArtifactStore,
    LazyShardView,
    partition_disassembly,
    store_key,
)
from repro.store.binshard import FORMAT_VERSION
from repro.store.lazy import LazyTokenIndex
from repro.workload.generator import AppSpec, LibrarySpec, generate_app

from answer_parity import DESCRIPTOR_RE, assert_same_answers, reference_index

#: Shared library specs: each package prefix becomes its own shard
#: group, so the generated app restores as a genuinely multi-group
#: manifest.
_LIBS = tuple(
    LibrarySpec(package=f"org.lazylib{i}.sdk", seed=40 + i, classes=3)
    for i in range(5)
)


def _build_apk(seed=1):
    return generate_app(
        AppSpec(package="com.lazyhost.app", seed=seed, libraries=_LIBS)
    ).apk


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _warm_lazy(store, seed=1):
    """Publish the app and return a lazily restored index."""
    apk = _build_apk(seed)
    store.save_index(apk.disassembly)
    restored = store.load_index(_build_apk(seed).disassembly)
    assert isinstance(restored, LazyTokenIndex)
    return restored


def _sample_needles(fresh):
    """Needles of every shape a search sends, from live vocab."""
    descriptor = next(
        t for t in fresh.vocab if DESCRIPTOR_RE.fullmatch(t)
    )
    signature = next(t for t in fresh.vocab if ";." in t and ":" in t)
    return [
        fresh.vocab[0],              # a whole token text
        descriptor,                  # also inside signatures and protos
        signature,                   # also inside string values
        signature[2:-2],             # a mid-token substring
        "lazylib2",                  # a package name, in many tokens
        "Lcom/definitely/absent;",   # no group can answer
    ]


def _single_group_needle(fresh):
    """A descriptor only one library group's classes can answer."""
    return next(
        t for t in fresh.vocab
        if DESCRIPTOR_RE.fullmatch(t) and "lazylib3" in t
    )


class TestLazyRestoreShape:
    def test_full_binary_entry_restores_lazily(self, store):
        restored = _warm_lazy(store)
        assert restored.restored and restored.patched_groups == 0
        assert restored.build_seconds == 0.0
        assert restored.groups_total >= len(_LIBS)
        assert restored.materialized_groups == 0
        assert store.stats.index_hits == 1


    def test_empty_shard_takes_the_patching_path(self, store):
        # An empty file has no current header: the load publishes just
        # that group, republishes the manifest, and serves the same
        # lazy index.
        apk = _build_apk()
        store.save_index(apk.disassembly)
        key = store_key(apk.disassembly)
        victim = store._shard_path(partition_disassembly(apk.disassembly)[1].sha)
        victim.write_bytes(b"")
        assert store.probe(key).level == "partial"

        restored = store.load_index(_build_apk().disassembly)
        assert isinstance(restored, LazyTokenIndex)
        assert restored.patched_groups == 1
        assert restored.materialized_groups == 0
        assert victim.stat().st_size > 0
        assert (store.stats.index_hits, store.stats.partial_hits) == (0, 1)
        assert_same_answers(restored, reference_index(_build_apk().disassembly))
        assert restored.patched_groups == 1
        again = store.load_index(_build_apk().disassembly)
        assert isinstance(again, LazyTokenIndex)
        assert again.patched_groups == 0


class TestQueryParity:
    def test_every_needle_shape_matches_fresh_fold(self, store):
        restored = _warm_lazy(store)
        fresh = reference_index(_build_apk().disassembly)
        for needle in _sample_needles(fresh):
            assert restored.token_lines(needle) == \
                fresh.token_lines(needle), needle

    def test_partial_then_full_materialization_parity(self, store):
        # Query one group first, then every needle of the fresh fold:
        # each answer must equal the fold's, with every group decoded.
        restored = _warm_lazy(store)
        fresh = reference_index(_build_apk().disassembly)
        needle = _single_group_needle(fresh)
        assert restored.token_lines(needle) == fresh.token_lines(needle)
        assert 0 < restored.materialized_groups < restored.groups_total

        assert_same_answers(restored, fresh)
        assert restored.materialized_groups == restored.groups_total
        assert restored.posting_entries == fresh.posting_entries
        assert restored.token_lines(needle) == fresh.token_lines(needle)

    def test_subset_query_decodes_strictly_fewer_bytes(self, store):
        # The acceptance bar: a warm session touching a strict subset
        # of groups decodes strictly fewer bytes than a full restore.
        restored = _warm_lazy(store)
        fresh = reference_index(_build_apk().disassembly)
        restored.token_lines(_single_group_needle(fresh))
        subset_bytes = restored.bytes_decoded
        assert 0 < subset_bytes < restored.bytes_mapped

        assert_same_answers(restored, fresh)  # touches every group
        assert subset_bytes < restored.bytes_decoded

    def test_counters_stay_exact_without_materializing(self, store):
        restored = _warm_lazy(store)
        fresh = reference_index(_build_apk().disassembly)
        # Both counts come from the shard headers: posting_entries is
        # exact (disjoint line ranges), and vocab_size is the groups'
        # summed vocabularies, as on the cold index.
        cold = TokenIndex.for_disassembly(_build_apk().disassembly)
        assert restored.posting_entries == fresh.posting_entries
        assert restored.vocab_size == cold.vocab_size >= len(fresh.vocab)
        assert restored.materialized_groups == 0


class TestSelfHeal:
    def test_corrupt_shard_heals_from_live_disassembly(self, store):
        apk = _build_apk()
        store.save_index(apk.disassembly)
        # Flip bytes in the middle of one shard file: the header may
        # still parse, but a section CRC cannot.
        victim = store._shard_path(partition_disassembly(apk.disassembly)[2].sha)
        blob = bytearray(victim.read_bytes())
        mid = len(blob) // 2
        for i in range(mid, mid + 16):
            blob[i] ^= 0xFF
        victim.write_bytes(bytes(blob))

        restored = store.load_index(_build_apk().disassembly)
        assert isinstance(restored, LazyTokenIndex)  # header-only check
        fresh = reference_index(_build_apk().disassembly)
        for needle in _sample_needles(fresh):
            assert restored.token_lines(needle) == \
                fresh.token_lines(needle), needle
        assert restored.patched_groups >= 1
        assert store.stats.shards_patched >= 1
        # The heal republished the shard: the store verifies clean and
        # the next restore is an untouched lazy hit.
        assert all(entry.ok for entry in store.verify())
        again = store.load_index(_build_apk().disassembly)
        assert_same_answers(again, fresh)
        assert again.patched_groups == 0

    def _assert_heals_to_parity(self, store, victim, corrupt_entries):
        restored = store.load_index(_build_apk().disassembly)
        assert isinstance(restored, LazyTokenIndex)  # header-only check
        assert_same_answers(restored, reference_index(_build_apk().disassembly))
        assert restored.patched_groups == 1
        assert store.stats.shards_patched == 1
        assert store.stats.corrupt_entries == corrupt_entries
        # The heal republished a current shard in place.
        assert all(entry.ok for entry in store.verify())
        assert struct.unpack_from("<H", victim.read_bytes(), 4)[0] == \
            FORMAT_VERSION

    def test_truncated_shard_heals_from_live_disassembly(self, store):
        # Truncation leaves a parseable header whose section table
        # points past the end of the file: the container rejects it
        # structurally and the group is re-folded.
        apk = _build_apk()
        store.save_index(apk.disassembly)
        victim = store._shard_path(partition_disassembly(apk.disassembly)[2].sha)
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        self._assert_heals_to_parity(store, victim, corrupt_entries=1)

    def test_foreign_container_version_heals_like_rot(self, store):
        # One container version is accepted; a shard of any other
        # version is re-folded on first touch, never decoded.  It is
        # out of date, not damaged, so it is no corrupt entry.
        apk = _build_apk()
        store.save_index(apk.disassembly)
        victim = store._shard_path(partition_disassembly(apk.disassembly)[2].sha)
        blob = bytearray(victim.read_bytes())
        struct.pack_into("<H", blob, 4, 2)
        victim.write_bytes(bytes(blob))
        self._assert_heals_to_parity(store, victim, corrupt_entries=0)

    def test_backend_surfaces_lazy_stats(self, store):
        apk = _build_apk()
        store.save_index(apk.disassembly)
        searcher = BytecodeSearcher(
            _build_apk().disassembly, backend="indexed", store=store
        )
        fresh = reference_index(_build_apk().disassembly)
        searcher.backend.token_lines(_single_group_needle(fresh))
        described = searcher.backend.describe()
        assert described["index_restored"]
        assert described["index_build_seconds"] == 0.0
        assert 0 < described["materialized_groups"]
        assert 0 < described["bytes_decoded"] < described["bytes_mapped"]


class TestViewHandles:
    def test_dropped_view_leaves_no_file_open(self, store):
        # The mapping holds its own descriptor, so a view that is used
        # and then dropped without reset() must not leak a file object.
        apk = _build_apk()
        store.save_index(apk.disassembly)
        sha = partition_disassembly(apk.disassembly)[0].sha
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            view = LazyShardView(store._shard_path(sha), sha)
            assert view.mini_index()["vocab"]
            del view
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


class TestProbeNeverParses:
    def test_probe_is_stat_only_even_on_garbage(self, store):
        # Satellite fix: the advisory probe must never decode shard
        # payloads — a same-size garbage shard still probes "index"
        # (the real load heals it; probes are advisory by contract).
        apk = _build_apk()
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly)
        victim = store._shard_path(partition_disassembly(apk.disassembly)[0].sha)
        victim.write_bytes(b"\x00" * victim.stat().st_size)
        probe = store.probe(key)
        assert probe.level == "index"
        assert probe.shards_present == probe.shards_total


class TestCanonicalBytesCache:
    def test_save_then_verify_serializes_once_per_group(self, store):
        # Satellite fix: shard_key reuses the canonical token bytes
        # cached on the group object instead of re-dumping JSON.
        apk = _build_apk()
        groups = partition_disassembly(apk.disassembly)
        for group in groups:
            assert group.canonical_bytes() is group.canonical_bytes()
        # Hashing again (as verify's replay does) reuses the cache and
        # stays stable.
        from repro.store import shard_key

        for group in groups:
            assert shard_key(group) == group.sha
