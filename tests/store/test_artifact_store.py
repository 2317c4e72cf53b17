"""Tests for the persistent warm-start artifact store.

Covers the store's four guarantees: restored artifacts answer and
report exactly as fresh builds do, stale entries (format-version or
content-hash mismatch) are invalidated, corrupted entries fall back to a
rebuild instead of failing, and the atomic-rename write protocol keeps
concurrent process-pool writers safe.
"""

import base64
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import struct
import time

import pytest

from repro.core import BackDroidConfig, analyze_spec, run_batch
from repro.core.batch import outcome_payload
from repro.search.backends.indexed import TokenIndex
from repro.search.index import BytecodeSearcher
from repro.store import ArtifactStore, partition_disassembly, store_key
from repro.store.artifacts import FORMAT_VERSION
from repro.store.lazy import LazyTokenIndex
from repro.store.binshard import (
    SEC_LAYOUT,
    SEC_TEXT,
    decode_shard,
    encode_shard,
    read_header,
)
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import (
    AppSpec,
    LibrarySpec,
    generate_app,
    spec_fingerprint,
)
from repro.workload.paperapps import build_heyzap, build_palcomp3

from answer_parity import assert_same_answers, reference_index


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _fresh_searcher(apk, store=None):
    return BytecodeSearcher(apk.disassembly, backend="indexed", store=store)


class TestKeying:
    def test_same_bytecode_same_key(self):
        assert store_key(build_heyzap().disassembly) == \
            store_key(build_heyzap().disassembly)

    def test_different_bytecode_different_key(self):
        assert store_key(build_heyzap().disassembly) != \
            store_key(build_palcomp3().disassembly)

    def test_key_memoized_per_disassembly(self):
        disassembly = build_heyzap().disassembly
        assert store_key(disassembly) is store_key(disassembly)


class TestIndexRoundTrip:
    def test_empty_store_misses(self, store):
        apk = build_heyzap()
        assert store.load_index(apk.disassembly) is None
        assert store.stats.index_misses == 1
        assert store.stats.index_hits == 0

    def test_restored_index_equals_fresh_build(self, store):
        apk = build_heyzap()
        fresh = TokenIndex.for_disassembly(apk.disassembly)
        store.save_index(apk.disassembly)

        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None
        assert restored.restored and not fresh.restored
        assert restored.build_seconds == 0.0
        assert_same_answers(restored, reference_index(apk.disassembly))
        assert restored.vocab_size == fresh.vocab_size
        assert restored.posting_entries == fresh.posting_entries
        assert store.stats.index_hits == 1

    def test_backend_restores_and_reports_zero_build(self, store):
        cold = _fresh_searcher(build_heyzap(), store=store)
        cold.backend.index  # build + save
        assert not cold.backend.stats.index_restored

        warm = _fresh_searcher(build_heyzap(), store=store)
        warm.backend.index
        assert warm.backend.stats.index_restored
        assert warm.backend.stats.index_build_seconds == 0.0

    def test_restored_index_shared_via_disassembly_memo(self, store):
        cold = _fresh_searcher(build_heyzap(), store=store)
        cold.backend.index
        apk = build_heyzap()
        first = _fresh_searcher(apk, store=store)
        second = _fresh_searcher(apk, store=store)
        assert first.backend.index is second.backend.index


def _only_shard_path(store, disassembly):
    """The shard file of a single-group app (asserts there is one)."""
    groups = partition_disassembly(disassembly)
    assert len(groups) == 1
    return store._shard_path(groups[0].sha)


def _set_container_version(path, version):
    """Rewrite a binary shard's header container version in place."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 4, version)
    path.write_bytes(bytes(blob))


def _retire_to_json_layout(store, disassembly):
    """Lay a published entry out as the retired v2 container did:
    ``.json`` shards (bytes as base64) beside a version-2 manifest.
    Returns the ``.json`` shard paths."""
    retired = []
    for group in partition_disassembly(disassembly):
        path = store._shard_path(group.sha)
        payload = decode_shard(path.read_bytes())
        payload["version"] = 2
        for name in ("text", "layout"):
            payload[name] = base64.b64encode(payload[name]).decode("ascii")
        json_path = path.with_suffix(".json")
        json_path.write_text(json.dumps(payload))
        path.unlink()
        retired.append(json_path)
    manifest_path = store._manifest_path(store_key(disassembly))
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 2
    manifest_path.write_text(json.dumps(manifest))
    return retired


class TestInvalidation:
    def test_corrupt_manifest_self_heals_on_index_load(self, store):
        # A torn manifest over intact shards must not wedge the entry:
        # the next load republishes it and probes go warm again.
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly)
        store._manifest_path(key).write_text("{torn")
        assert store.probe(key).level == "none"

        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None
        assert store.probe(key).level == "index"
        assert all(entry.ok for entry in store.verify())

    def test_probe_never_counts_corrupt_entries(self, store):
        # probe() is advisory: a scheduler probing one damaged manifest
        # on every submission must not inflate the load-path counter.
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly)
        store._manifest_path(key).write_text("{torn")
        before = store.stats.corrupt_entries
        for _ in range(5):
            store.probe(key)
        assert store.stats.corrupt_entries == before

    def _assert_manifest_rejected_then_republished(self, store, key):
        # The probe trusts no rejected manifest; the load serves the
        # intact shard, publishing nothing, and republishes the
        # manifest, so the next probe sees the entry again.
        assert store.probe(key).level == "none"
        restored = store.load_index(build_heyzap().disassembly)
        assert isinstance(restored, LazyTokenIndex)
        assert restored.patched_groups == 0
        assert store.stats.corrupt_entries >= 1
        assert store.probe(key).level == "index"
        again = store.load_index(build_heyzap().disassembly)
        assert isinstance(again, LazyTokenIndex)

    def test_manifest_version_mismatch_is_a_token_miss(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        key = store_key(apk.disassembly)
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))

        self._assert_manifest_rejected_then_republished(store, key)

    def test_manifest_key_mismatch_is_a_token_miss(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        key = store_key(apk.disassembly)
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))

        self._assert_manifest_rejected_then_republished(store, key)

    def test_changed_bytecode_never_hits_old_entry(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        assert store.load_index(build_palcomp3().disassembly) is None

    def test_garbage_shard_is_patched_in_place(self, store):
        # A torn shard is indistinguishable from a missing one: with
        # the app's only shard torn, the load is a miss, and the cold
        # build's save republishes the shard in place.
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        _only_shard_path(store, apk.disassembly).write_text("{not json at all")

        warm = _fresh_searcher(build_heyzap(), store=store)
        warm.backend.index  # must rebuild, not raise
        assert not warm.backend.stats.index_restored
        assert warm.backend.stats.index_build_seconds > 0.0
        assert store.stats.index_misses == 1
        assert_same_answers(warm.backend.index, reference_index(apk.disassembly))
        # The save republished the shard: a third run restores whole.
        third = _fresh_searcher(build_heyzap(), store=store)
        third.backend.index
        assert third.backend.stats.index_restored
        assert third.backend.stats.shards_patched == 0
        assert third.backend.stats.index_build_seconds == 0.0


class TestRetiredContainer:
    def test_store_of_another_container_version_is_no_hit(self, tmp_path):
        # Every shard, manifest and specmap entry stamped container
        # version 3: none of it is current, so the next batch restores
        # no index and republishes every shard, and the batch after
        # restores every app whole.
        config = _store_config(tmp_path, mode="index")
        specs = [benchmark_app_spec(i, scale=0.05) for i in range(3)]

        def batch():
            result = run_batch(
                specs, config, executor="serial", session_cache_size=0
            )
            assert not result.failures
            return result

        batch()
        root = tmp_path / "store"
        for shard in (root / "shards").rglob("*.bin"):
            _set_container_version(shard, 3)
        for path in [
            *(root / "objects").rglob("manifest.json"),
            *(root / "specmap").rglob("*.json"),
        ]:
            payload = json.loads(path.read_text())
            payload["version"] = 3
            path.write_text(json.dumps(payload))

        stale = batch()
        assert stale.index_restores == 0 and stale.shards_patched == 0
        warm = batch()
        assert warm.index_restores == 3 and warm.partial_restores == 0

    def test_v2_store_reads_as_a_miss_then_republishes(self, store):
        # Readers accept FORMAT_VERSION only: a store last written by
        # the retired JSON container is a cold miss, never an error,
        # and the rebuild publishes a lazily restorable current entry.
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        key = store_key(apk.disassembly)
        _retire_to_json_layout(store, apk.disassembly)

        assert store.probe(key).level == "none"
        assert store.describe().shards == 0
        (entry,) = store.verify()
        assert entry.status == "stale" and entry.ok
        assert store.load_index(build_heyzap().disassembly) is None

        store.save_index(apk.disassembly)
        restored = store.load_index(build_heyzap().disassembly)
        assert isinstance(restored, LazyTokenIndex)
        assert_same_answers(
            restored, reference_index(build_heyzap().disassembly)
        )
        (entry,) = store.verify()
        assert entry.status == "ok"

    def test_gc_sweeps_retired_shard_files_by_age(self, store):
        # No manifest references a retired file and no reader opens
        # one, so gc reclaims them by the unreferenced-shard age rule
        # while the live entry's shards stay put.
        retired_apk = build_heyzap()
        store.save_index(retired_apk.disassembly)
        retired = _retire_to_json_layout(store, retired_apk.disassembly)
        live = build_palcomp3()
        store.save_index(live.disassembly)

        result = store.gc(max_age_seconds=3600.0)
        assert result.shards_removed == 0
        assert all(path.is_file() for path in retired)

        aged = time.time() - 7200.0
        for path in retired:
            os.utime(path, (aged, aged))
        result = store.gc(max_age_seconds=3600.0)
        assert result.shards_removed == len(retired)
        assert not any(path.exists() for path in retired)
        assert isinstance(
            store.load_index(build_palcomp3().disassembly), LazyTokenIndex
        )

        # gc(0) still clears the whole store, retired files included.
        store.save_index(build_heyzap().disassembly)
        _retire_to_json_layout(store, build_heyzap().disassembly)
        store.gc()
        assert [p for p in store.root.rglob("*") if p.is_file()] == []


def _payload_without(outcome, *fields):
    payload = outcome_payload(outcome)
    for name in fields:
        del payload[name]
    return payload


def _store_config(tmp_path, mode="full", **kwargs):
    return BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode=mode,
        **kwargs,
    )


class TestOutcomeReuse:
    def test_second_run_is_a_store_hit(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)
        warm = analyze_spec(spec, config)
        assert not cold.store_hit
        assert warm.store_hit
        assert warm.findings == cold.findings
        assert warm.sink_count == cold.sink_count
        assert warm.package == cold.package

    def test_config_change_invalidates_outcome(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))
        other = analyze_spec(
            spec, _store_config(tmp_path, sink_rules=("open-port",))
        )
        assert not other.store_hit

    def test_backend_change_invalidates_outcome(self, tmp_path):
        # An outcome recorded under one backend must not be served to a
        # run configured for another: its backend/cache-stat fields
        # would misreport the run.
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))  # indexed
        other = analyze_spec(
            spec,
            BackDroidConfig(
                search_backend="linear",
                store_dir=str(tmp_path / "store"),
                store_mode="full",
            ),
        )
        assert not other.store_hit
        assert other.backend == "linear"

    def test_index_mode_never_reuses_outcomes(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        analyze_spec(spec, config)
        warm = analyze_spec(spec, config)
        assert not warm.store_hit
        assert warm.index_restored

    def test_corrupt_outcome_falls_back_to_analysis(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)
        store = config.artifact_store()
        outcome_files = [
            p for e in store.entries() for p in e.iterdir()
            if p.name.startswith("outcome-")
        ]
        assert outcome_files
        for path in outcome_files:
            path.write_text('{"version": 1, "outcome": "garbage"}')
        warm = analyze_spec(spec, config)
        assert not warm.store_hit
        assert warm.findings == cold.findings

    def test_warm_hit_is_served_without_generating(self, tmp_path, monkeypatch):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)

        def refuse(spec):
            raise AssertionError("a warm full-mode hit generated the app")

        monkeypatch.setattr("repro.core.batch.generate_app", refuse)
        warm = analyze_spec(spec, config)
        assert warm.ok and warm.store_hit
        # A restore builds no index, so its build time reads 0.
        assert _payload_without(
            warm, "seconds", "store_hit", "index_build_seconds"
        ) == _payload_without(
            cold, "seconds", "store_hit", "index_build_seconds"
        )

    def test_specmap_and_disassembly_paths_serve_identical_payloads(
        self, tmp_path
    ):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        analyze_spec(spec, config)
        via_specmap = analyze_spec(spec, config)
        store = config.artifact_store()
        store._spec_path(spec_fingerprint(spec)).unlink()
        via_disassembly = analyze_spec(spec, config)
        assert via_specmap.store_hit and via_disassembly.store_hit
        assert _payload_without(via_specmap, "seconds") == _payload_without(
            via_disassembly, "seconds"
        )
        assert store.load_spec_key(spec_fingerprint(spec)) is not None

    def test_specmap_entry_without_an_outcome_falls_through(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        store = config.artifact_store()
        store.save_spec_key(spec_fingerprint(spec), "ff" * 32)
        outcome = analyze_spec(spec, config)
        assert outcome.ok and not outcome.store_hit
        assert store.load_spec_key(spec_fingerprint(spec)) == store_key(
            generate_app(spec).apk.disassembly
        )

    def test_specmap_entry_leading_to_another_package_is_refused(
        self, tmp_path
    ):
        spec = benchmark_app_spec(0, scale=0.05)
        other = benchmark_app_spec(1, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)
        analyze_spec(other, config)
        store = config.artifact_store()
        own_key = store.load_spec_key(spec_fingerprint(spec))
        store.save_spec_key(
            spec_fingerprint(spec), store.load_spec_key(spec_fingerprint(other))
        )
        warm = analyze_spec(spec, config)
        # Refused, then served from this app's own outcome under the
        # key its disassembly hashes to.
        assert warm.ok and warm.store_hit
        assert warm.package == cold.package
        assert warm.findings == cold.findings
        assert store.load_spec_key(spec_fingerprint(spec)) == own_key

    def test_fast_path_miss_reads_the_specmap_once(self, tmp_path, monkeypatch):
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))
        reads = []
        real = ArtifactStore.load_spec_key

        def counted(self, fingerprint):
            reads.append(fingerprint)
            return real(self, fingerprint)

        monkeypatch.setattr(ArtifactStore, "load_spec_key", counted)
        # Same app, new rules: the entry is current, the outcome is not.
        rescan = analyze_spec(
            spec, _store_config(tmp_path, sink_rules=("open-port",))
        )
        assert rescan.ok and not rescan.store_hit
        assert len(reads) == 1

    def test_unknown_store_mode_rejected(self, tmp_path):
        config = _store_config(tmp_path, mode="quantum")
        outcome = analyze_spec(benchmark_app_spec(0, scale=0.05), config)
        assert not outcome.ok
        assert "unknown store mode" in outcome.error


#: Outcome fields an index hit legitimately reports differently from the
#: cold run that published its entry: timing, and how the index was
#: obtained (restored lazily instead of folded).
_RESTORE_FIELDS = (
    "seconds", "index_build_seconds", "index_restored",
    "materialized_groups", "bytes_mapped", "bytes_decoded",
)


def _count_renders(monkeypatch):
    """Count every fresh render (``disassemble`` calls) from here on."""
    import repro.dex.disassembler as disassembler

    calls = []
    real = disassembler.disassemble

    def counted(pool):
        calls.append(pool)
        return real(pool)

    monkeypatch.setattr(disassembler, "disassemble", counted)
    return calls


class TestDisassemblyRestore:
    def test_index_hit_restores_without_rendering(self, tmp_path, monkeypatch):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        cold = analyze_spec(spec, config)

        def refuse(pool):
            raise AssertionError("an index hit rendered the app")

        monkeypatch.setattr("repro.dex.disassembler.disassemble", refuse)
        warm = analyze_spec(spec, config)
        assert warm.ok, warm.error
        assert warm.index_restored and not warm.store_hit
        assert warm.shards_patched == 0
        assert _payload_without(warm, *_RESTORE_FIELDS) == _payload_without(
            cold, *_RESTORE_FIELDS
        )

    def test_full_mode_rescan_under_new_rules_restores_too(
        self, tmp_path, monkeypatch
    ):
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))
        renders = _count_renders(monkeypatch)
        rescan = analyze_spec(
            spec, _store_config(tmp_path, sink_rules=("open-port",))
        )
        assert rescan.ok and not rescan.store_hit and rescan.index_restored
        assert renders == []

    @pytest.mark.parametrize("section", [SEC_TEXT, SEC_LAYOUT])
    def test_damaged_section_is_refused_then_healed(
        self, tmp_path, monkeypatch, section
    ):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        cold = analyze_spec(spec, config)
        store = config.artifact_store()
        groups = partition_disassembly(generate_app(spec).apk.disassembly)
        path = store._shard_path(groups[0].sha)
        intact = path.read_bytes()
        _, offset, length = read_header(intact).sections[section]
        damaged = bytearray(intact)
        damaged[offset + length // 2] ^= 0xFF
        path.write_bytes(bytes(damaged))

        renders = _count_renders(monkeypatch)
        healed = analyze_spec(spec, config)
        assert healed.ok, healed.error
        # Refused: the heal rendered the app, and the job kept that
        # render instead of rendering it again.
        assert len(renders) == 1
        assert _payload_without(healed, *_RESTORE_FIELDS) == \
            _payload_without(cold, *_RESTORE_FIELDS)
        # One damaged entry, one republished shard; the index the job
        # then restored needed no patch.
        assert store.stats.corrupt_entries == 1
        assert store.stats.shards_patched == 1
        assert healed.index_restored and healed.shards_patched == 0
        assert path.read_bytes() == intact
        assert all(entry.ok for entry in store.verify())

        renders.clear()
        again = analyze_spec(spec, config)
        assert again.ok and renders == []

    @pytest.mark.parametrize("field", ["text", "layout"])
    def test_crc_clean_rewrite_is_refused_by_the_digests(
        self, tmp_path, monkeypatch, field
    ):
        # Re-encoded under the same content address, the section passes
        # its CRC: the composed text must still hash to the app key and
        # the layouts to the manifest's layout digest.
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        cold = analyze_spec(spec, config)
        store = config.artifact_store()
        groups = partition_disassembly(generate_app(spec).apk.disassembly)
        path = store._shard_path(groups[0].sha)
        intact = path.read_bytes()
        payload = decode_shard(intact)
        blob = bytearray(payload[field])
        blob[len(blob) // 2] ^= 0x01
        payload[field] = bytes(blob)
        path.write_bytes(encode_shard(payload, payload["key"]))

        renders = _count_renders(monkeypatch)
        healed = analyze_spec(spec, config)
        assert healed.ok, healed.error
        assert renders
        assert _payload_without(healed, *_RESTORE_FIELDS) == \
            _payload_without(cold, *_RESTORE_FIELDS)
        assert path.read_bytes() == intact

    def test_specmap_entry_pointing_at_another_apps_key_is_refused(
        self, tmp_path, monkeypatch
    ):
        spec = benchmark_app_spec(0, scale=0.05)
        other = benchmark_app_spec(1, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        cold = analyze_spec(spec, config)
        analyze_spec(other, config)
        store = config.artifact_store()
        own_key = store.load_spec_key(spec_fingerprint(spec))
        store.save_spec_key(
            spec_fingerprint(spec), store.load_spec_key(spec_fingerprint(other))
        )
        renders = _count_renders(monkeypatch)
        warm = analyze_spec(spec, config)
        assert warm.ok and warm.package == cold.package
        assert renders  # the other app's text was not adopted
        assert _payload_without(warm, *_RESTORE_FIELDS) == _payload_without(
            cold, *_RESTORE_FIELDS
        )
        assert store.load_spec_key(spec_fingerprint(spec)) == own_key


def _generated_apks(monkeypatch):
    """Every app ``analyze_spec`` generates from here on."""
    import repro.core.batch as batch

    apks = []
    real = batch.generate_app

    def capture(spec):
        app = real(spec)
        apks.append(app.apk)
        return app

    monkeypatch.setattr(batch, "generate_app", capture)
    return apks


def _bulk_classes(apk):
    """Filler, launcher and library classes: name -> whether the class
    declared its methods."""
    return {
        cls.name: cls._pending is None
        for cls in apk.classes.application_classes()
        if ".gen.Filler" in cls.name or ".core.Component" in cls.name
        or cls.name.endswith(".gen.LauncherActivity")
    }


class TestLazyDeclarations:
    """Bulk classes declare their methods on first read (deferred
    classes)."""

    SPEC = dataclasses.replace(
        benchmark_app_spec(3, scale=0.2),
        libraries=(LibrarySpec("com.lib.lazy", seed=4),),
    )

    def test_index_hit_declares_no_bulk_class(self, tmp_path, monkeypatch):
        config = _store_config(tmp_path, mode="index")
        cold = analyze_spec(self.SPEC, config)
        apks = _generated_apks(monkeypatch)
        warm = analyze_spec(self.SPEC, config)
        assert warm.ok and warm.index_restored, warm.error
        (apk,) = apks
        bulk = _bulk_classes(apk)
        assert any(".gen.Filler" in name for name in bulk)
        assert any(".core.Component" in name for name in bulk)
        assert any(name.endswith(".gen.LauncherActivity") for name in bulk)
        assert not any(bulk.values()), sorted(n for n, b in bulk.items() if b)
        assert warm.findings == cold.findings
        assert _payload_without(warm, *_RESTORE_FIELDS) == _payload_without(
            cold, *_RESTORE_FIELDS
        )

    def test_cold_run_renders_what_a_declared_app_renders(
        self, tmp_path, monkeypatch
    ):
        config = _store_config(tmp_path)
        apks = _generated_apks(monkeypatch)
        assert analyze_spec(self.SPEC, config).ok
        (apk,) = apks
        assert all(_bulk_classes(apk).values())  # its render declared them
        declared = generate_app(self.SPEC).apk
        for cls in declared.classes.application_classes():
            cls.methods
        assert all(_bulk_classes(declared).values())
        assert apk.disassembly.lines == declared.disassembly.lines
        store = config.artifact_store()
        assert store.load_spec_key(spec_fingerprint(self.SPEC)) == store_key(
            declared.disassembly
        )


class TestNoReferenceCycles:
    def test_jobs_leave_nothing_for_the_cyclic_collector(self, tmp_path):
        spec = benchmark_app_spec(1, scale=0.2)

        def run(config):
            gc.collect()
            gc.disable()
            try:
                outcome = analyze_spec(spec, config)
                return outcome, gc.collect()
            finally:
                gc.enable()

        cold, cold_garbage = run(_store_config(tmp_path))
        index_hit, index_garbage = run(_store_config(tmp_path, mode="index"))
        outcome_hit, outcome_garbage = run(_store_config(tmp_path))
        assert cold.ok and not cold.store_hit, cold.error
        assert index_hit.index_restored and not index_hit.store_hit
        assert outcome_hit.store_hit
        assert (cold_garbage, index_garbage, outcome_garbage) == (0, 0, 0)


class TestConcurrency:
    def test_process_pool_writers_then_warm_run(self, tmp_path):
        specs = [benchmark_app_spec(i, scale=0.05) for i in range(4)]
        config = _store_config(tmp_path)
        cold = run_batch(specs, config, executor="process", max_workers=4)
        assert not cold.failures
        assert cold.store_hits == 0

        warm = run_batch(specs, config, executor="process", max_workers=4)
        assert not warm.failures
        assert warm.store_hits == len(specs)
        assert warm.warm_hit_rate == 1.0
        assert [o.findings for o in warm.outcomes] == \
            [o.findings for o in cold.outcomes]

    def test_no_temp_files_left_behind(self, tmp_path):
        specs = [benchmark_app_spec(i, scale=0.05) for i in range(3)]
        config = _store_config(tmp_path)
        run_batch(specs, config, executor="process", max_workers=3)
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []

    def test_duplicate_specs_race_benignly(self, tmp_path):
        # Same app analyzed by several workers at once: every writer
        # publishes identical content, so last-rename-wins is safe.
        specs = [benchmark_app_spec(0, scale=0.05)] * 4
        config = _store_config(tmp_path)
        result = run_batch(specs, config, executor="process", max_workers=4)
        assert not result.failures
        store = config.artifact_store()
        restored = store.load_index(generate_app(specs[0]).apk.disassembly)
        assert restored is not None

    def test_concurrent_specmap_writers_never_tear_a_read(self, tmp_path):
        # Every cluster node publishes specmap entries.  Writers racing
        # on one fingerprint publish identical content by atomic rename,
        # so a reader polling throughout sees no entry or the right one.
        # One race is short, so it runs on a few fresh stores.
        mapping = {
            hashlib.sha256(b"spec%d" % i).hexdigest(): hashlib.sha256(
                b"key%d" % i
            ).hexdigest()
            for i in range(200)
        }
        context = multiprocessing.get_context("fork")
        for round_no in range(5):
            root = tmp_path / f"store{round_no}"
            writers = [
                context.Process(target=_publish_specmap, args=(root, mapping))
                for _ in range(4)
            ]
            for writer in writers:
                writer.start()
            store = ArtifactStore(root)
            deadline = time.monotonic() + 30.0
            polls = 0
            while polls == 0 or any(writer.is_alive() for writer in writers):
                assert time.monotonic() < deadline, "specmap writers hung"
                for fingerprint, key in mapping.items():
                    assert store.load_spec_key(fingerprint) in (None, key)
                polls += 1
            for writer in writers:
                writer.join(timeout=10.0)
                assert writer.exitcode == 0
            assert store.stats.corrupt_entries == 0
            for fingerprint, key in mapping.items():
                assert store.load_spec_key(fingerprint) == key
            assert list((root / "specmap").rglob("*.tmp")) == []


def _publish_specmap(root, mapping):
    """One forked specmap writer (see the concurrency test above)."""
    store = ArtifactStore(root)
    for fingerprint, key in mapping.items():
        store.save_spec_key(fingerprint, key)


class TestMaintenance:
    def test_describe_counts_entries_and_kinds(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        inventory = store.describe()
        assert inventory.entries == 1
        assert inventory.files_by_kind["manifest"] == 1
        assert inventory.files_by_kind["shard"] >= 1
        assert inventory.shards == inventory.files_by_kind["shard"]
        assert inventory.shard_refs == inventory.shards  # one app: no sharing
        assert inventory.logical_shard_bytes == inventory.shard_bytes
        assert inventory.dedup_ratio == 1.0 and inventory.bytes_saved == 0
        assert inventory.total_bytes > 0
        assert "entries     : 1" in inventory.render()
        assert "dedup ratio" in inventory.render()

    def test_gc_clears_everything_by_default(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        result = store.gc()
        assert result.entries_removed == 1
        assert result.shards_removed >= 1
        assert result.bytes_reclaimed > 0
        inventory = store.describe()
        assert inventory.entries == 0 and inventory.shards == 0

    def test_gc_keeps_fresh_entries(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        result = store.gc(max_age_seconds=3600.0)
        assert result.entries_removed == 0 and result.shards_removed == 0
        inventory = store.describe()
        assert inventory.entries == 1 and inventory.shards >= 1

    def test_describe_empty_store(self, store):
        inventory = store.describe()
        assert inventory.entries == 0
        assert inventory.total_bytes == 0


class TestProbe:
    def test_probe_levels_escalate_with_artifacts(self, store):
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        assert store.probe(key).level == "none"

        # Shards fold their own mini-indexes, so a save without a
        # prebuilt index already publishes a fully restorable entry.
        store.save_index(apk.disassembly)
        probe = store.probe(key)
        assert probe.level == "index" and probe.warm
        assert probe.shards_total == probe.shards_present >= 1

        store.save_outcome(key, "cfg1", {"package": "x"})
        assert store.probe(key, "cfg1").level == "outcome"
        # A different config's probe does not see that outcome.
        assert store.probe(key, "cfg2").level == "index"
        assert store.probe(key).level == "index"

    def test_probe_reports_partial_when_a_shard_is_missing(self, store):
        lib = LibrarySpec(package="org.probed.sdk", seed=3, classes=4)
        apk = generate_app(
            AppSpec(package="com.probe.host", seed=1, libraries=(lib,))
        ).apk
        store.save_index(apk.disassembly)
        key = store_key(apk.disassembly)
        groups = partition_disassembly(apk.disassembly)
        assert len(groups) >= 2
        store._shard_path(groups[0].sha).unlink()

        probe = store.probe(key)
        assert probe.level == "partial" and probe.warm
        assert probe.shards_present == probe.shards_total - 1

        # With every shard gone the manifest alone offers no warmth.
        for group in groups[1:]:
            store._shard_path(group.sha).unlink()
        assert store.probe(key).level == "none"

    def test_spec_key_round_trip(self, store):
        assert store.load_spec_key("ab" * 8) is None
        store.save_spec_key("ab" * 8, "deadbeef" * 8)
        assert store.load_spec_key("ab" * 8) == "deadbeef" * 8

    def test_spec_key_self_heals_on_remap(self, store):
        # A generator change survived by the store: the next analysis
        # overwrites the stale mapping instead of misrouting forever.
        store.save_spec_key("ab" * 8, "old0" * 16)
        store.save_spec_key("ab" * 8, "new1" * 16)
        assert store.load_spec_key("ab" * 8) == "new1" * 16

    def test_gc_and_describe_cover_the_specmap(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly)
        store.save_spec_key("ab" * 8, store_key(apk.disassembly))

        inventory = store.describe()
        assert inventory.files_by_kind["specmap"] == 1
        result = store.gc()
        assert result.entries_removed == 1 and result.bytes_reclaimed > 0
        assert store.load_spec_key("ab" * 8) is None
        assert store.describe().files_by_kind == {}

    def test_analyze_spec_records_the_spec_mapping(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        assert analyze_spec(spec, config).ok
        store = config.artifact_store()
        key = store.load_spec_key(spec_fingerprint(spec))
        assert key == store_key(generate_app(spec).apk.disassembly)
        assert store.probe(key).warm


class TestSpecmapWrites:
    FINGERPRINT = "ab" * 8
    TARGET = "deadbeef" * 8

    def test_current_entry_is_not_rewritten(self, store):
        store.save_spec_key(self.FINGERPRINT, self.TARGET)
        writes = store.stats.writes
        store.save_spec_key(self.FINGERPRINT, self.TARGET)
        assert store.stats.writes == writes
        assert store.load_spec_key(self.FINGERPRINT) == self.TARGET

    def test_torn_entry_reads_as_a_miss_then_is_rewritten(self, store):
        store.save_spec_key(self.FINGERPRINT, self.TARGET)
        store._spec_path(self.FINGERPRINT).write_text("{torn")
        before = store.stats.corrupt_entries
        assert store.load_spec_key(self.FINGERPRINT) is None
        assert store.stats.corrupt_entries == before + 1
        store.save_spec_key(self.FINGERPRINT, self.TARGET)
        assert store.load_spec_key(self.FINGERPRINT) == self.TARGET

    def test_foreign_version_entry_reads_as_a_miss(self, store):
        # One accepted version for every artifact, specmap included: an
        # entry of any other version is stale, and the next save
        # republishes it under FORMAT_VERSION.
        path = store._spec_path(self.FINGERPRINT)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "version": 2, "key": self.FINGERPRINT, "target": self.TARGET,
        }))
        assert store.load_spec_key(self.FINGERPRINT) is None
        store.save_spec_key(self.FINGERPRINT, self.TARGET)
        assert json.loads(path.read_text())["version"] == FORMAT_VERSION
        assert store.load_spec_key(self.FINGERPRINT) == self.TARGET

    def test_entry_without_a_target_reads_as_a_miss(self, store):
        path = store._spec_path(self.FINGERPRINT)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "version": FORMAT_VERSION, "key": self.FINGERPRINT, "target": "",
        }))
        before = store.stats.corrupt_entries
        assert store.load_spec_key(self.FINGERPRINT) is None
        assert store.stats.corrupt_entries == before + 1

    def test_failed_publish_keeps_the_previous_entry(self, store, monkeypatch):
        # The write protocol is temp file + atomic rename: a publish
        # that dies before the rename leaves the old entry readable
        # and removes its temp file.
        store.save_spec_key(self.FINGERPRINT, "old0" * 16)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("repro.store.artifacts.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            store.save_spec_key(self.FINGERPRINT, self.TARGET)
        monkeypatch.undo()
        assert store.load_spec_key(self.FINGERPRINT) == "old0" * 16
        assert list((store.root / "specmap").rglob("*.tmp")) == []


class TestVerify:
    def _populate(self, store, apk):
        store.save_index(apk.disassembly)
        return store_key(apk.disassembly)

    def test_intact_store_verifies_clean(self, store):
        keys = {
            self._populate(store, build_heyzap()),
            self._populate(store, build_palcomp3()),
        }
        results = store.verify()
        assert {entry.key for entry in results} == keys
        assert all(entry.status == "ok" and entry.ok for entry in results)

    def test_tampered_postings_detected(self, store):
        # CRC-clean bytes whose posting lists lie: decode, shift every
        # line in one posting, re-encode under the same content address.
        apk = build_heyzap()
        self._populate(store, apk)
        path = _only_shard_path(store, apk.disassembly)
        payload = decode_shard(path.read_bytes())
        payload["postings"][0] = [line + 1 for line in payload["postings"][0]]
        path.write_bytes(encode_shard(payload, payload["key"]))

        (entry,) = store.verify()
        assert entry.status == "mismatch" and not entry.ok
        assert "postings" in entry.detail

    def test_shard_swap_breaks_the_content_address(self, store):
        # A shard replaced by *another group's valid content* passes the
        # mini-index parity check but fails the content-address replay.
        apk = build_heyzap()
        other = build_palcomp3()
        self._populate(store, apk)
        self._populate(store, other)
        target = _only_shard_path(store, apk.disassembly)
        impostor = _only_shard_path(store, other.disassembly)
        payload = decode_shard(impostor.read_bytes())
        target.write_bytes(
            encode_shard(payload, partition_disassembly(apk.disassembly)[0].sha)
        )

        statuses = {entry.key: entry for entry in store.verify()}
        bad = statuses[store_key(apk.disassembly)]
        assert bad.status == "mismatch" and "content address" in bad.detail
        assert statuses[store_key(other.disassembly)].status == "ok"

    def test_unreadable_shard_reported_corrupt(self, store):
        apk = build_heyzap()
        self._populate(store, apk)
        _only_shard_path(store, apk.disassembly).write_text("{torn")
        (entry,) = store.verify()
        assert entry.status == "corrupt" and not entry.ok

    def test_missing_shard_flagged(self, store):
        apk = build_heyzap()
        self._populate(store, apk)
        _only_shard_path(store, apk.disassembly).unlink()
        (entry,) = store.verify()
        assert entry.status == "missing-shard" and not entry.ok

    def test_shifted_manifest_offset_detected(self, store):
        # Shards verify clean individually; a corrupted start_line would
        # compose postings onto the wrong absolute lines, so verify must
        # check that group offsets tile.
        lib = LibrarySpec(package="org.tiled.sdk", seed=5, classes=4)
        apk = generate_app(
            AppSpec(package="com.tiled.host", seed=1, libraries=(lib,))
        ).apk
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly)
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        assert len(payload["groups"]) >= 2
        payload["groups"][1]["start_line"] += 3
        path.write_text(json.dumps(payload))

        entries = {e.key: e for e in store.verify()}
        assert entries[key].status == "mismatch"
        assert "tile" in entries[key].detail

    def test_torn_manifest_reported_corrupt(self, store):
        key = self._populate(store, build_heyzap())
        store._manifest_path(key).write_text("{torn")
        (entry,) = store.verify()
        assert entry.status == "corrupt" and not entry.ok
        assert "manifest" in entry.detail

    def test_outcome_only_entry_skipped(self, store):
        apk = build_heyzap()
        store.save_outcome(store_key(apk.disassembly), "cfg", {"package": "x"})
        (entry,) = store.verify()
        assert entry.status == "no-index" and entry.ok

    def test_stale_format_version_is_a_skip_not_a_failure(self, store):
        # A store written by an older format (e.g. restored from a CI
        # cache prefix) is rebuilt by live runs, never "corruption".
        key = self._populate(store, build_heyzap())
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        # v1 predates shards; v2 is the retired JSON shard container;
        # v3 shards also carried string ids, a containment map and a
        # CRC filter.
        for version in (1, 2, 3):
            payload["version"] = version
            path.write_text(json.dumps(payload))

            (entry,) = store.verify()
            assert entry.status == "stale" and entry.ok, version

    def test_foreign_container_version_shard_is_a_skip(self, store):
        # A shard of another container version is stale, not corrupt:
        # the next load re-folds it from the live disassembly.
        apk = build_heyzap()
        self._populate(store, apk)
        _set_container_version(_only_shard_path(store, apk.disassembly), 2)
        (entry,) = store.verify()
        assert entry.status == "stale" and entry.ok
        assert "older format version" in entry.detail

    def test_tampered_token_stream_breaks_the_content_address(self, store):
        # Shards keep their token stream so verify can hash it: a
        # CRC-clean stream that no longer matches the shard's name is
        # caught even though the stored mini-index is untouched.
        apk = build_heyzap()
        self._populate(store, apk)
        path = _only_shard_path(store, apk.disassembly)
        payload = decode_shard(path.read_bytes())
        rel, kind, text = payload["tokens"][0]
        payload["tokens"][0] = (rel + 1, kind, text)
        path.write_bytes(encode_shard(payload, payload["key"]))

        (entry,) = store.verify()
        assert entry.status == "mismatch" and not entry.ok
        assert "content address" in entry.detail
