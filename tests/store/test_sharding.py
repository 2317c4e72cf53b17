"""Cross-app shard dedup: partitioning, sharing, refcounted gc, parity.

The contracts under test, in the order the satellite checklist names
them: two apps embedding one library persist its shard exactly once; gc
never sweeps a shard any live manifest still references; a manifest
pointing at a missing shard reads as a miss (and the index path patches
only the damaged group); and an app's index, cold or restored from
shards, answers every query exactly as a direct fold of the app does.
"""

import os
import time

import pytest

from repro.core import BackDroidConfig, analyze_spec, run_batch
from repro.dex.disassembler import PREAMBLE, Disassembly
from repro.search.backends.indexed import (
    InvertedIndexBackend,
    TokenIndex,
    fold_tokens,
)
from repro.search.backends.linear import LinearScanBackend
from repro.store import (
    ArtifactStore,
    group_label,
    partition_disassembly,
    shard_key,
    store_key,
)
from repro.store.binshard import (
    SEC_VOCAB,
    decode_shard,
    encode_shard,
    read_header,
)
from repro.store.lazy import LazyTokenIndex
from repro.store.sharding import shard_payload, tokens_from_shard
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import (
    build_heyzap,
    build_lg_tv_plus,
    build_palcomp3,
)

from answer_parity import (
    app_tokens,
    assert_same_answers,
    reference_index,
    token_needles,
)

SHARED_LIB = LibrarySpec(
    package="org.sharedsdk", seed=7, classes=10, methods_per_class=5
)
OTHER_LIB = LibrarySpec(
    package="net.othersdk", seed=3, classes=4, methods_per_class=3
)


def _app(package, seed, libraries=(SHARED_LIB,)):
    return AppSpec(
        package=package, seed=seed, libraries=libraries, filler_classes=4
    )


def _corpus_app(index):
    return lambda: generate_app(benchmark_app_spec(index, scale=0.05)).apk


def _five_library_app():
    return generate_app(AppSpec(
        package="com.lazyhost.app",
        seed=1,
        libraries=tuple(
            LibrarySpec(package=f"org.lazylib{i}.sdk", seed=40 + i,
                        classes=3)
            for i in range(5)
        ),
    )).apk


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestPartitioning:
    def test_groups_tile_the_class_sections(self):
        disassembly = generate_app(_app("com.alpha", 1)).apk.disassembly
        groups = partition_disassembly(disassembly)
        assert len(groups) >= 2  # the app's own prefix plus the library
        columns = disassembly.group_columns
        assert groups[0].start_line == columns[0].start_line
        assert groups[-1].end_line == columns[-1].end_line
        for first, second in zip(groups, groups[1:]):
            assert first.end_line == second.start_line
        assert {g.label for g in groups} == {
            group_label(name) for c in columns for name in c.class_names
        }

    def test_every_token_lands_in_exactly_one_group(self):
        disassembly = build_lg_tv_plus().disassembly
        groups = partition_disassembly(disassembly)
        recomposed = [
            (g.start_line + rel, kind, text)
            for g in groups
            for rel, kind, text in g.tokens
        ]
        assert recomposed == app_tokens(disassembly)

    def test_shard_key_is_position_independent(self):
        # The same library lands at different absolute lines in each
        # app, yet hashes to the same shard.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(
            AppSpec(package="com.zulu", seed=9, libraries=(SHARED_LIB,),
                    filler_classes=9)
        ).apk.disassembly
        lib_one = next(
            g for g in partition_disassembly(one) if g.label == "org.sharedsdk"
        )
        lib_two = next(
            g for g in partition_disassembly(two) if g.label == "org.sharedsdk"
        )
        assert lib_one.start_line != lib_two.start_line
        assert shard_key(lib_one) == shard_key(lib_two)

    def test_layouts_are_encoded_only_when_a_save_reads_them(
        self, store, monkeypatch
    ):
        import repro.store.sharding as sharding

        encoded = []
        real_encode = sharding.encode_layout

        def counted_encode(columns):
            encoded.append(columns)
            return real_encode(columns)

        monkeypatch.setattr(sharding, "encode_layout", counted_encode)
        spec = _app("com.alpha", 1, (SHARED_LIB, OTHER_LIB))
        disassembly = generate_app(spec).apk.disassembly
        key = store_key(disassembly)
        assert encoded == []  # keying reads no layout
        store.save_index(disassembly)
        columns = disassembly.group_columns
        assert len(columns) == 3
        assert encoded == columns  # a cold save encodes each group once
        assert [g.layout for g in partition_disassembly(disassembly)] == [
            real_encode(c) for c in columns
        ]

        # A full index hit on a fresh render keys it and reads no layout.
        encoded.clear()
        rendered = generate_app(spec).apk.disassembly
        assert store_key(rendered) == key
        assert store.load_index(rendered) is not None
        assert encoded == []

    def test_different_library_shape_changes_the_shard_key(self):
        # The shard key addresses exactly what the shard stores: the
        # group's searchable tokens and line span.  A library variant
        # with different members (here: one more method per class, so
        # different signatures and line counts) must hash differently.
        lib_b = LibrarySpec(package="org.sharedsdk", seed=7, classes=10,
                            methods_per_class=6)
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.alpha", 1, (lib_b,))).apk.disassembly
        keys = [
            shard_key(
                next(g for g in partition_disassembly(d)
                     if g.label == "org.sharedsdk")
            )
            for d in (one, two)
        ]
        assert keys[0] != keys[1]


def _lines_only(apk):
    return Disassembly(apk.disassembly.lines)


def _columns_without_tokens(apk):
    return Disassembly(apk.disassembly.lines, apk.disassembly.group_columns)


class TestRefusal:
    """A disassembly without library groups is refused in one place,
    the partition, whichever store or index path reads it first."""

    @pytest.mark.parametrize(
        "strip", [_lines_only, _columns_without_tokens],
        ids=["lines_only", "columns_without_tokens"],
    )
    def test_every_path_raises_the_partitions_error(self, strip, store):
        disassembly = strip(build_heyzap())
        paths = (
            lambda: partition_disassembly(disassembly),
            lambda: store_key(disassembly),
            lambda: store.save_index(disassembly),
            lambda: InvertedIndexBackend(disassembly).token_lines("L"),
            lambda: InvertedIndexBackend(disassembly, store).token_lines("L"),
        )
        messages = set()
        for path in paths:
            with pytest.raises(ValueError, match="no token stream") as info:
                path()
            messages.add(str(info.value))
        assert len(messages) == 1
        assert not store.root.exists()

    def test_preamble_only_disassembly_keys(self):
        disassembly = Disassembly(list(PREAMBLE))
        assert partition_disassembly(disassembly) == []
        assert len(store_key(disassembly)) == 64
        assert InvertedIndexBackend(disassembly).token_lines("L") == []

    def test_linear_backend_searches_a_hand_built_disassembly(self):
        rendered = build_heyzap().disassembly
        needle = partition_disassembly(rendered)[0].tokens[0][2]
        hand_built = LinearScanBackend(Disassembly(rendered.lines))
        lines = LinearScanBackend(rendered).token_lines(needle)
        assert lines and hand_built.token_lines(needle) == lines


class TestCrossAppDedup:
    def test_shared_library_persists_once(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(one)
        shards_after_first = store.describe().shards
        store.save_index(two)
        inventory = store.describe()

        # Only the second app's own group was new.
        assert inventory.shards == shards_after_first + 1
        assert store.stats.shards_shared >= 1
        assert inventory.shard_refs == inventory.shards + 1
        assert inventory.bytes_saved > 0
        assert inventory.dedup_ratio > 1.0

    def test_identical_rebuild_shares_every_shard(self, store):
        # "Two apps sharing every shard": a byte-identical rebuild of
        # the same app publishes nothing new — every group is shared.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one)
        writes_before = store.stats.writes
        shared_before = store.stats.shards_shared
        rebuilt = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(rebuilt)
        assert store.stats.shards_shared - shared_before == \
            len(partition_disassembly(rebuilt))
        # Only the manifest was rewritten.
        assert store.stats.writes == writes_before + 1

    def test_second_app_warm_starts_off_the_first_apps_library(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one)

        # The second app was never saved, yet its library group is
        # already on disk: the restore serves it and patches only the
        # app's own groups.
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        restored = store.load_index(two)
        assert restored is not None
        assert 0 < restored.patched_groups < len(partition_disassembly(two))
        assert store.stats.partial_hits == 1
        assert_same_answers(restored, reference_index(two))


class TestRefcountedGc:
    def _age(self, *paths, seconds=7200.0):
        stamp = time.time() - seconds
        for path in paths:
            os.utime(path, (stamp, stamp))

    def test_live_reference_protects_a_shared_shard(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(one)
        store.save_index(two)

        # Age the first app's entry and every shard; the second app's
        # manifest stays fresh and must keep the shared library shard
        # alive regardless of its age.
        self._age(*store.entry_dir(store_key(one)).iterdir())
        self._age(*store._shard_files())
        result = store.gc(max_age_seconds=3600.0)

        assert result.entries_removed == 1
        assert result.shards_removed >= 1  # the first app's own groups
        survivors = {p.stem for p in store._shard_files()}
        assert survivors == {g.sha for g in partition_disassembly(two)}
        # The surviving entry still restores whole.
        restored = store.load_index(two)
        assert restored is not None and restored.patched_groups == 0

    def test_unreferenced_shards_swept_once_last_manifest_dies(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one)
        self._age(*store.entry_dir(store_key(one)).iterdir())
        self._age(*store._shard_files())
        result = store.gc(max_age_seconds=3600.0)
        assert result.entries_removed == 1
        assert result.shards_removed == len(partition_disassembly(one))
        assert store.describe().shards == 0

    def test_sharing_a_shard_refreshes_its_age(self, store):
        # A writer that *shares* an old shard (publishes only a manifest
        # reference) must re-arm gc's age gate on it, so the shard stays
        # protected even in the window before the manifest lands.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one)
        lib_sha = next(
            group.sha for group in partition_disassembly(one)
            if group.label == "org.sharedsdk"
        )
        self._age(store._shard_path(lib_sha))
        old_mtime = store._shard_path(lib_sha).stat().st_mtime

        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(two)
        assert store._shard_path(lib_sha).stat().st_mtime > old_mtime

    def test_fresh_unreferenced_shard_survives_an_aged_sweep(self, store):
        # A concurrent writer publishes shards before its manifest; an
        # aged gc must not reclaim them mid-publish.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        for group in partition_disassembly(one):
            store._write_shard(group)
        result = store.gc(max_age_seconds=3600.0)
        assert result.shards_removed == 0
        assert store.describe().shards == len(partition_disassembly(one))


class TestComposeParity:
    """Every app index answers as the direct fold does.

    ``posting_entries`` is exact on any index (group line ranges are
    disjoint), so it is checked alongside the answers.
    """

    def _parity(self, index, fresh):
        assert_same_answers(index, fresh)
        assert index.posting_entries == fresh.posting_entries

    def test_composed_index_matches_fresh_build(self, store):
        for build in (build_heyzap, build_lg_tv_plus):
            disassembly = build().disassembly
            store.save_index(disassembly)
            restored = store.load_index(build().disassembly)
            assert restored is not None and restored.restored
            assert restored.build_seconds == 0.0
            self._parity(restored, reference_index(disassembly))

    @pytest.mark.parametrize("build", [
        build_heyzap,
        build_lg_tv_plus,
        lambda: generate_app(_app("com.alpha", 1)).apk,
        lambda: generate_app(_app("com.alpha", 1, (SHARED_LIB, OTHER_LIB))).apk,
    ])
    def test_cold_index_composes_the_group_folds(self, build):
        # A cold index queries its groups' folds; it must answer as a
        # direct fold of the app-wide token stream does, and still
        # report itself as built rather than restored.
        disassembly = build().disassembly
        index = TokenIndex.for_disassembly(disassembly)
        assert not index.restored and index.build_seconds > 0.0
        self._parity(index, reference_index(disassembly))

    @pytest.mark.parametrize("build", [
        pytest.param(build_heyzap, id="heyzap"),
        pytest.param(build_lg_tv_plus, id="lg_tv_plus"),
        pytest.param(build_palcomp3, id="palcomp3"),
        pytest.param(_corpus_app(0), id="bench0"),
        pytest.param(_corpus_app(2), id="bench2"),
        pytest.param(_corpus_app(3), id="bench3"),
        pytest.param(_five_library_app, id="five_libraries"),
    ])
    def test_every_index_of_an_app_answers_as_its_fold(self, build, store):
        # However the app was prepared — cold, fully restored, restored
        # with one of several shards deleted, or restored over a
        # bit-flipped shard that heals — its index answers alike.
        disassembly = build().disassembly
        reference = reference_index(disassembly)
        # The reference itself: every vocabulary text and every
        # descriptor- or signature-shaped substring of one finds exactly
        # the lines of the tokens holding it.  The linear scan finds
        # those lines too, and more where the needle also occurs outside
        # any token (palcomp3's "LocalServer:(Landroid/content/Context;"
        # is also on a method header line).
        linear = LinearScanBackend(disassembly)
        for needle in token_needles(reference):
            holding = sorted({
                line for line, _, text in app_tokens(disassembly)
                if needle in text
            })
            assert reference.token_lines(needle) == holding, needle
            assert set(holding) <= set(linear.token_lines(needle)), needle
        cold = TokenIndex.for_disassembly(disassembly)
        assert not cold.restored
        self._parity(cold, reference)
        store.save_index(disassembly)
        shas = [group.sha for group in partition_disassembly(disassembly)]

        full = store.load_index(build().disassembly)
        assert full.restored and full.patched_groups == 0
        self._parity(full, reference)

        if len(shas) > 1:
            store._shard_path(shas[-1]).unlink()
            partial = store.load_index(build().disassembly)
            # The load itself published the missing group; no query
            # had to heal it.
            assert store._shard_path(shas[-1]).stat().st_size > 0
            self._parity(partial, reference)
            assert partial.patched_groups == 1

        victim = store._shard_path(shas[0])
        blob = bytearray(victim.read_bytes())
        _, offset, length = read_header(blob).sections[SEC_VOCAB]
        blob[offset + length // 2] ^= 0x01
        victim.write_bytes(bytes(blob))
        healed = store.load_index(build().disassembly)
        assert healed.patched_groups == 0  # the restore only stats
        self._parity(healed, reference)
        assert healed.patched_groups == 1
        assert all(entry.ok for entry in store.verify())

    def test_patched_composition_is_still_byte_identical(self, store):
        disassembly = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(disassembly)
        victim = partition_disassembly(disassembly)[-1].sha
        store._shard_path(victim).unlink()

        rebuilt = generate_app(_app("com.alpha", 1)).apk.disassembly
        restored = store.load_index(rebuilt)
        assert restored is not None and restored.patched_groups == 1
        self._parity(restored, reference_index(disassembly))

    def test_compose_from_raw_payloads_matches_token_fold(self):
        # The grouped index itself, without any store I/O: each group
        # answers from its raw shard payload.
        disassembly = build_lg_tv_plus().disassembly
        parts = []
        for group in partition_disassembly(disassembly):
            sha = shard_key(group)
            parts.append((
                group.start_line,
                TokenIndex.from_payload(shard_payload(group, sha)),
            ))
        assert len(parts) > 1
        self._parity(LazyTokenIndex(parts), reference_index(disassembly))

    def test_payloads_survive_the_binary_container(self):
        # Every payload field goes through the one container intact,
        # so an index over decoded shards still answers as a fresh
        # fold does.
        disassembly = build_lg_tv_plus().disassembly
        parts = []
        for group in partition_disassembly(disassembly):
            sha = shard_key(group)
            payload = shard_payload(group, sha)
            decoded = decode_shard(encode_shard(payload, sha), sha)
            for name, value in payload.items():
                if name == "tokens":
                    assert tokens_from_shard(decoded) == \
                        tokens_from_shard(payload)
                else:
                    assert decoded[name] == value, name
            parts.append(
                (group.start_line, TokenIndex.from_payload(decoded))
            )
        self._parity(LazyTokenIndex(parts), reference_index(disassembly))

    def test_fold_tokens_matches_token_index_fold(self):
        disassembly = build_heyzap().disassembly
        vocab, postings = fold_tokens(app_tokens(disassembly))
        fresh = reference_index(disassembly)
        assert vocab == fresh.vocab
        assert postings == fresh.postings


class TestPipelineIntegration:
    def _config(self, tmp_path, **kwargs):
        return BackDroidConfig(
            search_backend="indexed",
            store_dir=str(tmp_path / "store"),
            **kwargs,
        )

    def test_analyze_spec_reports_patched_shards(self, tmp_path):
        config = self._config(tmp_path)
        first = analyze_spec(_app("com.alpha", 1), config)
        assert first.ok and first.shards_patched == 0

        # A different app sharing the library: its first-ever analysis
        # is already warm-partial thanks to cross-app dedup.
        second = analyze_spec(_app("com.beta", 2), config)
        assert second.ok
        assert second.index_restored
        assert second.shards_patched >= 1

    def test_cold_job_folds_each_group_exactly_once(
        self, tmp_path, monkeypatch
    ):
        import repro.store.sharding as sharding

        folded = []
        real_fold = sharding.fold_tokens

        def counted_fold(tokens):
            folded.append(tokens)
            return real_fold(tokens)

        monkeypatch.setattr(sharding, "fold_tokens", counted_fold)
        config = self._config(tmp_path, store_mode="full")
        spec = _app("com.alpha", 1, (SHARED_LIB, OTHER_LIB))
        cold = analyze_spec(spec, config)
        assert cold.ok and not cold.store_hit
        assert not cold.index_restored and cold.index_build_seconds > 0.0
        groups = partition_disassembly(generate_app(spec).apk.disassembly)
        assert len(groups) == 3
        # The index and the published shards share one fold per group.
        assert folded == [group.tokens for group in groups]

        # A sibling sharing both libraries folds only its own group;
        # the libraries' folds are read back from their shards.
        folded.clear()
        sibling = analyze_spec(
            _app("com.beta", 2, (SHARED_LIB, OTHER_LIB)), config
        )
        assert sibling.ok and sibling.index_restored
        assert sibling.shards_patched == 1 and len(folded) == 1

    def test_batch_aggregates_partial_restores(self, tmp_path):
        config = self._config(tmp_path)
        specs = [_app("com.alpha", 1), _app("com.beta", 2),
                 _app("com.gamma", 3)]
        result = run_batch(specs, config, executor="serial",
                           session_cache_size=0)
        assert not result.failures
        # Apps after the first ride the shared library shard.
        assert result.partial_restores >= 2
        assert result.shards_patched >= 2
        assert "partial" in result.render()
        payload = result.as_dict()
        assert payload["aggregate"]["store"]["partial_restores"] >= 2

    def test_probe_classifies_sibling_app_partial_after_specmap(self, tmp_path):
        from repro.core.batch import probe_spec

        config = self._config(tmp_path)
        store = config.artifact_store()
        spec = _app("com.beta", 2)
        assert analyze_spec(_app("com.alpha", 1), config).ok
        assert analyze_spec(spec, config).ok

        # Drop the beta app's own shard: the next probe sees a partial
        # entry and still schedules it warm.
        disassembly = generate_app(spec).apk.disassembly
        own = next(
            group.sha for group in partition_disassembly(disassembly)
            if group.label != "org.sharedsdk"
        )
        store._shard_path(own).unlink()
        key, level = probe_spec(spec, store, None)
        assert key == store_key(disassembly)
        assert level == "partial"
        from repro.core.batch import level_is_warm

        assert level_is_warm(level, config)
