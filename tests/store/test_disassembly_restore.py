"""Restored disassemblies: an index hit rebuilds the app's plaintext from
its shards' text and layout sections instead of rendering it.

The contract: a restored :class:`~repro.dex.disassembler.Disassembly`
is indistinguishable from a fresh render on everything search and the
slicer read — lines, store key, method-block bounds and signatures, the
line -> block and line -> statement maps, each group's class names, and
(rendered on demand) the tokens.  Per-group numbering is what makes the
text shareable, so a library group must render byte-identical in two
different apps.
"""

import bisect
import functools

import pytest

from repro.android.apk import Apk, render_disassembly
from repro.dex.builder import AppBuilder
from repro.dex.disassembler import (
    GroupColumns,
    RenderMismatch,
    RestoredDisassembly,
)
from repro.store import (
    ArtifactStore,
    group_label,
    partition_disassembly,
    shard_key,
    store_key,
)
from repro.store.sharding import encode_layout
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import (
    build_heyzap,
    build_lg_tv_plus,
    build_palcomp3,
)

from answer_parity import app_tokens

SHARED_LIB = LibrarySpec(
    package="org.sharedsdk", seed=7, classes=6, methods_per_class=4
)


def _corpus_app(index):
    return lambda: generate_app(benchmark_app_spec(index, scale=0.1)).apk


def _library_app(package="com.restore.host", seed=1, filler=3):
    return lambda: generate_app(
        AppSpec(package=package, seed=seed, libraries=(SHARED_LIB,),
                filler_classes=filler)
    ).apk


BUILDERS = {
    "lg_tv_plus": build_lg_tv_plus,
    "heyzap": build_heyzap,
    "palcomp3": build_palcomp3,
    "bench0": _corpus_app(0),
    "bench1": _corpus_app(1),
    "bench5": _corpus_app(5),
    "with_library": _library_app(),
}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _publish(store, apk):
    store.save_index(apk.disassembly)
    return store_key(apk.disassembly)


def _restore(store, key, apk):
    return store.load_disassembly(
        key, apk.classes, functools.partial(render_disassembly, apk.classes)
    )


def _block_columns(disassembly, start, end, class_names):
    """The layout columns of the blocks in ``[start, end)``, read back
    from the disassembly's method blocks rather than from the columns
    the renderer captured."""
    blocks = disassembly.blocks
    starts = [b.start_line for b in blocks]
    blocks = blocks[
        bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)
    ]
    return GroupColumns(
        start, end,
        [b.start_line - start for b in blocks],
        [b.end_line - start for b in blocks],
        [len(b.insns) for b in blocks],
        [b.signature.to_dex() for b in blocks],
        [insn.stmt_index for b in blocks for insn in b.insns],
        class_names,
    )


def _block_shape(block):
    if block is None:
        return None
    return (
        block.start_line,
        block.end_line,
        block.signature,
        [(insn.line_no, insn.stmt_index, insn.text) for insn in block.insns],
    )


def _assert_parity(restored, fresh):
    assert restored.lines == fresh.lines
    assert store_key(restored) == store_key(fresh)
    assert [_block_shape(b) for b in restored.blocks] == [
        _block_shape(b) for b in fresh.blocks
    ]
    for line_no in range(len(fresh.lines)):
        mine = restored.block_at_line(line_no)
        theirs = fresh.block_at_line(line_no)
        assert _block_shape(mine) == _block_shape(theirs), line_no
        if theirs is not None:
            assert mine.stmt_index_for_line(line_no) == \
                theirs.stmt_index_for_line(line_no), line_no
    for block in fresh.blocks:
        assert _block_shape(restored.block_of(block.signature)) == \
            _block_shape(block)
    assert [c.class_names for c in restored.group_columns] == \
        [c.class_names for c in fresh.group_columns]
    assert app_tokens(restored) == app_tokens(fresh)


class TestParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_restored_equals_fresh_render(self, store, name):
        build = BUILDERS[name]
        key = _publish(store, build())
        apk = build()
        restored = _restore(store, key, apk)
        assert isinstance(restored, RestoredDisassembly)
        _assert_parity(restored, build().disassembly)

    def test_restore_renders_nothing_until_tokens_are_read(self, store):
        build = BUILDERS["with_library"]
        key = _publish(store, build())
        apk = build()
        renders = []

        def counted():
            renders.append(1)
            return render_disassembly(apk.classes)

        restored = store.load_disassembly(key, apk.classes, counted)
        fresh = build().disassembly
        restored.block_at_line(fresh.blocks[-1].start_line)
        assert restored.lines == fresh.lines and not renders
        assert app_tokens(restored) == app_tokens(fresh)
        assert renders == [1]

    def test_a_render_that_differs_fails_instead_of_mixing(self, store):
        key = _publish(store, build_heyzap())
        apk = build_heyzap()
        other = build_palcomp3()
        restored = store.load_disassembly(
            key, apk.classes, functools.partial(render_disassembly, other.classes)
        )
        with pytest.raises(RenderMismatch):
            app_tokens(restored)


class TestPerGroupNumbering:
    def test_library_group_renders_identically_in_two_apps(self):
        one = _library_app("com.alpha", 1, filler=2)().disassembly
        two = _library_app("com.zulu", 9, filler=7)().disassembly
        lib_one, lib_two = (
            next(g for g in partition_disassembly(d)
                 if g.label == "org.sharedsdk")
            for d in (one, two)
        )
        assert lib_one.start_line != lib_two.start_line
        assert lib_one.text == lib_two.text
        assert lib_one.layout == lib_two.layout
        assert shard_key(lib_one) == shard_key(lib_two)

    def test_layout_captured_while_rendering_equals_the_blocks_layout(self):
        apk = BUILDERS["with_library"]()
        disassembly = apk.disassembly
        groups = partition_disassembly(disassembly)
        assert len(groups) >= 2
        names = sorted(cls.name for cls in apk.classes.application_classes())
        for group in groups:
            assert group.layout == encode_layout(_block_columns(
                disassembly, group.start_line, group.end_line,
                [name for name in names if group_label(name) == group.label],
            ))

    def test_key_hashes_the_same_bytes_the_groups_carry(self):
        disassembly = build_lg_tv_plus().disassembly
        groups = partition_disassembly(disassembly)
        assert b"".join(g.text for g in groups) == (
            "\n".join(disassembly.lines[groups[0].start_line:]) + "\n"
        ).encode()


def _newline_app():
    app = AppBuilder()
    main = app.new_class("com.newline.app.Main")
    main.default_constructor()
    method = main.method("greet")
    method.this()
    method.const_string("a\nb")
    method.return_void()
    helper = app.new_class("com.newline.app.Helper")
    helper.default_constructor()
    return Apk(package="com.newline.app", classes=app.build())


class TestEmbeddedNewline:
    def test_restores_to_parity_or_renders_without_shifting_lines(self, store):
        key = _publish(store, _newline_app())
        apk = _newline_app()
        restored = _restore(store, key, apk)
        if restored is None:
            # Refused, so the caller renders.  The entry is intact: a
            # refusal of this kind is neither damage nor healed.
            assert store.stats.corrupt_entries == 0
            assert store.stats.shards_patched == 0
        else:
            _assert_parity(restored, _newline_app().disassembly)
        assert all(entry.ok for entry in store.verify())
