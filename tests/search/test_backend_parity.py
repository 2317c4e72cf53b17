"""Backend parity: linear scan and inverted index must agree, byte for byte.

The inverted index is only a faster way to answer the same queries; any
divergence from the linear scan is a correctness bug.  These tests drive
randomized apps through every signature/field/class/literal query and
assert identical :class:`SearchHit` lists, then run the full
``BackDroid.analyze`` pipeline under both backends and compare reports.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apk import Apk
from repro.core import BackDroid, BackDroidConfig
from repro.dex.builder import AppBuilder
from repro.dex.types import FieldSignature
from repro.search.backends import InvertedIndexBackend, LinearScanBackend
from repro.search.index import BytecodeSearcher
from repro.store import ArtifactStore
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import build_heyzap, build_palcomp3

from answer_parity import app_tokens, reference_index


def _two_library_app():
    """An app of three library groups: its own and two libraries'."""
    return generate_app(AppSpec(
        "com.v.app",
        seed=3,
        size_mb=0.3,
        libraries=(
            LibrarySpec("com.lib.one", seed=4),
            LibrarySpec("org.sdk.two", seed=5),
        ),
    )).apk

#: Deliberately adversarial class names: descriptors that embed each
#: other (``La;`` is a substring of ``Lcom/La;``), inner classes, and
#: plain nested prefixes — the cases where a naive token index diverges
#: from raw substring search.
_CLASS_NAMES = [
    "com.par.Base",
    "com.par.Base2",
    "com.par.Child",
    "com.par.Child$1",
    "com.La",
    "a",
    "com.other.Helper",
]

_STRING_VALUES = [
    "com.app.ACTION_SYNC",
    "MARKER_PLAIN",
    "regex.meta*chars+(really)?",
    "[brackets] and {braces}",
    "a",
    # Values embedding descriptor/signature/header-quoted shapes: a raw
    # text search matches these const-string lines, so the index must too.
    "see 'Lcom/par/Base;' here",
    "call Lcom/par/Base;.m0:()V now",
    "array [La; blob",
]


@st.composite
def woven_apps(draw):
    """An app whose classes mention each other in every searchable way."""
    names = draw(
        st.lists(st.sampled_from(_CLASS_NAMES), min_size=2, max_size=5,
                 unique=True)
    )
    app = AppBuilder()
    builders = {}
    for i, name in enumerate(names):
        superclass = "java.lang.Object"
        if i > 0 and draw(st.booleans()):
            superclass = names[draw(st.integers(0, i - 1))]
        builders[name] = app.new_class(name, superclass=superclass)

    placed_strings = []
    for name, cls in builders.items():
        if draw(st.booleans()):
            cls.field("conf", "java.lang.String", static=True)
        n_methods = draw(st.integers(min_value=1, max_value=3))
        for m in range(n_methods):
            method = cls.method(f"m{m}", static=True)
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                action = draw(st.integers(0, 4))
                other = names[draw(st.integers(0, len(names) - 1))]
                if action == 0:
                    value = draw(st.sampled_from(_STRING_VALUES))
                    method.const_string(value)
                    placed_strings.append(value)
                elif action == 1:
                    method.const_class(other)
                elif action == 2:
                    method.invoke_static(other, "m0")
                elif action == 3:
                    method.put_static(other, "conf", "java.lang.String",
                                      "written")
                else:
                    local = method.new(other)
                    method.cast(other, local)
            method.return_void()
    return Apk(package="com.parity", classes=app.build()), names, placed_strings


def _both(apk):
    return (
        BytecodeSearcher(apk.disassembly, backend="linear"),
        BytecodeSearcher(apk.disassembly, backend="indexed"),
    )


class TestQueryParity:
    @given(woven_apps())
    @settings(max_examples=30, deadline=None)
    def test_all_query_kinds_identical(self, case):
        apk, names, strings = case
        linear, indexed = _both(apk)
        for cls in apk.classes.application_classes():
            for method in cls.methods:
                sig = method.signature()
                assert linear.find_invocations(sig) == indexed.find_invocations(sig)
            for dex_field in cls.fields:
                fsig = FieldSignature(cls.name, dex_field.name,
                                      dex_field.field_type)
                assert linear.find_field_accesses(fsig) == \
                    indexed.find_field_accesses(fsig)
                assert linear.find_field_accesses(fsig, writes_only=True) == \
                    indexed.find_field_accesses(fsig, writes_only=True)
        for name in names:
            assert linear.classes_mentioning(name) == \
                indexed.classes_mentioning(name)
            assert linear.subclass_header_mentions(name) == \
                indexed.subclass_header_mentions(name)
            assert linear.find_const_class(name) == indexed.find_const_class(name)
        for value in strings + ["NEVER_PRESENT"]:
            assert linear.find_const_string(value) == \
                indexed.find_const_string(value)

    @given(woven_apps())
    @settings(max_examples=15, deadline=None)
    def test_pattern_queries_identical(self, case):
        apk, names, _ = case
        linear, indexed = _both(apk)
        assert linear.find_invocations_by_name("m0") == \
            indexed.find_invocations_by_name("m0")

    @given(woven_apps())
    @settings(max_examples=15, deadline=None)
    def test_absent_needles_empty_on_both(self, case):
        apk, _, _ = case
        linear, indexed = _both(apk)
        assert linear.find_const_string("NOPE") == []
        assert indexed.find_const_string("NOPE") == []
        assert indexed.classes_mentioning("com.ghost.Nope") == set()
        assert linear.classes_mentioning("com.ghost.Nope") == set()


#: Method-name characters: regex metacharacters, but none of the
#: characters that delimit a dex signature (``; . : ( ) /``) and no
#: newline.
_NAME_CHARS = "ab$*+?|{}^\\"

#: ``const-string`` values that spell (parts of) an invoke line.
_INVOKE_LIKE_VALUES = [
    "invoke-x {",
    "invoke-static {}, Lcom/n/A;.{name}:()V",
    "invoke-virtual {v0}, La;.{name}:(I)V",
    "}, Lcom/n/B$1;.{name}:(",
    ";.{name}:(",
]


@st.composite
def named_call_apps(draw):
    """An app whose methods call each other, and undeclared methods, by
    names full of regex metacharacters, next to string literals that
    spell invoke lines.  Returns the app and its method names."""
    names = draw(st.lists(
        st.text(alphabet=_NAME_CHARS, min_size=1, max_size=4),
        min_size=1, max_size=4, unique=True,
    ))
    classes = ["com.n.A", "com.n.B$1", "a"]
    owners = classes + ["android.content.Context"]
    app = AppBuilder()
    methods = [
        cls.method(name, static=True)
        for cls in map(app.new_class, classes)
        for name in draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=3, unique=True
        ))
    ]
    for method in methods:
        for _ in range(draw(st.integers(0, 4))):
            owner = draw(st.sampled_from(owners))
            name = draw(st.sampled_from(names))
            action = draw(st.integers(0, 3))
            if action == 0:
                method.invoke_static(owner, name)
            elif action == 1:
                method.invoke_static(
                    owner, name, args=[method.const_int(7), "s"],
                    params=("int", "java.lang.String"), returns="int",
                )
            elif action == 2:
                method.invoke_virtual(method.new(owner), owner, name)
            else:
                template = draw(st.sampled_from(_INVOKE_LIKE_VALUES))
                method.const_string(template.replace("{name}", name))
        method.return_void()
    return Apk(package="com.n", classes=app.build()), names


def _calls_by_name(apk, name):
    """The IR oracle: ``(caller, stmt_index)`` of every invoke whose
    callee is named *name*."""
    return sorted(
        (method.signature(), index)
        for cls in apk.classes.application_classes()
        for method in cls.methods
        for index, stmt in enumerate(method.body)
        if (expr := stmt.invoke_expr()) is not None
        and expr.method.name == name
    )


class TestNameSearchOracle:
    """The ICC name search finds exactly the IR's calls of that name on
    every backend: the name is matched literally, and a string literal
    that spells an invoke line neither counts nor hides a call."""

    @given(named_call_apps())
    @settings(max_examples=30, deadline=None)
    def test_name_search_answers_as_the_ir(self, case):
        apk, names = case
        disassembly = apk.disassembly
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            cold = BytecodeSearcher(disassembly, backend="indexed", store=store)
            cold.backend.index  # folds, then publishes the shards
            del disassembly._token_index_cache
            restored = BytecodeSearcher(
                disassembly, backend="indexed", store=store
            )
            linear = BytecodeSearcher(disassembly, backend="linear")
            for name in names + ["absent"]:
                oracle = _calls_by_name(apk, name)
                for searcher in (linear, cold, restored):
                    hits = searcher.find_invocations_by_name(name)
                    assert sorted(
                        (hit.method, hit.stmt_index) for hit in hits
                    ) == oracle, (searcher.backend.name, name)
            assert restored.backend.stats.index_restored
            for searcher in (linear, cold, restored):
                assert searcher.backend.stats.fallbacks == 0
            restored.backend.index.close()


class TestTokenOracle:
    """A needle finds exactly the lines of the tokens holding it: a
    brute-force scan of the token stream is the oracle, and the linear
    scan finds those lines and maybe more (a needle can also occur
    outside tokens)."""

    @given(woven_apps(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_token_substrings_answer_as_brute_force(self, case, data):
        apk, _, _ = case
        disassembly = apk.disassembly
        tokens = app_tokens(disassembly)
        # Substrings of the "\n"-joined vocabulary: mostly substrings of
        # one token text, some running from one text into the next
        # (those lie in no token).
        joined = "\n".join(reference_index(disassembly).vocab)
        needles = []
        for _ in range(8):
            start = data.draw(st.integers(0, len(joined)))
            end = data.draw(st.integers(start, min(len(joined), start + 40)))
            needles.append(joined[start:end])
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            cold = InvertedIndexBackend(disassembly, store=store)
            cold.index  # folds, then publishes the shards
            restored = store.load_index(disassembly)
            linear = LinearScanBackend(disassembly)
            for needle in needles:
                oracle = sorted(
                    {line for line, _, text in tokens if needle in text}
                )
                assert cold.token_lines(needle) == oracle, needle
                assert restored.token_lines(needle) == oracle, needle
                assert set(oracle) <= set(linear.token_lines(needle)), needle
            restored.close()


def _assert_searchers_agree(reference, candidate, apk, names, strings):
    """The full query matrix must agree hit-for-hit between searchers."""
    for cls in apk.classes.application_classes():
        for method in cls.methods:
            sig = method.signature()
            assert reference.find_invocations(sig) == \
                candidate.find_invocations(sig)
        for dex_field in cls.fields:
            fsig = FieldSignature(cls.name, dex_field.name,
                                  dex_field.field_type)
            assert reference.find_field_accesses(fsig) == \
                candidate.find_field_accesses(fsig)
    for name in names:
        assert reference.classes_mentioning(name) == \
            candidate.classes_mentioning(name)
        assert reference.subclass_header_mentions(name) == \
            candidate.subclass_header_mentions(name)
        assert reference.find_const_class(name) == \
            candidate.find_const_class(name)
    for value in strings + ["NEVER_PRESENT"]:
        assert reference.find_const_string(value) == \
            candidate.find_const_string(value)


class TestRestoredIndexParity:
    """An index restored from the artifact store is the same index.

    Byte-identical hits, same vocabulary, zero build time — the store is
    a cache, never a behaviour change.
    """

    @given(woven_apps())
    @settings(max_examples=15, deadline=None)
    def test_restored_hits_identical(self, case):
        apk, names, strings = case
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            cold = BytecodeSearcher(
                apk.disassembly, backend="indexed", store=store
            )
            cold.backend.index  # build once, publishing the artifacts
            assert not cold.backend.stats.index_restored

            # Drop the in-memory memo so the next searcher must go to disk.
            del apk.disassembly._token_index_cache
            warm = BytecodeSearcher(
                apk.disassembly, backend="indexed", store=store
            )
            linear = BytecodeSearcher(apk.disassembly, backend="linear")
            _assert_searchers_agree(linear, warm, apk, names, strings)
            assert warm.backend.stats.index_restored
            assert warm.backend.stats.index_build_seconds == 0.0

    @pytest.mark.parametrize("build", [
        pytest.param(build_heyzap, id="heyzap"),
        pytest.param(_two_library_app, id="two_libraries"),
    ])
    def test_paper_apps_restored_reports_equal(self, build):
        # The backend stats may not depend on how the index was
        # prepared: a cold build and an index hit report one
        # vocabulary size, the groups' summed vocabularies.
        with tempfile.TemporaryDirectory() as root:
            config = BackDroidConfig(
                search_backend="indexed", store_dir=root, store_mode="index"
            )
            cold = BackDroid(config).analyze(build())
            warm = BackDroid(config).analyze(build())
            assert _report_key(cold) == _report_key(warm)
            assert not cold.backend_stats["index_restored"]
            assert warm.backend_stats["index_restored"]
            assert warm.backend_stats["index_build_seconds"] == 0.0
            assert warm.backend_stats["vocab_size"] == \
                cold.backend_stats["vocab_size"]
            assert warm.backend_stats["posting_entries"] == \
                cold.backend_stats["posting_entries"]


def _report_key(report):
    """Everything observable about a report, modulo wall-clock noise."""
    return (
        report.package,
        report.search_cache_rate,
        report.search_cache_lookups,
        report.sink_cache_rate,
        [
            (
                str(record.site.method),
                record.site.stmt_index,
                record.site.spec.rule,
                record.reachable,
                record.cached,
                record.ssg_size,
                record.entry_points,
                str(record.finding),
            )
            for record in report.records
        ],
    )


class TestEndToEndParity:
    def _assert_equal_reports(self, make_apk):
        linear = BackDroid(
            BackDroidConfig(search_backend="linear")
        ).analyze(make_apk())
        indexed = BackDroid(
            BackDroidConfig(search_backend="indexed")
        ).analyze(make_apk())
        assert _report_key(linear) == _report_key(indexed)
        assert linear.search_backend == "linear"
        assert indexed.search_backend == "indexed"

    def test_paper_apps_equal_reports(self):
        self._assert_equal_reports(build_heyzap)
        self._assert_equal_reports(build_palcomp3)

    def test_benchmark_apps_equal_reports(self):
        for index in range(4):
            self._assert_equal_reports(
                lambda index=index: generate_app(
                    benchmark_app_spec(index, scale=0.08)
                ).apk
            )
