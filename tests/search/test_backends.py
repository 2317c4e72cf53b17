"""Unit tests for the search backend subsystem and the LRU-bounded cache."""

import pytest

from repro.dex.builder import AppBuilder
from repro.android.apk import Apk
from repro.dex.types import MethodSignature
from repro.search.backends import (
    BACKENDS,
    InvertedIndexBackend,
    LinearScanBackend,
    create_backend,
)
from repro.search.backends.indexed import TokenIndex
from repro.search.caching import SearchCommandCache
from repro.search.index import BytecodeSearcher

from answer_parity import app_tokens


def _small_apk():
    app = AppBuilder()
    callee_cls = app.new_class("com.t.Callee")
    callee = callee_cls.method("run", static=True)
    callee.const_string("hello*world")
    callee.return_void()
    caller_cls = app.new_class("com.t.Caller", superclass="com.t.Callee")
    caller = caller_cls.method("go", static=True)
    caller.invoke_static("com.t.Callee", "run")
    caller.return_void()
    return Apk(package="com.t", classes=app.build())


def _array_apk():
    """``com.La.m0`` allocates a ``com.La[][]``; ``com.Other`` calls it."""
    app = AppBuilder()
    method = app.new_class("com.La").method("m0", static=True)
    method.new_array("com.La[]", 2)
    method.return_void()
    caller = app.new_class("com.Other").method("go", static=True)
    caller.invoke_static("com.La", "m0")
    caller.return_void()
    return Apk(package="com", classes=app.build())


def _token_line(disassembly, text):
    """The one line holding a token with exactly *text*."""
    (line_no,) = {
        line for line, _, token in app_tokens(disassembly) if token == text
    }
    return line_no


class TestRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"linear", "indexed"}

    def test_create_by_name_class_and_instance(self):
        apk = _small_apk()
        linear = create_backend("linear", apk.disassembly)
        assert isinstance(linear, LinearScanBackend)
        assert isinstance(
            create_backend(InvertedIndexBackend, apk.disassembly),
            InvertedIndexBackend,
        )
        assert create_backend(linear, apk.disassembly) is linear

    def test_unknown_name_rejected(self):
        apk = _small_apk()
        with pytest.raises(ValueError, match="unknown search backend"):
            create_backend("turbo", apk.disassembly)

    def test_tokenless_disassembly_rejected_by_indexed_backend(self):
        # A hand-built Disassembly without a token stream must fail loudly
        # under the indexed backend, not silently return zero hits.
        from repro.dex.disassembler import Disassembly

        apk = _small_apk()
        stripped = Disassembly(
            apk.disassembly.lines, apk.disassembly.group_columns
        )
        searcher = BytecodeSearcher(stripped, backend="indexed")
        with pytest.raises(ValueError, match="no token stream"):
            searcher.find_invocations(
                MethodSignature("com.t.Callee", "run", (), "void")
            )

    def test_instance_bound_to_other_app_rejected(self):
        one, two = _small_apk(), _small_apk()
        backend = create_backend("linear", one.disassembly)
        with pytest.raises(ValueError, match="different disassembly"):
            create_backend(backend, two.disassembly)


class TestTokenIndex:
    def test_index_is_memoized_per_disassembly(self):
        apk = _small_apk()
        assert TokenIndex.for_disassembly(apk.disassembly) is \
            TokenIndex.for_disassembly(apk.disassembly)

    def test_invocation_signature_finds_its_invoke_line(self):
        disassembly = _small_apk().disassembly
        needle = MethodSignature("com.t.Callee", "run", (), "void").to_dex()
        answer = InvertedIndexBackend(disassembly).token_lines(needle)
        assert answer == [_token_line(disassembly, needle)]
        assert answer == LinearScanBackend(disassembly).token_lines(needle)

    def test_descriptor_needles_find_an_array_token(self):
        # '[[Lcom/La;' holds '[Lcom/La;', 'Lcom/La;' and 'La;'.
        disassembly = _array_apk().disassembly
        backend = InvertedIndexBackend(disassembly)
        array_line = _token_line(disassembly, "[[Lcom/La;")
        for needle in ("[Lcom/La;", "Lcom/La;", "La;"):
            assert array_line in backend.token_lines(needle), needle

    def test_signature_suffix_finds_a_longer_class_name(self):
        # 'La;.m0:()V' (class 'a') lies inside 'Lcom/La;.m0:()V' (class
        # 'com.La').
        disassembly = _array_apk().disassembly
        assert InvertedIndexBackend(disassembly).token_lines("La;.m0:()V") \
            == [_token_line(disassembly, "Lcom/La;.m0:()V")]

    def test_mid_token_needle_answers_as_the_linear_scan(self):
        disassembly = _array_apk().disassembly
        needle = "com/La;.m0:()"
        answer = InvertedIndexBackend(disassembly).token_lines(needle)
        assert answer == [_token_line(disassembly, "Lcom/La;.m0:()V")]
        assert answer == LinearScanBackend(disassembly).token_lines(needle)

    def test_needles_embedded_in_string_values(self):
        # A const-string value may embed quoted descriptors, raw
        # descriptors, or full signatures; the raw text scan matches the
        # const-string line, so the index must agree.
        app = AppBuilder()
        cls = app.new_class("com.t.Emb")
        method = cls.method("m", static=True)
        method.const_string("see 'Lcom/t/Emb;' and Lcom/t/Emb;.m:()V here")
        method.return_void()
        apk = Apk(package="com.t", classes=app.build())
        linear = BytecodeSearcher(apk.disassembly, backend="linear")
        indexed = BytecodeSearcher(apk.disassembly, backend="indexed")
        assert linear.subclass_header_mentions("com.t.Emb") == \
            indexed.subclass_header_mentions("com.t.Emb")
        assert linear.classes_mentioning("com.t.Emb") == \
            indexed.classes_mentioning("com.t.Emb")
        sig = MethodSignature("com.t.Emb", "m", (), "void")
        assert linear._search_token(sig.to_dex(), kind="caller-method") == \
            indexed._search_token(sig.to_dex(), kind="caller-method")

    def test_descriptor_needle_finds_the_signatures_embedding_it(self):
        # 'Lcom/t/Callee;' lies inside the invoke's signature token.
        disassembly = _small_apk().disassembly
        invoke_line = _token_line(disassembly, "Lcom/t/Callee;.run:()V")
        assert invoke_line in \
            InvertedIndexBackend(disassembly).token_lines("Lcom/t/Callee;")


class TestBackendStats:
    def test_indexed_counts_queries_and_fallbacks(self):
        apk = _small_apk()
        searcher = BytecodeSearcher(apk.disassembly, backend="indexed")
        sig = MethodSignature("com.t.Callee", "run", (), "void")
        searcher.find_invocations(sig)
        searcher.find_invocations_by_name("run")  # a token query too
        stats = searcher.backend.stats
        assert stats.token_queries == 2
        assert stats.fallbacks == 0
        # No search issues a regex; a direct one is a counted fallback.
        assert searcher.backend.pattern_lines(r"invoke-\S+ ") != []
        assert stats.pattern_queries == 1
        assert stats.fallbacks == 1
        assert stats.vocab_size > 0
        described = searcher.backend.describe()
        assert described["name"] == "indexed"
        assert described["fallbacks"] == 1

    def test_linear_never_falls_back(self):
        apk = _small_apk()
        searcher = BytecodeSearcher(apk.disassembly, backend="linear")
        searcher.find_invocations(
            MethodSignature("com.t.Callee", "run", (), "void")
        )
        assert searcher.backend.stats.fallbacks == 0

    def test_const_string_literal_with_regex_metacharacters(self):
        apk = _small_apk()
        for backend in ("linear", "indexed"):
            searcher = BytecodeSearcher(apk.disassembly, backend=backend)
            hits = searcher.find_const_string("hello*world")
            assert len(hits) == 1, backend
            assert searcher.find_const_string("hello.world") == []


class TestLruCache:
    def test_unbounded_by_default(self):
        cache = SearchCommandCache()
        for i in range(100):
            cache.get_or_run("raw", f"cmd{i}", lambda i=i: i)
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_bounded_cache_evicts_lru(self):
        cache = SearchCommandCache(max_entries=2)
        cache.get_or_run("raw", "a", lambda: "A")
        cache.get_or_run("raw", "b", lambda: "B")
        cache.get_or_run("raw", "a", lambda: "A")  # refresh a
        cache.get_or_run("raw", "c", lambda: "C")  # evicts b
        assert cache.stats.evictions == 1
        calls = []
        cache.get_or_run("raw", "a", lambda: calls.append("a"))
        assert calls == []  # still cached
        cache.get_or_run("raw", "b", lambda: calls.append("b"))
        assert calls == ["b"]  # was evicted, re-ran

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            SearchCommandCache(max_entries=0)

    def test_eviction_keeps_results_correct(self):
        apk = _small_apk()
        cache = SearchCommandCache(max_entries=1)
        searcher = BytecodeSearcher(apk.disassembly, cache=cache)
        sig = MethodSignature("com.t.Callee", "run", (), "void")
        first = searcher.find_invocations(sig)
        searcher.find_const_string("hello*world")  # evicts the invocation
        assert searcher.find_invocations(sig) == first
        assert cache.stats.evictions >= 1
