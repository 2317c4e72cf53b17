"""Unit tests for the raw bytecode-text search engine."""

import pytest

from repro.android.apk import Apk
from repro.dex.builder import AppBuilder
from repro.dex.disassembler import Disassembly
from repro.dex.types import FieldSignature, MethodSignature
from repro.search.caching import SearchCommandCache
from repro.search.index import BytecodeSearcher, instruction_opcode


def _searcher(apk, cache=None):
    return BytecodeSearcher(apk.disassembly, cache=cache)


class TestLiteralSearch:
    def test_find_invocations_of_private_method(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        callee = MethodSignature(
            "com.connectsdk.service.netcast.NetcastHttpServer", "start", (), "void"
        )
        hits = searcher.find_invocations(callee)
        assert len(hits) == 1
        assert hits[0].method == MethodSignature(
            "com.connectsdk.service.NetcastTVService$1", "run", (), "void"
        )

    def test_method_header_does_not_count_as_invocation(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        callee = MethodSignature(
            "com.connectsdk.service.NetcastTVService", "connect", (), "void"
        )
        hits = searcher.find_invocations(callee)
        assert all("invoke-" in h.line for h in hits)
        # connect() is invoked exactly once, from MainActivity.onCreate.
        assert len(hits) == 1
        assert hits[0].method.class_name == "com.lge.app1.MainActivity"

    def test_no_hits_for_unknown_signature(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        ghost = MethodSignature("com.nowhere.Ghost", "boo", (), "void")
        assert searcher.find_invocations(ghost) == []

    def test_hit_carries_stmt_index(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        callee = MethodSignature(
            "com.connectsdk.service.netcast.NetcastHttpServer", "start", (), "void"
        )
        hit = searcher.find_invocations(callee)[0]
        assert hit.stmt_index is not None and hit.stmt_index >= 0


class TestFieldSearch:
    def test_find_field_accesses(self, palcomp3):
        searcher = _searcher(palcomp3)
        port = FieldSignature("com.studiosol.palcomp3.MP3LocalServer", "PORT", "int")
        accesses = searcher.find_field_accesses(port)
        kinds = {("sput" in h.line, "sget" in h.line) for h in accesses}
        assert (True, False) in kinds  # the <clinit> write
        assert (False, True) in kinds  # the <init> read

    def test_writes_only_filter(self, palcomp3):
        searcher = _searcher(palcomp3)
        port = FieldSignature("com.studiosol.palcomp3.MP3LocalServer", "PORT", "int")
        writes = searcher.find_field_accesses(port, writes_only=True)
        assert len(writes) == 1
        assert writes[0].method.name == "<clinit>"


class TestIccPrimitives:
    def test_find_const_class(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        hits = searcher.find_const_class("com.lge.app1.fota.HttpServerService")
        assert len(hits) == 1
        assert hits[0].method.class_name == "com.lge.app1.MainActivity"

    def test_find_invocations_by_name(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        hits = searcher.find_invocations_by_name("startService")
        assert len(hits) == 1
        assert hits[0].method.name == "onCreate"


class TestClassMentions:
    def test_classes_mentioning(self, heyzap):
        searcher = _searcher(heyzap)
        users = searcher.classes_mentioning("com.heyzap.internal.APIClient")
        assert users == {"com.heyzap.house.model.AdModel"}

    def test_mention_chain_to_entry(self, heyzap):
        searcher = _searcher(heyzap)
        users = searcher.classes_mentioning("com.heyzap.house.model.AdModel")
        assert "com.heyzap.sdk.ads.HeyzapInterstitialActivity" in users


def _decoy_app():
    """An app whose string literals impersonate instruction lines.

    ``Victim.m`` is really invoked once and its field really accessed
    once; every other mention lives inside ``const-string`` values that
    embed the dex signature next to an opcode-looking word.  Opcode
    filters that substring-match the whole line count the decoys too.
    """
    app = AppBuilder()
    victim = app.new_class("com.x.Victim")
    victim.field("flag", "int", static=True)
    m = victim.method("m", static=True)
    m.return_void()

    caller = app.new_class("com.x.Caller")
    call = caller.method("call", static=True)
    call.invoke_static("com.x.Victim", "m")
    call.get_static("com.x.Victim", "flag", "int")
    call.const_string("invoke-virtual {v0}, Lcom/x/Victim;.m:()V")
    call.const_string("iget-object v0, v1, Lcom/x/Victim;.flag:I")
    call.const_string("sput v0, Lcom/x/Victim;.flag:I")
    call.const_string("const-class v1, Lcom/x/Victim;")
    call.return_void()
    return Apk(package="com.x", classes=app.build())


@pytest.mark.parametrize("backend", ["linear", "indexed"])
class TestOpcodePositionFilters:
    """Regression: opcodes must match at the mnemonic slot, not anywhere
    in the line — a crafted ``const-string`` embedding a signature plus
    ``invoke-``/``iget``/... must never pass for a real site."""

    def test_invocation_decoy_excluded(self, backend):
        apk = _decoy_app()
        searcher = BytecodeSearcher(apk.disassembly, backend=backend)
        sig = MethodSignature("com.x.Victim", "m", (), "void")
        hits = searcher.find_invocations(sig)
        assert len(hits) == 1
        assert hits[0].method.name == "call"
        assert instruction_opcode(hits[0].line) == "invoke-static"

    def test_field_access_decoys_excluded(self, backend):
        apk = _decoy_app()
        searcher = BytecodeSearcher(apk.disassembly, backend=backend)
        fsig = FieldSignature("com.x.Victim", "flag", "int")
        hits = searcher.find_field_accesses(fsig)
        assert len(hits) == 1
        assert instruction_opcode(hits[0].line) == "sget"
        # The "sput ..." decoy string must not count as a write either.
        assert searcher.find_field_accesses(fsig, writes_only=True) == []

    def test_const_class_decoy_excluded(self, backend):
        apk = _decoy_app()
        searcher = BytecodeSearcher(apk.disassembly, backend=backend)
        hits = searcher.find_const_class("com.x.Victim")
        assert hits == []

    def test_name_search_finds_a_call_after_an_invoke_like_string(
        self, backend
    ):
        # A string literal that spells the start of an invoke line
        # ("invoke-x {") must not hide the real call on the next line:
        # a match may not start in one line and end in the next.
        app = AppBuilder()
        app.new_class("com.t.Svc").method(
            "startService", static=True
        ).return_void()
        go = app.new_class("com.t.Caller").method("go", static=True)
        go.const_string("invoke-x {")
        go.invoke_static("com.t.Svc", "startService")
        go.return_void()
        apk = Apk(package="com.t", classes=app.build())
        searcher = BytecodeSearcher(apk.disassembly, backend=backend)
        callee = MethodSignature("com.t.Svc", "startService", (), "void")
        expected = searcher.find_invocations(callee)
        assert len(expected) == 1
        assert searcher.find_invocations_by_name("startService") == expected


class TestInstructionOpcode:
    def test_rendered_invoke_line(self, lg_tv_plus):
        searcher = _searcher(lg_tv_plus)
        sig = MethodSignature(
            "com.connectsdk.service.netcast.NetcastHttpServer", "start", (), "void"
        )
        line = searcher.find_invocations(sig)[0].line
        assert instruction_opcode(line) == "invoke-virtual"

    def test_wide_address_and_offset_still_match(self):
        # The renderer's :06x/:04x widths grow on huge apps; the opcode
        # slot must still be recognised past 0xFFFFFF / 0xFFFF.
        gutter = " " * 24
        line = f"1abcdef0: {gutter}|11170: invoke-static {{}}, La;.m:()V"
        assert instruction_opcode(line) == "invoke-static"

    def test_non_instruction_lines_have_no_opcode(self, lg_tv_plus):
        assert instruction_opcode("  Class descriptor  : 'Lcom/a/B;'") is None
        assert instruction_opcode("") is None
        # Method headers use |[addr], not |off: — never an opcode slot.
        header = next(
            line for line in lg_tv_plus.disassembly.lines if "|[" in line
        )
        assert instruction_opcode(header) is None


class TestSubclassHeaderAttribution:
    """Regression for the stale ``current_class`` in
    ``subclass_header_mentions``: each hit resolves against its *own*
    nearest class-descriptor line, and an unresolvable hit contributes
    nothing instead of inheriting the previous hit's class."""

    def _handcrafted(self, lines):
        return BytecodeSearcher(
            Disassembly(lines), backend="linear"
        )

    def test_malformed_descriptor_contributes_nothing(self):
        searcher = self._handcrafted([
            "  Class descriptor  : 'Lcom/a/Sub;'",
            "  Superclass        : 'Lcom/a/Base;'",
            "  Class descriptor  : <unparseable>",
            "  Superclass        : 'Lcom/a/Base;'",
        ])
        assert searcher.subclass_header_mentions("com.a.Base") == {"com.a.Sub"}
        assert searcher._owning_class_of(3) is None

    def test_hit_before_any_descriptor_contributes_nothing(self):
        searcher = self._handcrafted([
            "  Superclass        : 'Lcom/a/Base;'",
            "  Class descriptor  : 'Lcom/a/Sub;'",
            "  Superclass        : 'Lcom/a/Base;'",
        ])
        assert searcher.subclass_header_mentions("com.a.Base") == {"com.a.Sub"}
        assert searcher._owning_class_of(0) is None

    def test_each_hit_attributed_to_its_own_class(self):
        searcher = self._handcrafted([
            "  Class descriptor  : 'Lcom/a/One;'",
            "  Superclass        : 'Lcom/a/Base;'",
            "  Class descriptor  : 'Lcom/a/Two;'",
            "  Superclass        : 'Lcom/a/Base;'",
        ])
        assert searcher.subclass_header_mentions("com.a.Base") == \
            {"com.a.One", "com.a.Two"}
        assert searcher._owning_class_of(1) == "com.a.One"
        assert searcher._owning_class_of(3) == "com.a.Two"

    def test_self_mention_suppressed(self):
        searcher = self._handcrafted([
            "  Class descriptor  : 'Lcom/a/Base;'",
            "  Superclass        : 'Ljava/lang/Object;'",
        ])
        assert searcher.subclass_header_mentions("com.a.Base") == set()


class TestCommandCaching:
    def test_repeated_commands_hit_cache(self, lg_tv_plus):
        cache = SearchCommandCache()
        searcher = _searcher(lg_tv_plus, cache=cache)
        callee = MethodSignature(
            "com.connectsdk.service.netcast.NetcastHttpServer", "start", (), "void"
        )
        first = searcher.find_invocations(callee)
        assert cache.stats.hits == 0
        second = searcher.find_invocations(callee)
        assert second == first
        assert cache.stats.hits == 1
        assert 0.0 < cache.stats.rate < 1.0

    def test_cache_rates_by_kind(self, lg_tv_plus):
        cache = SearchCommandCache()
        searcher = _searcher(lg_tv_plus, cache=cache)
        searcher.find_const_class("com.lge.app1.fota.HttpServerService")
        searcher.find_const_class("com.lge.app1.fota.HttpServerService")
        assert cache.stats_by_kind["invoked-class"].hits == 1
