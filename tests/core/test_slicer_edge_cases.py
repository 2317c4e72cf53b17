"""Edge-case tests for the backward slicer."""

from repro.android.apk import Apk
from repro.android.manifest import ComponentKind, Manifest
from repro.core import BackDroid, BackDroidConfig
from repro.core.slicer import BackwardSlicer
from repro.dex.builder import AppBuilder


def _registered(app, manifest, name):
    cls = app.new_class(name, superclass="android.app.Activity")
    cls.default_constructor()
    manifest.register(name, ComponentKind.ACTIVITY)
    return cls


class TestCrossHandlerDataflow:
    def test_value_set_in_oncreate_read_in_onstart(self):
        """The Sec. IV-E scenario: the sink value is written by an
        earlier lifecycle handler; the field search bridges handlers."""
        app = AppBuilder()
        manifest = Manifest("com.e")
        main = _registered(app, manifest, "com.e.Main")
        main.field("mode", "java.lang.String")
        oc = main.method("onCreate", params=["android.os.Bundle"])
        this = oc.this()
        oc.param(0)
        oc.put_field(this, "com.e.Main", "mode", "java.lang.String",
                     "AES/ECB/PKCS5Padding")
        oc.return_void()
        os_ = main.method("onStart")
        s_this = os_.this()
        mode = os_.get_field(s_this, "com.e.Main", "mode", "java.lang.String")
        os_.invoke_static(
            "javax.crypto.Cipher", "getInstance", args=[mode],
            params=["java.lang.String"], returns="javax.crypto.Cipher",
        )
        os_.return_void()
        apk = Apk(package="com.e", classes=app.build(), manifest=manifest)
        report = BackDroid(BackDroidConfig(sink_rules=("crypto-ecb",))).analyze(apk)
        assert report.vulnerable
        assert report.records[0].facts_repr[0] == '"AES/ECB/PKCS5Padding"'


def _chain_apk(depth):
    """``onCreate`` passes a constant down a linear chain of ``depth``
    static helpers; the last one hands it to ``Cipher.getInstance``."""
    app = AppBuilder()
    manifest = Manifest("com.e")
    main = _registered(app, manifest, "com.e.Main")
    helper = app.new_class("com.e.H")
    for level in range(depth):
        m = helper.method(f"s{level}", params=["java.lang.String"], static=True)
        arg = m.param(0)
        if level == depth - 1:
            m.invoke_static(
                "javax.crypto.Cipher", "getInstance", args=[arg],
                params=["java.lang.String"], returns="javax.crypto.Cipher",
            )
        else:
            m.invoke_static("com.e.H", f"s{level + 1}", args=[arg],
                            params=["java.lang.String"])
        m.return_void()
    oc = main.method("onCreate", params=["android.os.Bundle"])
    oc.this()
    oc.param(0)
    t = oc.const_string("AES/ECB/PKCS5Padding")
    oc.invoke_static("com.e.H", "s0", args=[t], params=["java.lang.String"])
    oc.return_void()
    return Apk(package="com.e", classes=app.build(), manifest=manifest)


class _CountingSlicer(BackwardSlicer):
    """Counts the frames a walk processes."""

    processed = 0

    def _process(self, ssg, frame):
        self.processed += 1
        super()._process(ssg, frame)


class TestRobustness:
    def test_frame_budget_exhaustion_is_noted_not_fatal(self):
        # A long linear chain to burn frames.
        apk = _chain_apk(30)

        tight = BackDroid(BackDroidConfig(sink_rules=("crypto-ecb",), max_frames=5))
        report = tight.analyze(apk)
        # With a tiny budget the slice cannot prove reachability, so the
        # sink is conservatively not reported — but nothing crashes.
        assert report.sink_count == 1
        assert not report.records[0].reachable

        generous = BackDroid(BackDroidConfig(sink_rules=("crypto-ecb",)))
        assert generous.analyze(apk).vulnerable

    def test_budget_note_only_when_the_budget_cut_the_walk(self):
        from repro.android.framework import sinks_for_rules
        from repro.core.backdroid import find_sink_call_sites
        from repro.search.engine import CallerResolutionEngine

        apk = _chain_apk(3)
        engine = CallerResolutionEngine(apk)
        (site,) = find_sink_call_sites(
            apk, engine, sinks_for_rules(("crypto-ecb",))
        )
        walk = _CountingSlicer(apk, engine)
        assert "frame budget exhausted" not in walk.slice_sink(site).notes
        needed = walk.processed
        assert needed >= 2
        # A budget of exactly the frames the walk needs finishes it.
        exact = BackwardSlicer(apk, engine, max_frames=needed)
        ssg = exact.slice_sink(site)
        assert "frame budget exhausted" not in ssg.notes
        assert ssg.reached_entry
        # One frame fewer leaves a frame unprocessed.
        short = BackwardSlicer(apk, engine, max_frames=needed - 1)
        assert "frame budget exhausted" in short.slice_sink(site).notes

    def test_sink_in_unparseable_position_ignored(self):
        """A sink signature appearing only in a method header (no
        invocation) must not be treated as a call site."""
        app = AppBuilder()
        manifest = Manifest("com.e")
        # An app class that *declares* a method named getInstance with
        # the same sub-signature; the initial search must not confuse it.
        impostor = app.new_class("com.e.Cipherish")
        m = impostor.method("getInstance", params=["java.lang.String"],
                            returns="javax.crypto.Cipher", static=True)
        m.param(0)
        m.return_value(None)
        apk = Apk(package="com.e", classes=app.build(), manifest=manifest)
        report = BackDroid(BackDroidConfig(sink_rules=("crypto-ecb",))).analyze(apk)
        assert report.sink_count == 0

    def test_multidex_merge_analyzed_as_one(self):
        """Classes split across dex pools are searched as one plaintext."""
        first = AppBuilder()
        helper = first.new_class("com.e.H")
        hm = helper.method("go", params=["java.lang.String"], static=True)
        arg = hm.param(0)
        hm.invoke_static(
            "javax.crypto.Cipher", "getInstance", args=[arg],
            params=["java.lang.String"], returns="javax.crypto.Cipher",
        )
        hm.return_void()
        second = AppBuilder()
        manifest = Manifest("com.e")
        main = _registered(second, manifest, "com.e.Main")
        oc = main.method("onCreate", params=["android.os.Bundle"])
        oc.this()
        oc.param(0)
        t = oc.const_string("DES")
        oc.invoke_static("com.e.H", "go", args=[t], params=["java.lang.String"])
        oc.return_void()

        merged = first.build()
        merged.merge(second.build())
        apk = Apk(package="com.e", classes=merged, manifest=manifest)
        report = BackDroid(BackDroidConfig(sink_rules=("crypto-ecb",))).analyze(apk)
        assert report.vulnerable


class TestSlicerDirect:
    def test_unknown_sink_method_yields_empty_ssg(self):
        from repro.android.framework import sinks_for_rules
        from repro.core.slicer import SinkCallSite
        from repro.dex.types import MethodSignature

        apk = Apk(package="com.e", classes=AppBuilder().build(),
                  manifest=Manifest("com.e"))
        slicer = BackwardSlicer(apk)
        site = SinkCallSite(
            method=MethodSignature("com.ghost.C", "m", (), "void"),
            stmt_index=0,
            spec=sinks_for_rules(("crypto-ecb",))[0],
        )
        ssg = slicer.slice_sink(site)
        assert len(ssg) == 0
        assert not ssg.reached_entry
        assert ssg.notes
