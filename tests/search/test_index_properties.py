"""Property tests for the search index's hit attribution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apk import Apk
from repro.dex.builder import AppBuilder
from repro.dex.types import MethodSignature
from repro.search.backends import JoinedText
from repro.search.index import BytecodeSearcher


@st.composite
def apps_with_markers(draw):
    """An app with distinctive string constants scattered over methods."""
    n_classes = draw(st.integers(min_value=1, max_value=4))
    n_methods = draw(st.integers(min_value=1, max_value=4))
    placements = {}
    app = AppBuilder()
    marker_id = 0
    for c in range(n_classes):
        cls = app.new_class(f"com.idx.C{c}")
        for m in range(n_methods):
            method = cls.method(f"m{m}", static=True)
            if draw(st.booleans()):
                marker = f"MARKER_{marker_id}"
                marker_id += 1
                method.const_string(marker)
                placements[marker] = MethodSignature(
                    f"com.idx.C{c}", f"m{m}", (), "void"
                )
            method.return_void()
    return Apk(package="com.idx", classes=app.build()), placements


class TestHitAttribution:
    @given(apps_with_markers())
    @settings(max_examples=30, deadline=None)
    def test_every_marker_attributed_to_its_method(self, case):
        """block_at_line maps each hit to exactly the method holding it."""
        apk, placements = case
        searcher = BytecodeSearcher(apk.disassembly)
        for marker, owner in placements.items():
            hits = searcher.find_const_string(marker)
            assert len(hits) == 1, marker
            assert hits[0].method == owner

    @given(apps_with_markers())
    @settings(max_examples=20, deadline=None)
    def test_absent_needles_have_no_hits(self, case):
        apk, placements = case
        searcher = BytecodeSearcher(apk.disassembly)
        assert searcher.find_const_string("NEVER_PRESENT_MARKER") == []

    @given(apps_with_markers())
    @settings(max_examples=20, deadline=None)
    def test_line_offsets_consistent(self, case):
        """Internal offset mapping agrees with naive line counting."""
        apk, _ = case
        joined = JoinedText.for_disassembly(apk.disassembly)
        text = joined.text
        for probe in range(0, len(text), max(1, len(text) // 17)):
            expected_line = text.count("\n", 0, probe)
            assert joined.line_of_offset(probe) == expected_line
