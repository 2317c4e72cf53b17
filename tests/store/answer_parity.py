"""Answer parity: an app index answers every query its reference does.

An app's index (:class:`~repro.store.lazy.LazyTokenIndex`) asks each
library group in turn and holds no app-wide vocabulary, so it is
compared with ``TokenIndex(disassembly)``, the direct fold of the
app-wide token stream, by its answers: ``token_lines`` is the only
query an app index serves.
"""


def reference_needles(reference):
    """Every vocabulary text and containment key of *reference*, plus a
    mid-token substring of each, in sorted order."""
    keys = set(reference.vocab).union(reference.containing)
    return sorted(keys | {key[1:-1] for key in keys if len(key) > 2})


def assert_same_answers(index, reference):
    """``index`` answers every reference needle as ``reference`` does."""
    for needle in reference_needles(reference):
        assert index.token_lines(needle) == \
            reference.token_lines(needle), needle
