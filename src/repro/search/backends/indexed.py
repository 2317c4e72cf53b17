"""The inverted-index backend: prebuilt posting lists over dex tokens.

The disassembler already knows, while rendering, which substrings of each
line a bytecode search could target (method/field signatures, type
descriptors, quoted literals) and emits them as one token stream per
library group (:attr:`~repro.dex.disassembler.Disassembly.group_tokens`).
This backend folds each group's stream once (:func:`fold_tokens`) into a
group :class:`TokenIndex`: the group's vocabulary (its distinct token
texts) and each text's posting list of line numbers.  No job path folds
a whole app in one piece; the tests keep that direct fold as their
reference.

Every token query is answered one way: find the needle in the group's
joined vocabulary and return the lines of every token text that contains
it.  That is the linear scan's answer for any needle whose every
occurrence lies inside tokens, read from a vocabulary a small fraction
of the plaintext's size.

The app's index asks each group in turn and concatenates the answers in
line order (:class:`~repro.store.lazy.LazyTokenIndex`); a cold build and
a store restore serve the same index, over in-memory folds or mapped
shards.  Every search a job issues is such a token query.  The
protocol's arbitrary literal and regex queries, which no job issues,
are answered by a scan of the app's joined text and counted as
fallbacks in the backend stats.

The index is built lazily on first query and memoized on the
:class:`Disassembly`, so every searcher over one app shares one build.
The group folds are the ones the artifact store publishes as shards.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Optional

from repro.dex.disassembler import Disassembly
from repro.search.backends.base import JoinedText, SearchBackend
from repro.telemetry import tracing

if TYPE_CHECKING:
    from repro.store.lazy import LazyTokenIndex


def fold_tokens(tokens) -> tuple[list[str], list[list[int]]]:
    """Fold ``(line, kind, text)`` triples into a mini-index.

    The one fold in the codebase: a library group's shard, the app's
    index (composed from its groups' folds) and ``store verify``'s
    replay all come from it.  Returns ``(vocab, postings)``: token texts
    in first-appearance order and each text's ascending lines.
    """
    vocab: list[str] = []
    postings: list[list[int]] = []
    ids: dict[str, int] = {}
    for line_no, _kind, text in tokens:
        tid = ids.get(text)
        if tid is None:
            ids[text] = len(vocab)
            vocab.append(text)
            postings.append([line_no])
            continue
        posting = postings[tid]
        if posting[-1] != line_no:
            posting.append(line_no)
    return vocab, postings


class TokenIndex:
    """Posting lists over one fold: a library group's mini-index.

    An app's index (:meth:`for_disassembly`) asks each of its library
    groups in turn, and each group answers with one of these.
    """

    def __init__(self, vocab: list[str], postings: list[list[int]]) -> None:
        """Wrap one fold (:func:`fold_tokens`) as it is: no entry is
        checked or copied."""
        self.vocab = vocab
        self.postings = postings
        self._joined: Optional[JoinedText] = None
        self.posting_entries = sum(map(len, postings))

    # ------------------------------------------------------------------
    @classmethod
    def for_disassembly(cls, disassembly: Disassembly) -> LazyTokenIndex:
        """The app's index, built once per disassembly (memoized).

        Each library group is folded once (:meth:`ShardGroup.fold
        <repro.store.sharding.ShardGroup.fold>`) and answers for its own
        lines (:class:`~repro.store.lazy.LazyTokenIndex`), exactly as a
        restored index's groups do.  A store attached to the same
        disassembly publishes these folds as its shards instead of
        folding again.
        """
        cached = getattr(disassembly, "_token_index_cache", None)
        if cached is None:
            # Imported here: the store layer imports this module.
            from repro.store.lazy import LazyTokenIndex
            from repro.store.sharding import partition_disassembly

            started = time.perf_counter()
            cached = LazyTokenIndex([
                (group.start_line, cls(**group.fold()))
                for group in partition_disassembly(disassembly)
            ])
            cached.restored = False
            cached.build_seconds = time.perf_counter() - started
            disassembly._token_index_cache = cached
        return cached

    @classmethod
    def from_payload(cls, payload: dict) -> "TokenIndex":
        """Rebuild a group's index from a decoded shard's mini-index.

        No token-stream fold, but every entry is checked: raises
        ``KeyError``/``TypeError``/``ValueError`` on any shape mismatch
        so the store can treat the shard as corrupt.
        """
        vocab = [str(text) for text in payload["vocab"]]
        postings = [
            [int(line_no) for line_no in posting]
            for posting in payload["postings"]
        ]
        if len(postings) != len(vocab):
            raise ValueError("postings/vocab length mismatch")
        return cls(vocab, postings)

    @property
    def vocab_count(self) -> int:
        """Distinct token texts (a shard header's count of the same)."""
        return len(self.vocab)

    # ------------------------------------------------------------------
    def token_lines(self, needle: str) -> list[int]:
        """Every line whose tokens contain *needle* as a substring.

        One substring scan of the joined vocabulary.  A match counts
        only if it ends inside the token text it starts in: one that
        runs over the ``\\n`` separating two texts counts for neither.
        """
        if not self.vocab:
            return []
        if self._joined is None:
            self._joined = JoinedText(self.vocab)
        text, offsets = self._joined.text, self._joined.line_offsets
        lines: set[int] = set()
        start = 0
        while True:
            offset = text.find(needle, start)
            if offset < 0:
                return sorted(lines)
            tid = self._joined.line_of_offset(offset)
            # Every later match inside this text ends later still, so
            # the scan resumes at the next text either way.
            start = offsets[tid + 1]
            if offset + len(needle) < start:
                lines.update(self.postings[tid])


class InvertedIndexBackend(SearchBackend):
    """Token queries answered by the app's per-group index.

    With an artifact ``store`` attached, the index is restored from the
    store's per-class-group shards when any exist for this disassembly
    (``index_restored`` set in the stats; a full-shard hit reports
    ``index_build_seconds == 0.0``, a partial hit publishes only the
    missing groups and reports them as ``shards_patched``) and saved
    back after a cold build, so later runs over the same bytecode — or
    over *different apps embedding the same libraries* — skip the fold.
    """

    name = "indexed"

    def __init__(self, disassembly: Disassembly, store=None) -> None:
        super().__init__(disassembly, store=store)
        self._index: Optional[LazyTokenIndex] = None
        self._fallback: Optional[JoinedText] = None

    # ------------------------------------------------------------------
    @property
    def index(self) -> LazyTokenIndex:
        if self._index is None:
            index = getattr(self.disassembly, "_token_index_cache", None)
            if index is None:
                shared = getattr(self.disassembly, "_restored_index", None)
                index = shared() if shared is not None else None
            if index is None and self.store is not None:
                with tracing.span("index.restore") as restore_span:
                    index = self.store.load_index(self.disassembly)
                    restore_span.set_attr("hit", index is not None)
                if index is not None:
                    # Share the restored index with sibling searchers,
                    # weakly: a restored index's heal callback holds
                    # this disassembly, so a strong reference back would
                    # be a cycle only the cyclic collector frees.
                    self.disassembly._restored_index = weakref.ref(index)
            if index is None:
                # A disassembly without library groups is refused by
                # the partition the fold (and the store key) reads.
                with tracing.span("index.fold") as fold_span:
                    index = TokenIndex.for_disassembly(self.disassembly)
                    fold_span.set_attr(
                        "build_seconds", index.build_seconds
                    )
                if self.store is not None:
                    with tracing.span("store.save_index"):
                        self.store.save_index(self.disassembly)
            self._index = index
            self.stats.index_build_seconds = index.build_seconds
            self.stats.index_restored = index.restored
            # A restored index reads the counts from its shard headers,
            # which is also where a torn shard file first surfaces (and
            # heals), so the patch counter is read afterwards.
            self.stats.vocab_size = index.vocab_size
            self.stats.posting_entries = index.posting_entries
            self.stats.shards_patched = index.patched_groups
        return self._index

    # ------------------------------------------------------------------
    def token_lines(self, needle: str) -> list[int]:
        self.stats.token_queries += 1
        return self.index.token_lines(needle)

    def literal_lines(self, needle: str) -> list[int]:
        self.stats.literal_queries += 1
        self.stats.fallbacks += 1
        return self._joined().literal_lines(needle)

    def pattern_lines(self, pattern: str) -> list[int]:
        self.stats.pattern_queries += 1
        self.stats.fallbacks += 1
        return self._joined().pattern_lines(pattern)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """The stats snapshot, with live decode counters.

        A restored index decodes groups (and may heal shards) *after*
        the index property primed the stats, so the counters are
        re-read from the index at snapshot time — this is what the
        session layer's per-request deltas diff.
        """
        index = self._index
        if index is not None:
            self.stats.materialized_groups = index.materialized_groups
            self.stats.bytes_mapped = index.bytes_mapped
            self.stats.bytes_decoded = index.bytes_decoded
            self.stats.shards_patched = index.patched_groups
            self.stats.vocab_size = index.vocab_size
        return super().describe()

    # ------------------------------------------------------------------
    def _joined(self) -> JoinedText:
        if self._fallback is None:
            self._fallback = JoinedText.for_disassembly(self.disassembly)
        return self._fallback
