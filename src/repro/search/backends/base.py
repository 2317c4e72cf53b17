"""The pluggable search-backend protocol.

A :class:`SearchBackend` answers three line-level queries:

* ``token_lines``  — every line where a needle occurs inside an
  emitted token (full dex method/field signatures, type descriptors,
  quoted string literals and quoted header descriptors — the shapes
  the paper's searches actually use, see Sec. IV);
* ``literal_lines`` — every line containing an arbitrary substring;
* ``pattern_lines`` — every line matched by a regular expression.

Every search of the :class:`~repro.search.index.BytecodeSearcher`,
including the ICC name search, is a ``token_lines`` query.  The other
two serve direct callers and tools; no analysis job calls them.

Backends only return absolute line numbers; mapping a line back into the
program-analysis space (Fig. 3, steps 2-3) stays in the searcher, so
every backend yields byte-identical :class:`SearchHit` lists.
"""

from __future__ import annotations

import abc
import bisect
import re
from dataclasses import dataclass
from typing import ClassVar

from repro.dex.disassembler import Disassembly


@dataclass
class BackendStats:
    """Per-backend query counters (reported alongside cache rates)."""

    literal_queries: int = 0
    pattern_queries: int = 0
    token_queries: int = 0
    #: Queries the backend could not serve natively and delegated to a
    #: full text scan (always 0 for the linear backend).
    fallbacks: int = 0
    index_build_seconds: float = 0.0
    #: True when the index was restored from the artifact store instead
    #: of being built (always False for the linear backend).
    index_restored: bool = False
    #: Shard groups the store had to re-fold while restoring (0 for a
    #: fresh build or a full-shard restore; > 0 marks a warm-partial
    #: restore that patched only the missing groups).
    shards_patched: int = 0
    #: The library groups' summed vocabulary sizes (a token text found
    #: in two groups counts twice), equal on a cold build and on any
    #: restore of the same app.
    vocab_size: int = 0
    posting_entries: int = 0
    #: Shard groups a restored index has decoded so far (0 for fresh
    #: builds, which map nothing).
    materialized_groups: int = 0
    #: Shard bytes mmapped by a restored index (0 for fresh builds).
    bytes_mapped: int = 0
    #: Shard bytes actually decoded by a restored index; the gap to
    #: ``bytes_mapped`` is what laziness avoided paying.
    bytes_decoded: int = 0

    @property
    def queries(self) -> int:
        return self.literal_queries + self.pattern_queries + self.token_queries

    def as_dict(self) -> dict:
        return {
            "literal_queries": self.literal_queries,
            "pattern_queries": self.pattern_queries,
            "token_queries": self.token_queries,
            "fallbacks": self.fallbacks,
            "index_build_seconds": self.index_build_seconds,
            "index_restored": self.index_restored,
            "shards_patched": self.shards_patched,
            "vocab_size": self.vocab_size,
            "posting_entries": self.posting_entries,
            "materialized_groups": self.materialized_groups,
            "bytes_mapped": self.bytes_mapped,
            "bytes_decoded": self.bytes_decoded,
        }


class JoinedText:
    """One joined plaintext + cumulative line offsets, shared per app.

    Literal searches run as fast substring scans instead of per-line
    loops; the structure is memoized on the :class:`Disassembly` so
    multiple searchers/backends over one app share a single join.
    """

    def __init__(self, lines: list[str]) -> None:
        self.text = "\n".join(lines)
        self.line_offsets = [0]
        for line in lines:
            self.line_offsets.append(self.line_offsets[-1] + len(line) + 1)

    @classmethod
    def for_disassembly(cls, disassembly: Disassembly) -> "JoinedText":
        cached = getattr(disassembly, "_joined_text_cache", None)
        if cached is None:
            cached = cls(disassembly.lines)
            disassembly._joined_text_cache = cached
        return cached

    # ------------------------------------------------------------------
    def line_of_offset(self, offset: int) -> int:
        return bisect.bisect_right(self.line_offsets, offset) - 1

    def literal_lines(self, needle: str) -> list[int]:
        """All lines containing *needle*, ascending, one entry per line."""
        lines: list[int] = []
        start = 0
        while True:
            offset = self.text.find(needle, start)
            if offset < 0:
                break
            line_no = self.line_of_offset(offset)
            lines.append(line_no)
            # Continue after the end of this line: one hit per line.
            start = self.line_offsets[line_no + 1]
        return lines

    def pattern_lines(self, pattern: str) -> list[int]:
        """All lines matched by *pattern*, ascending, one entry per line."""
        compiled = re.compile(pattern)
        lines: list[int] = []
        last_line = -1
        for match in compiled.finditer(self.text):
            line_no = self.line_of_offset(match.start())
            if line_no != last_line:
                lines.append(line_no)
                last_line = line_no
        return lines


class SearchBackend(abc.ABC):
    """Line-level query engine over one app's disassembly plaintext."""

    #: Registry key and display name.
    name: ClassVar[str] = "abstract"

    def __init__(self, disassembly: Disassembly, store=None) -> None:
        self.disassembly = disassembly
        #: Optional warm-start artifact store (duck-typed to avoid a
        #: dependency cycle; see :mod:`repro.store`).  Only backends with
        #: persistable build products use it.
        self.store = store
        self.stats = BackendStats()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def literal_lines(self, needle: str) -> list[int]:
        """Lines containing an arbitrary literal substring."""

    @abc.abstractmethod
    def pattern_lines(self, pattern: str) -> list[int]:
        """Lines matched by a regular expression."""

    @abc.abstractmethod
    def token_lines(self, needle: str) -> list[int]:
        """Lines where *needle* occurs inside an emitted token.

        Must agree exactly with ``literal_lines`` for every needle whose
        every occurrence lies inside an emitted token (dex signatures,
        type descriptors, quoted literals), whatever its shape: a whole
        token text or any substring of one.  A line where the needle
        occurs only outside tokens need not be found.  The
        backend-parity suite checks this against a brute-force scan of
        the token stream.
        """

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {"name": self.name, **self.stats.as_dict()}
