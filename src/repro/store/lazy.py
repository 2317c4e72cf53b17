"""The app's token index: each library group answers for its own lines.

An app renders as library groups (:mod:`repro.store.sharding`), and
each group folds into its own mini-index.  :class:`LazyTokenIndex` is
the one app index.  It holds one part per group, in render order:

* a cold build (:meth:`TokenIndex.for_disassembly
  <repro.search.backends.indexed.TokenIndex.for_disassembly>`) holds
  each group's fold in memory, as a group
  :class:`~repro.search.backends.indexed.TokenIndex`;
* a restore (:meth:`ArtifactStore.load_index
  <repro.store.artifacts.ArtifactStore.load_index>`) holds one
  :class:`~repro.store.binshard.LazyShardView` per manifest group, and a
  group is faulted in from its mmapped shard on the first query that may
  match it.

A query (``token_lines``)

1. encodes the needle once;
2. tests each mapped group not yet decoded for candidacy with one
   zero-copy ``mmap.find`` over its vocabulary blob — a group whose blob
   lacks the needle has no token text containing it, so it contributes
   nothing and decodes nothing;
3. asks every candidate group's mini-index (one decode per faulted
   group) and concatenates the answers, each rebased by its group's
   start line, in line order.

The union is exact, not approximate: a group answers with the lines of
its token texts that contain the needle, every line's tokens belong to
exactly one group, and group line ranges are disjoint, so the rebased
answers concatenate to the answer of a direct fold of the app-wide
token stream (the parity suite checks this against the tests'
reference fold, ``reference_index`` in ``tests/store/answer_parity.py``).

A decoded group stays decoded for the index's lifetime: an app has few
groups, and a cold index holds every group's fold anyway.  Corruption
discovered at any point — header read, candidacy probe, mini-index
decode — triggers the ``heal`` callback, which re-folds the damaged
group from the live disassembly and republishes its shard (surfacing
as ``patched_groups``/``shards_patched``).  A shard of another container
version heals the same way, but is told apart: it is out of date, not
damaged.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Union

from repro.search.backends.indexed import TokenIndex
from repro.store.binshard import LazyShardView, ShardCorrupt, ShardStale


class LazyTokenIndex:
    """An app's token index, answered group by group."""

    def __init__(
        self,
        parts: list[tuple[int, Union[TokenIndex, LazyShardView]]],
        heal: Optional[Callable[[int, bool], dict]] = None,
        stats=None,
    ) -> None:
        """``parts`` is ``(start_line, group)`` per library group, in
        render order: a group's in-memory fold (a cold build) or a view
        of its published shard (a restore).  ``heal(i, stale)`` re-folds
        group *i* from the live disassembly, republishes its shard, and
        returns the repaired payload; ``stale`` is true when the shard
        was only of another container version, not damaged.  ``stats``
        (a ``StoreStats``) receives the decode counters."""
        self._parts = parts
        self._heal = heal
        #: Mapped groups decoded so far, by group number.
        self._decoded: dict[int, TokenIndex] = {}
        self._stats = stats
        self._lock = threading.Lock()
        self.restored = True
        self.build_seconds = 0.0
        #: Groups the store published from the live disassembly: the
        #: missing ones of a partial hit, then every healed one.
        self.patched_groups = 0

    # ------------------------------------------------------------------
    # Observables (the decode counters stay zero where nothing is mapped)
    # ------------------------------------------------------------------
    def _views(self) -> list[LazyShardView]:
        return [
            group for _, group in self._parts
            if isinstance(group, LazyShardView)
        ]

    @property
    def groups_total(self) -> int:
        return len(self._parts)

    @property
    def materialized_groups(self) -> int:
        """Mapped groups decoded so far."""
        return len(self._decoded)

    @property
    def bytes_mapped(self) -> int:
        return sum(view.bytes_mapped for view in self._views())

    @property
    def bytes_decoded(self) -> int:
        return sum(view.bytes_decoded for view in self._views())

    def _group_count(self, index: int, attr: str) -> int:
        """One group's ``vocab_count`` or ``posting_entries``.

        A mapped group reads them from its shard header.  The restore
        only stat-checked the file, so the first header read is where a
        torn or truncated shard surfaces — repair it exactly like a
        query would.
        """
        _, group = self._parts[index]
        try:
            return getattr(group, attr)
        except ShardCorrupt as exc:
            self._repair(index, exc)
            return getattr(group, attr)

    @property
    def posting_entries(self) -> int:
        """Exact: group line ranges are disjoint, so no two groups'
        posting entries name the same line."""
        with self._lock:
            return sum(
                self._group_count(index, "posting_entries")
                for index in range(len(self._parts))
            )

    @property
    def vocab_size(self) -> int:
        """The groups' summed vocabulary sizes: a token text that occurs
        in two groups counts twice."""
        with self._lock:
            return sum(
                self._group_count(index, "vocab_count")
                for index in range(len(self._parts))
            )

    # ------------------------------------------------------------------
    # Group faults
    # ------------------------------------------------------------------
    def _repair(self, index: int, cause: Exception) -> dict:
        payload = self._heal(index, isinstance(cause, ShardStale))
        self.patched_groups += 1
        _, view = self._parts[index]
        view.reset()  # the file was republished; drop the stale mapping
        return payload

    def _group_index(self, index: int) -> TokenIndex:
        _, group = self._parts[index]
        if isinstance(group, TokenIndex):
            return group
        decoded = self._decoded.get(index)
        if decoded is not None:
            return decoded
        try:
            payload = group.mini_index()
        except ShardCorrupt as exc:
            payload = self._repair(index, exc)
        try:
            decoded = TokenIndex.from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            # CRC-clean but structurally inconsistent (a foreign or
            # buggy writer): heal exactly like bit rot.
            decoded = TokenIndex.from_payload(self._repair(index, exc))
        self._decoded[index] = decoded
        if self._stats is not None:
            self._stats.groups_materialized += 1
        return decoded

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def token_lines(self, needle: str) -> list[int]:
        """Every line whose tokens contain *needle* as a substring."""
        needle_bytes = needle.encode("utf-8", "surrogatepass")
        lines: list[int] = []
        with self._lock:
            for index, (start, group) in enumerate(self._parts):
                mapped = isinstance(group, LazyShardView)
                if mapped and index not in self._decoded:
                    try:
                        if not group.blob_contains(needle_bytes):
                            continue
                    except ShardCorrupt:
                        pass  # decode (and heal) below
                # Group answers are sorted and group line ranges are
                # disjoint ascending, so appending keeps global order.
                lines.extend(
                    start + rel
                    for rel in self._group_index(index).token_lines(needle)
                )
        return lines

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every mapping (tests, explicit teardown)."""
        with self._lock:
            for view in self._views():
                view.close()
            self._decoded.clear()
