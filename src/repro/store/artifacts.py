"""The content-addressed on-disk artifact store.

Market-scale vetting re-analyzes the same corpus again and again
(new sink rules, new detector versions, re-runs after crashes), yet the
per-app preprocessing — disassembly tokenization and the inverted-index
posting lists — is identical across runs as long as the app's bytecode
is unchanged.  This store persists those artifacts on disk so a second
batch run over an unchanged corpus restores each app's index instead of
rebuilding it, and (in ``"full"`` mode) restores the finished per-app
outcome instead of re-analyzing.

Artifacts are **sharded**: an app's plaintext, layout, token stream and
posting lists are split per class group (consecutive classes under one
library prefix — see :mod:`repro.store.sharding`), each shard is keyed
by a sha256 of its position-independent content, and the app entry
stores a *manifest* listing shard keys instead of a monolithic blob.
Two apps embedding the same library therefore persist that library's
artifacts exactly once.  Restoring an app serves the same per-group
index a cold build queries, over the shards — and, on an index hit,
composes the shards' text and layout back into the app's disassembly
itself (:meth:`ArtifactStore.load_disassembly`), so the hit never
renders the plaintext.

Layout (see ``docs/STORE_FORMAT.md`` for the full spec)::

    <root>/objects/<key[:2]>/<key>/
        manifest.json           ordered shard references + line offsets
        outcome-<config>.json   one finished batch outcome per config
    <root>/shards/<sha[:2]>/<sha>.bin
        one class group, v4 binary container (struct-packed sections;
        see :mod:`repro.store.binshard`): text + layout + relative
        tokens + prefolded mini-index
    <root>/specmap/<fp[:2]>/<fp>.json
        app-spec fingerprint -> disassembly content key

Restores are **lazy**: a warm entry returns a
:class:`~repro.store.lazy.LazyTokenIndex` that mmaps each shard and
decodes a group's posting lists only when a query touches it, so warm
sessions pay decode cost proportional to the groups they query, not to
the app's size.

Concurrency: batch runs write from many pool processes at once.  Every
write goes to a same-directory temp file first and is published with an
atomic :func:`os.replace`, so concurrent readers only ever see absent or
complete entries — never a torn file.  Duplicate writers race benignly
(last rename wins; the content is identical by construction).

Corruption and staleness are handled by treating every unreadable,
version-mismatched or key-mismatched entry as a miss: the caller falls
back to a fresh build and overwrites the entry.  A shard counts only
when its header is current (this container version, its own content
address); any other is rebuilt like a missing one.  A manifest pointing
at a *missing or corrupt shard* is patched in place when the caller
holds the disassembly (only the damaged groups are re-folded —
incremental re-indexing), and reads as a plain miss otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.dex.disassembler import PREAMBLE, Disassembly, RestoredDisassembly
from repro.search.backends.indexed import fold_tokens
from repro.store.binshard import (
    FORMAT_VERSION,
    SEC_LAYOUT,
    SEC_TEXT,
    LazyShardView,
    ShardCorrupt,
    ShardStale,
    decode_shard,
    header_is_current,
    shard_chunks,
)
from repro.store.lazy import LazyTokenIndex
from repro.store.sharding import (
    KEY_VERSION,
    ShardGroup,
    decode_layout,
    encode_lines,
    partition_disassembly,
    shard_payload,
    tokens_from_shard,
)


@dataclass
class StoreStats:
    """Hit/miss counters for one store root (one process's view).

    Shared by every :class:`ArtifactStore` handle on the same root in
    this process — configs hand out fresh handles per analysis, and a
    per-handle view would read as permanently zero to anything
    monitoring the aggregate (the service's ``/v1/stats``).  Counter
    bumps are single ``int`` operations, so sharing across worker
    threads is safe.
    """

    index_hits: int = 0
    index_misses: int = 0
    #: Index restores where some (not all) shards were present: the
    #: missing groups were re-folded and published, the rest served
    #: from disk.
    partial_hits: int = 0
    outcome_hits: int = 0
    outcome_misses: int = 0
    #: Per-shard presence results across all index restores.
    shard_hits: int = 0
    shard_misses: int = 0
    #: Shards re-folded from a live disassembly to repair a partial
    #: entry (the incremental re-indexing path) or a damaged text or
    #: layout section found by a disassembly restore.
    shards_patched: int = 0
    #: Shards a save skipped because identical content was already
    #: published (by this app earlier, or by another app sharing the
    #: class group — the cross-app dedup counter).
    shards_shared: int = 0
    writes: int = 0
    #: Entries that existed but were unreadable or failed validation
    #: (torn JSON, wrong version, key mismatch) and fell back to a miss,
    #: and damaged shards a query healed (a shard of another container
    #: version heals without counting here: it is out of date, not
    #: damaged).
    corrupt_entries: int = 0
    #: Shard groups lazily decoded across every index restore.
    groups_materialized: int = 0

    def as_dict(self) -> dict:
        """All counters as a JSON-able dict (service ``/v1/stats``)."""
        return {
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "partial_hits": self.partial_hits,
            "outcome_hits": self.outcome_hits,
            "outcome_misses": self.outcome_misses,
            "shard_hits": self.shard_hits,
            "shard_misses": self.shard_misses,
            "shards_patched": self.shards_patched,
            "shards_shared": self.shards_shared,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
            "groups_materialized": self.groups_materialized,
        }


@dataclass
class StoreInventory:
    """What ``describe`` reports: the on-disk shape of a store.

    Alongside raw entry/file counts, carries the cross-app dedup
    accounting: ``logical_shard_bytes`` is what the store would hold if
    every app persisted its shards privately (each manifest reference
    paid in full); ``shard_bytes`` is what sharing actually costs.
    """

    root: str
    entries: int = 0
    files_by_kind: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    #: Unique shard files on disk.
    shards: int = 0
    #: Bytes held by unique shard files.
    shard_bytes: int = 0
    #: Manifest -> shard references across all app entries (>= shards
    #: once any two apps share a class group).
    shard_refs: int = 0
    #: Bytes the referenced shards would occupy without dedup.
    logical_shard_bytes: int = 0

    @property
    def bytes_saved(self) -> int:
        """Bytes cross-app sharding avoided storing."""
        return max(0, self.logical_shard_bytes - self.shard_bytes)

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical shard bytes (1.0 = no sharing yet)."""
        return (
            self.logical_shard_bytes / self.shard_bytes
            if self.shard_bytes
            else 1.0
        )

    def render(self) -> str:
        """A human-readable multi-line summary (``store stats``)."""
        lines = [
            f"store at {self.root}",
            f"  entries     : {self.entries}",
            f"  total bytes : {self.total_bytes}",
            f"  shards      : {self.shards} unique "
            f"({self.shard_refs} reference(s))",
            f"  shard bytes : {self.shard_bytes} "
            f"(logical {self.logical_shard_bytes}, "
            f"saved {self.bytes_saved})",
            f"  dedup ratio : {self.dedup_ratio:.2f}x",
        ]
        for kind in sorted(self.files_by_kind):
            lines.append(f"  {kind:11} : {self.files_by_kind[kind]} file(s)")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """The machine-readable snapshot (``store stats --json``)."""
        return {
            "root": self.root,
            "entries": self.entries,
            "files_by_kind": dict(self.files_by_kind),
            "total_bytes": self.total_bytes,
            "shards": self.shards,
            "shard_bytes": self.shard_bytes,
            "shard_refs": self.shard_refs,
            "logical_shard_bytes": self.logical_shard_bytes,
            "bytes_saved": self.bytes_saved,
            "dedup_ratio": self.dedup_ratio,
        }


@dataclass
class GcResult:
    """What one :meth:`ArtifactStore.gc` sweep removed."""

    entries_removed: int = 0
    shards_removed: int = 0
    bytes_reclaimed: int = 0


#: Warm-hit classification levels a probe can report, warmest first:
#: a finished outcome for the probed config beats a fully restorable
#: index (every shard present), which beats a partially restorable one
#: (some shards present; the rest are patched from the disassembly),
#: which beats nothing.
PROBE_LEVELS = ("outcome", "index", "partial", "none")

#: Levels the schedulers treat as warm (cheap enough for a fast lane).
#: A partial hit qualifies: composing the present shards and re-folding
#: only the missing groups is far cheaper than a cold build.
WARM_LEVELS = ("outcome", "index", "partial")


@dataclass(frozen=True)
class StoreProbe:
    """The warmest artifact level present for one content key."""

    key: str
    level: str
    #: Shard groups the entry's manifest references (0 when no manifest
    #: is published for the key).
    shards_total: int = 0
    #: How many of those shards are currently on disk.
    shards_present: int = 0

    @property
    def warm(self) -> bool:
        """Whether a scheduler should route this key to the fast lane."""
        return self.level in WARM_LEVELS


@dataclass(frozen=True)
class VerifyEntry:
    """One entry's verdict from :meth:`ArtifactStore.verify`.

    Failing statuses are ``mismatch`` (a shard's stored mini-index
    diverges from a re-fold of its own token stream, or its content
    hash no longer matches its name), ``corrupt`` (unreadable or
    key-mismatched payload) and ``missing-shard`` (the manifest
    references a shard that is gone — a live run patches it, so it is
    flagged rather than fatal).  ``no-index`` (outcome-only entry) and
    ``stale`` (another format version — the runtime load path treats
    these as harmless misses and rebuilds) are skips, not failures.
    """

    key: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True for passing and skip statuses (non-failures)."""
        return self.status in ("ok", "no-index", "stale")


def _key_digest(preamble: bytes):
    """The running app-key hash, fed the plaintext before any group."""
    digest = hashlib.sha256()
    digest.update(f"backdroid-store-v{KEY_VERSION}\n".encode())
    digest.update(preamble)
    return digest


def store_key(disassembly: Disassembly) -> str:
    """The content address of one app's disassembly (memoized).

    Hashes every plaintext line, each newline-terminated, plus the
    :data:`KEY_VERSION`, so any bytecode change — or any change to the
    hashed content itself — yields a different key and naturally
    invalidates stale entries.  The text is fed group by group, over
    :func:`~repro.store.sharding.partition_disassembly`'s groups: the
    bytes hashed here are the very bytes the shards' text sections
    store, encoded once.  The *container* version is deliberately
    absent: it describes how shards are encoded, not what they hold.
    """
    cached = getattr(disassembly, "_store_key_cache", None)
    if cached is None:
        groups = partition_disassembly(disassembly)
        lines = disassembly.lines
        digest = _key_digest(
            encode_lines(lines[:groups[0].start_line] if groups else lines)
        )
        for group in groups:
            digest.update(group.text)
        cached = digest.hexdigest()
        disassembly._store_key_cache = cached
    return cached


def _layout_digest(layouts) -> str:
    """The digest an app's manifest records over its groups' layouts."""
    digest = hashlib.sha256()
    for layout in layouts:
        digest.update(f"{len(layout)}\n".encode())
        digest.update(layout)
    return digest.hexdigest()


#: One shared StoreStats per store root per process (see StoreStats).
_STATS_BY_ROOT: dict[str, StoreStats] = {}


class ArtifactStore:
    """A content-addressed warm-start store rooted at one directory.

    Handles are cheap to construct and safe to build per process: all
    state lives on disk, and every publish is an atomic rename.
    """

    def __init__(self, root) -> None:
        """Open (lazily) the store rooted at ``root``; never touches
        disk until the first read or write."""
        self.root = Path(root)
        self.stats = _STATS_BY_ROOT.setdefault(
            os.path.abspath(str(self.root)), StoreStats()
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: str) -> Path:
        """The directory holding one app key's manifest and outcomes."""
        return self.root / "objects" / key[:2] / key

    def _manifest_path(self, key: str) -> Path:
        return self.entry_dir(key) / "manifest.json"

    def _shard_path(self, sha: str) -> Path:
        return self.root / "shards" / sha[:2] / f"{sha}.bin"

    def _shard_present(self, sha: str) -> bool:
        """Stat/size-only presence probe — never parses a payload.

        Probes call this per shard; reading there would make every
        probe cost a file open per shard instead of one ``stat``.
        """
        try:
            return self._shard_path(sha).stat().st_size > 0
        except OSError:
            return False

    def _shard_current(self, sha: str) -> bool:
        """Whether a save or an index restore may use ``sha``'s shard.

        A stale or torn-header shard is not current, and is republished
        like a missing one; damage past the header heals on first use.
        """
        return header_is_current(self._shard_path(sha), sha)

    def _outcome_path(self, key: str, config_fingerprint: str) -> Path:
        return self.entry_dir(key) / f"outcome-{config_fingerprint}.json"

    def _spec_path(self, spec_fingerprint: str) -> Path:
        return (
            self.root / "specmap" / spec_fingerprint[:2]
            / f"{spec_fingerprint}.json"
        )

    # ------------------------------------------------------------------
    # Raw I/O (atomic writes, torn-read tolerant reads)
    # ------------------------------------------------------------------
    def _write_json(self, path: Path, payload: dict) -> None:
        self._write_bytes(
            path,
            json.dumps(payload, separators=(",", ":")).encode(
                "utf-8", "surrogatepass"
            ),
        )

    def _write_bytes(self, path: Path, *chunks: bytes) -> None:
        """Publish ``chunks``, concatenated, at ``path`` via the
        atomic-rename path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.writelines(chunks)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def _read_json(self, path: Path, key: str) -> Optional[dict]:
        """A validated payload, or None for missing/corrupt/stale entries."""
        status, payload = self._classify_payload(path, key)
        if status == "ok":
            return payload
        if status in ("corrupt", "stale"):
            self.stats.corrupt_entries += 1
        return None

    def _classify_payload(
        self, path: Path, key: str
    ) -> tuple[str, Optional[dict]]:
        """``(status, payload)`` distinguishing stale entries from rot.

        ``"ok"`` / ``"missing"`` / ``"corrupt"`` / ``"stale"`` — unlike
        :meth:`_read_json` (where every non-hit is simply a miss), the
        verifier must not report an *older-format* entry as corruption:
        the live load path rebuilds those harmlessly.
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return "missing", None
        except (OSError, UnicodeDecodeError):
            return "corrupt", None
        try:
            payload = json.loads(raw)
        except ValueError:
            return "corrupt", None
        if not isinstance(payload, dict):
            return "corrupt", None
        if payload.get("version") != FORMAT_VERSION:
            return "stale", None
        if payload.get("key") != key:
            return "corrupt", None
        return "ok", payload

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def _write_shard(self, group: ShardGroup) -> dict:
        """Publish one group's shard; returns its payload."""
        payload = shard_payload(group, group.sha)
        self._write_bytes(
            self._shard_path(group.sha), *shard_chunks(payload, group.sha)
        )
        return payload

    def _publish_entry(self, disassembly: Disassembly) -> None:
        """Write any missing shards plus the app's manifest.

        A current shard for a group's content key (:meth:`_shard_current`)
        is *shared*, not rewritten: that is the cross-app dedup (the
        second app embedding a library publishes only its manifest
        reference).  A stale or torn-header shard is rewritten.
        """
        key = store_key(disassembly)
        groups = partition_disassembly(disassembly)
        for group in groups:
            if self._shard_current(group.sha):
                self.stats.shards_shared += 1
                try:
                    # Refresh the shared shard's mtime so gc's age gate
                    # protects it while this entry's manifest is still
                    # in flight — a shard published long ago by another
                    # app is "fresh" again the moment a new writer
                    # relies on it.
                    os.utime(self._shard_path(group.sha))
                except OSError:
                    pass  # racing gc: the load path patches it back
                continue
            self._write_shard(group)
        self._write_json(self._manifest_path(key), self._manifest(key, groups))

    def _manifest(self, key: str, groups: list[ShardGroup]) -> dict:
        return {
            "version": FORMAT_VERSION,
            "key": key,
            "key_version": KEY_VERSION,
            "line_count": max((g.end_line for g in groups), default=0),
            "token_count": sum(len(g.tokens) for g in groups),
            "layout_digest": _layout_digest(g.layout for g in groups),
            "groups": [
                {
                    "shard": group.sha,
                    "label": group.label,
                    "start_line": group.start_line,
                    "line_count": group.line_count,
                    "tokens": len(group.tokens),
                }
                for group in groups
            ],
        }

    def _read_manifest(
        self, key: str, advisory: bool = False
    ) -> Optional[dict]:
        """The validated manifest for ``key``, or None on any miss.

        Validates the group list shape (shard sha + start line per
        group) so downstream composition never indexes into garbage.
        ``advisory`` reads (probe/describe/gc classification) skip the
        ``corrupt_entries`` bump: that counter records *load-path*
        fall-back-to-miss events, and a scheduler probing one damaged
        manifest on every submission must not inflate it.
        """
        if advisory:
            status, payload = self._classify_payload(
                self._manifest_path(key), key
            )
            if status != "ok":
                return None
        else:
            payload = self._read_json(self._manifest_path(key), key)
            if payload is None:
                return None
        groups = payload.get("groups")
        valid = isinstance(groups, list) and all(
            isinstance(group, dict)
            and isinstance(group.get("shard"), str)
            and group["shard"]
            and isinstance(group.get("start_line"), int)
            for group in groups
        )
        if not valid:
            if not advisory:
                self.stats.corrupt_entries += 1
            return None
        return payload

    def _classify_shard(self, sha: str) -> tuple[str, Optional[dict]]:
        """``(status, payload)`` for the shard holding ``sha``.

        ``"ok"`` / ``"missing"`` / ``"corrupt"`` / ``"stale"``: a
        foreign container version reports ``"stale"`` (a live run
        rebuilds it), bit rot reports ``"corrupt"``.
        """
        try:
            data = self._shard_path(sha).read_bytes()
        except FileNotFoundError:
            return "missing", None
        except OSError:
            return "corrupt", None
        try:
            return "ok", decode_shard(data, sha)
        except ShardStale:
            return "stale", None
        except ShardCorrupt:
            return "corrupt", None

    # ------------------------------------------------------------------
    # Inverted-index artifacts
    # ------------------------------------------------------------------
    def save_index(self, disassembly: Disassembly) -> None:
        """Persist the app's posting lists (sharded) plus its manifest.

        Shards store per-group mini-indexes over group-relative lines,
        which is what makes them position-independent and therefore
        shareable across apps.  Those mini-indexes are the group folds
        the app's index queries
        (:meth:`~repro.store.sharding.ShardGroup.fold`, memoized on the
        disassembly's shard groups), so a save after
        :meth:`TokenIndex.for_disassembly
        <repro.search.backends.indexed.TokenIndex.for_disassembly>`
        publishes them without folding any group again.  Groups whose
        shards are already current — shared libraries — are not
        rewritten.
        """
        self._publish_entry(disassembly)

    def load_index(
        self, disassembly: Disassembly
    ) -> Optional[LazyTokenIndex]:
        """The app's index over its shards; publishes missing groups.

        Three outcomes:

        * every shard current — a full hit; the index reports
          ``build_seconds == 0.0`` / ``restored``;
        * some shards current — a *partial* hit: each group whose shard
          is missing, empty, stale or torn at its header is re-folded
          from the live disassembly and published (incremental
          re-indexing), and the manifest is republished; the index
          reports ``patched_groups > 0`` and the patch time as
          ``build_seconds``;
        * no shard current — a plain miss (returns None); the caller
          builds fresh and saves, which publishes every shard.

        Either hit is served as a
        :class:`~repro.store.lazy.LazyTokenIndex`, the index a cold
        build queries too: only each shard's header is read here
        (:meth:`_shard_current`), the file is mmapped on first use, and
        a group decodes on the first query that may match it.  A shard
        that is damaged past its header heals on first touch.
        """
        started = time.perf_counter()
        key = store_key(disassembly)
        manifest = self._read_manifest(key)
        if manifest is not None:
            groups = [
                (group["start_line"], group["shard"])
                for group in manifest["groups"]
            ]
            if all(self._shard_current(sha) for _, sha in groups):
                self.stats.index_hits += 1
                self.stats.shard_hits += len(groups)
                return self._restored_index(groups, disassembly)
        # Slow path: no manifest, or a shard is not current.  The
        # disassembly is authoritative — partition it and publish every
        # group whose shard is not current.
        groups = partition_disassembly(disassembly)
        current = [self._shard_current(group.sha) for group in groups]
        if not any(current):
            self.stats.index_misses += 1
            return None
        patched = 0
        for group, on_disk in zip(groups, current):
            if on_disk:
                self.stats.shard_hits += 1
                continue
            self._write_shard(group)
            self.stats.shard_misses += 1
            self.stats.shards_patched += 1
            patched += 1
        # Self-heal: the slow path only runs when the fast path failed
        # — no manifest, a corrupt/stale one, or a missing shard — so
        # republish the manifest unconditionally and the next probe
        # (and the next app sharing these groups) sees a complete
        # entry.
        self._write_json(
            self._manifest_path(key), self._manifest(key, groups)
        )
        index = self._restored_index(
            [(group.start_line, group.sha) for group in groups], disassembly
        )
        index.patched_groups = patched
        if patched:
            index.build_seconds = time.perf_counter() - started
            self.stats.partial_hits += 1
        else:
            self.stats.index_hits += 1
        return index

    def _restored_index(
        self, groups: list[tuple[int, str]], disassembly: Disassembly
    ) -> LazyTokenIndex:
        """The app index over ``(start_line, shard sha)`` per group, one
        unopened :class:`LazyShardView` each."""
        return LazyTokenIndex(
            [
                (start, LazyShardView(self._shard_path(sha), sha))
                for start, sha in groups
            ],
            heal=self._heal_group_fn(disassembly),
            stats=self.stats,
        )

    def _heal_group_fn(self, disassembly: Disassembly):
        """The lazy index's repair callback.

        Re-folds group *i* from the live disassembly (manifest group
        order is :func:`~repro.store.sharding.partition_disassembly`
        order — both derive deterministically from the same bytecode)
        and republishes its shard; the caller drops its stale mapping
        and proceeds with the repaired payload.
        """
        def heal(index: int, stale: bool) -> dict:
            payload = self._write_shard(
                partition_disassembly(disassembly)[index]
            )
            # A heal repairs a shard that existed but could not be
            # trusted: a corrupt-entry event, unless the shard was only
            # of another container version.
            if not stale:
                self.stats.corrupt_entries += 1
            self.stats.shards_patched += 1
            return payload

        return heal

    # ------------------------------------------------------------------
    # Disassembly restores (index hits skip the render)
    # ------------------------------------------------------------------
    def load_disassembly(
        self, key: str, classes, render: Callable[[], Disassembly]
    ) -> Optional[Disassembly]:
        """The app's disassembly rebuilt from ``key``'s shards, or None.

        ``key`` comes from the specmap, so the restore trusts nothing it
        reads until two checks pass: the composed text must hash to
        ``key``, and the class names of the decoded columns must equal
        the app's own classes (``classes``, the generated app's class
        pool) — a specmap entry pointing at another app's intact entry
        passes the first check and fails the second.  The layout must
        also match the digest the manifest recorded, and every group
        must span the lines the manifest says, so restored lines agree
        with the restored index.

        Every refusal returns None and the caller renders.  A damaged
        text or layout section (CRC, hash or digest failure), or one of
        another container version, is healed instead: ``render``
        renders the app afresh, every group whose stored sections
        differ is republished, and that render is returned, so the app
        is rendered once.  Only damage counts as a corrupt entry.  The
        restored disassembly also calls ``render`` for its tokens,
        which only the heal paths need.  An entry with a missing group
        is left to the index path, which patches it.
        """
        manifest = self._read_manifest(key)
        if manifest is None:
            return None
        groups = manifest["groups"]
        if not groups or groups[0]["start_line"] != len(PREAMBLE):
            return None
        #: shard sha -> (text, layout), None when a section is unusable.
        stored: dict[str, Optional[tuple[bytes, bytes]]] = {}
        damaged = False
        for group in groups:
            path = self._shard_path(group["shard"])
            if not path.is_file():
                return None
            view = LazyShardView(path, group["shard"])
            try:
                stored[group["shard"]] = (
                    view.section(SEC_TEXT), view.section(SEC_LAYOUT)
                )
            except ShardCorrupt as exc:
                stored[group["shard"]] = None
                damaged = damaged or not isinstance(exc, ShardStale)
            finally:
                view.close()
        intact = all(sections is not None for sections in stored.values())
        if intact:
            digest = _key_digest(encode_lines(PREAMBLE))
            for group in groups:
                digest.update(stored[group["shard"]][0])
            intact = digest.hexdigest() == key and _layout_digest(
                stored[group["shard"]][1] for group in groups
            ) == manifest.get("layout_digest")
            damaged = not intact
        if not intact:
            if damaged:
                self.stats.corrupt_entries += 1
            fresh = render()
            self._heal_sections(key, fresh, stored)
            return fresh

        lines = list(PREAMBLE)
        columns = []
        try:
            for group in groups:
                text, layout = stored[group["shard"]]
                base = len(lines)
                chunk = text.decode("utf-8", "surrogatepass").split("\n")
                # A line that embeds a newline splits into more lines
                # than the manifest counts: render instead of shifting.
                if (
                    group["start_line"] != base
                    or chunk.pop() != ""
                    or len(chunk) != group.get("line_count")
                ):
                    return None
                lines += chunk
                columns.append(decode_layout(layout, base, len(lines)))
        except ValueError:
            return None
        if [name for group in columns for name in group.class_names] != \
                sorted(cls.name for cls in classes.application_classes()):
            return None
        restored = RestoredDisassembly(lines, columns, render)
        restored._store_key_cache = key
        return restored

    def _heal_sections(
        self,
        key: str,
        fresh: Disassembly,
        stored: dict[str, Optional[tuple[bytes, bytes]]],
    ) -> None:
        """Republish ``key``'s groups whose stored text or layout differs
        from a fresh render, then its manifest.  A render hashing to
        another key means the entry is not this app's: left alone."""
        if store_key(fresh) != key:
            return
        groups = partition_disassembly(fresh)
        for group in groups:
            if stored.get(group.sha) != (group.text, group.layout):
                self._write_shard(group)
                self.stats.shards_patched += 1
        self._write_json(self._manifest_path(key), self._manifest(key, groups))

    # ------------------------------------------------------------------
    # Finished per-app outcomes (batch warm starts)
    # ------------------------------------------------------------------
    def save_outcome(
        self, key: str, config_fingerprint: str, outcome: dict
    ) -> None:
        """Persist one finished batch outcome (a plain JSON-able dict)
        under the app's content key (:func:`store_key`)."""
        self._write_json(
            self._outcome_path(key, config_fingerprint),
            {
                "version": FORMAT_VERSION,
                "key": key,
                "config": config_fingerprint,
                "outcome": outcome,
            },
        )

    def load_outcome(
        self, key: str, config_fingerprint: str
    ) -> Optional[dict]:
        """The stored outcome for this content key + config, or None.

        A caller that resolved ``key`` through the specmap can serve
        the outcome without ever rendering the app.
        """
        payload = self._read_json(
            self._outcome_path(key, config_fingerprint), key
        )
        if payload is None or payload.get("config") != config_fingerprint:
            self.stats.outcome_misses += 1
            return None
        outcome = payload.get("outcome")
        if not isinstance(outcome, dict):
            self.stats.corrupt_entries += 1
            self.stats.outcome_misses += 1
            return None
        self.stats.outcome_hits += 1
        return outcome

    # ------------------------------------------------------------------
    # Probing (store-aware scheduling)
    # ------------------------------------------------------------------
    def probe(
        self, key: str, config_fingerprint: Optional[str] = None
    ) -> StoreProbe:
        """Classify the warmest artifact level present for *key*.

        Reads at most one small manifest — never a shard payload — so a
        scheduler can probe every submission cheaply before dispatch.
        A probe is advisory: the artifact may still fail validation on
        the real load, in which case the analysis falls back to a cold
        (or patched) build.
        """
        if (
            config_fingerprint is not None
            and self._outcome_path(key, config_fingerprint).is_file()
        ):
            return StoreProbe(key, "outcome")
        manifest = self._read_manifest(key, advisory=True)
        if manifest is None:
            return StoreProbe(key, "none")
        total = len(manifest["groups"])
        found = sum(
            1
            for group in manifest["groups"]
            if self._shard_present(group["shard"])
        )
        if total and found == total:
            return StoreProbe(key, "index", total, found)
        if found:
            return StoreProbe(key, "partial", total, found)
        return StoreProbe(key, "none", total, found)

    def save_spec_key(self, spec_fingerprint: str, key: str) -> None:
        """Record which content key a deterministic app spec produced.

        The map lets schedulers resolve a submission to its disassembly
        sha, and full-mode runs serve a stored outcome, *without
        generating the app*: a spec seen by any earlier store-attached
        run resolves immediately; an unseen spec simply misses and is
        treated as cold.  An entry pointing at a different
        key (a generator change survived by the store) is overwritten,
        so the map self-heals on the next analysis.

        Any process may write: the mapping is deterministic (the spec
        fingerprint folds in the generator version), so concurrent
        writers publish the same bytes, each by atomic rename.
        """
        if self.load_spec_key(spec_fingerprint) == key:
            return  # already current
        self._write_json(
            self._spec_path(spec_fingerprint),
            {
                "version": FORMAT_VERSION,
                "key": spec_fingerprint,
                "target": key,
            },
        )

    def load_spec_key(self, spec_fingerprint: str) -> Optional[str]:
        """The content key recorded for a spec, or None when unseen."""
        payload = self._read_json(self._spec_path(spec_fingerprint),
                                  spec_fingerprint)
        if payload is None:
            return None
        target = payload.get("target")
        if not isinstance(target, str) or not target:
            self.stats.corrupt_entries += 1
            return None
        return target

    # ------------------------------------------------------------------
    # Verification (the ``backdroid store verify`` action)
    # ------------------------------------------------------------------
    def verify(self) -> list[VerifyEntry]:
        """Replay shard-level parity against every stored entry.

        For each manifest, every referenced shard is checked three
        ways:

        1. **content address** — the shard's sha256 is recomputed from
           its stored tokens, text and layout and must match its file
           name (rules out a shard silently swapped for another group's
           content);
        2. **mini-index parity** — the stored vocabulary and posting
           lists must equal a fresh fold of the shard's own token
           stream;
        3. **presence/readability** — a referenced shard that is gone
           or unreadable is reported (``missing-shard`` / ``corrupt``).

        The groups' layouts must also hash to the manifest's layout
        digest, and a manifest written under another ``KEY_VERSION``
        reports ``stale``.  Any divergence means on-disk corruption
        that the per-payload validation cannot catch (valid JSON, wrong
        lists).
        """
        results: list[VerifyEntry] = []
        for entry in self.entries():
            key = entry.name
            if not self._manifest_path(key).is_file():
                results.append(VerifyEntry(key, "no-index"))
                continue
            status, manifest = self._classify_payload(
                self._manifest_path(key), key
            )
            if status == "missing":
                # Present at the is_file() check, gone now: a concurrent
                # gc is collecting the entry — a skip, not corruption.
                results.append(VerifyEntry(key, "no-index"))
                continue
            if status == "stale":
                results.append(
                    VerifyEntry(key, "stale",
                                "older format version; a live run "
                                "rebuilds this entry")
                )
                continue
            if status != "ok" or not isinstance(manifest.get("groups"), list):
                results.append(
                    VerifyEntry(key, "corrupt", "manifest unreadable")
                )
                continue
            if manifest.get("key_version") != KEY_VERSION:
                results.append(
                    VerifyEntry(key, "stale",
                                "written under another KEY_VERSION; a "
                                "live run rebuilds this entry")
                )
                continue
            results.append(self._verify_entry(key, manifest))
        return results

    def _verify_entry(self, key: str, manifest: dict) -> VerifyEntry:
        """One app entry's shard-by-shard verdict.

        Beyond per-shard checks, manifest group offsets must *tile*:
        each group's ``start_line`` must equal the previous group's end
        (start + content-addressed ``line_count``), since composition
        rebases postings onto those offsets.  A corrupted offset would
        otherwise compose an index whose hits point at the wrong lines
        while every shard still verifies clean.  (A uniform shift of
        *all* offsets is the one corruption shard content cannot
        witness.)
        """
        prev_end: Optional[int] = None
        layouts: list[bytes] = []
        for group in manifest["groups"]:
            sha = group.get("shard")
            if not isinstance(sha, str) or not sha:
                return VerifyEntry(key, "corrupt", "manifest group malformed")
            status, payload = self._classify_shard(sha)
            if status == "missing":
                return VerifyEntry(
                    key, "missing-shard",
                    f"shard {sha[:12]} referenced by the manifest is gone "
                    "(a live run patches it)",
                )
            if status == "stale":
                return VerifyEntry(
                    key, "stale",
                    f"shard {sha[:12]} has an older format version; a "
                    "live run patches this entry",
                )
            if status != "ok":
                return VerifyEntry(
                    key, "corrupt", f"shard {sha[:12]} payload unreadable"
                )
            try:
                tokens = tokens_from_shard(payload)
                line_count = int(payload["line_count"])
                vocab = [str(t) for t in payload["vocab"]]
                postings = [
                    [int(n) for n in posting] for posting in payload["postings"]
                ]
                text = bytes(payload["text"])
                layout = bytes(payload["layout"])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                return VerifyEntry(
                    key, "corrupt", f"shard {sha[:12]} payload: {exc}"
                )
            start_line = group["start_line"]
            if start_line < 0 or (
                prev_end is not None and start_line != prev_end
            ):
                return VerifyEntry(
                    key, "mismatch",
                    f"manifest offsets do not tile: group at shard "
                    f"{sha[:12]} starts at line {start_line}, expected "
                    f"{max(prev_end or 0, 0)}",
                )
            prev_end = start_line + line_count
            layouts.append(layout)
            if ShardGroup("", 0, line_count, tokens, text, layout).sha != sha:
                return VerifyEntry(
                    key, "mismatch",
                    f"shard {sha[:12]} content no longer matches its "
                    "content address",
                )
            fresh = fold_tokens(tokens)
            mismatched = [
                name
                for name, stored_side, fresh_side in (
                    ("vocab", vocab, fresh[0]),
                    ("postings", postings, fresh[1]),
                )
                if stored_side != fresh_side
            ]
            if mismatched:
                return VerifyEntry(
                    key, "mismatch",
                    f"shard {sha[:12]} diverges from a fresh fold on: "
                    + ", ".join(mismatched),
                )
        if _layout_digest(layouts) != manifest.get("layout_digest"):
            return VerifyEntry(
                key, "mismatch",
                "shard layouts no longer match the manifest's layout digest",
            )
        return VerifyEntry(
            key, "ok", f"{len(manifest['groups'])} shard(s) verified"
        )

    # ------------------------------------------------------------------
    # Maintenance (the ``backdroid store`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Every entry directory currently published in the store."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir():
                    yield entry

    def _shard_files(self, retired: bool = False) -> Iterator[Path]:
        """Every published shard file; with ``retired``, also the files
        an older container left under ``shards/`` (a v2 store's
        ``.json`` shards), which no reader opens and only gc sweeps."""
        shards = self.root / "shards"
        if not shards.is_dir():
            return
        for prefix in sorted(shards.iterdir()):
            if not prefix.is_dir():
                continue
            for shard in sorted(prefix.iterdir()):
                if not shard.is_file() or shard.suffix == ".tmp":
                    continue
                if retired or shard.suffix == ".bin":
                    yield shard

    def _spec_files(self) -> Iterator[Path]:
        """Every published specmap file."""
        specmap = self.root / "specmap"
        if not specmap.is_dir():
            return
        for shard in sorted(specmap.iterdir()):
            if not shard.is_dir():
                continue
            for mapping in sorted(shard.iterdir()):
                if mapping.is_file() and mapping.suffix == ".json":
                    yield mapping

    def _referenced_shards(self) -> dict[str, int]:
        """Shard sha -> reference count across all valid manifests."""
        refs: dict[str, int] = {}
        for entry in self.entries():
            manifest = self._read_manifest(entry.name, advisory=True)
            if manifest is None:
                continue
            for group in manifest["groups"]:
                refs[group["shard"]] = refs.get(group["shard"], 0) + 1
        return refs

    def describe(self) -> StoreInventory:
        """Walk the store and return its :class:`StoreInventory`."""
        inventory = StoreInventory(root=str(self.root))
        shard_sizes: dict[str, int] = {}
        for shard in self._shard_files():
            try:
                size = shard.stat().st_size
            except OSError:
                continue  # swept by a concurrent gc mid-walk
            shard_sizes[shard.stem] = size
            inventory.shards += 1
            inventory.shard_bytes += size
            inventory.total_bytes += size
            inventory.files_by_kind["shard"] = (
                inventory.files_by_kind.get("shard", 0) + 1
            )
        for entry in self.entries():
            inventory.entries += 1
            try:
                for artifact in entry.iterdir():
                    if not artifact.is_file() or artifact.suffix == ".tmp":
                        continue
                    kind = artifact.name.split("-", 1)[0].split(".", 1)[0]
                    inventory.files_by_kind[kind] = (
                        inventory.files_by_kind.get(kind, 0) + 1
                    )
                    inventory.total_bytes += artifact.stat().st_size
            except OSError:
                # A concurrent gc swept the entry mid-walk; report what
                # was still there.
                continue
            manifest = self._read_manifest(entry.name, advisory=True)
            if manifest is None:
                continue
            for group in manifest["groups"]:
                inventory.shard_refs += 1
                inventory.logical_shard_bytes += shard_sizes.get(
                    group["shard"], 0
                )
        for mapping in self._spec_files():
            try:
                size = mapping.stat().st_size
            except OSError:
                continue  # swept by a concurrent gc mid-walk
            inventory.files_by_kind["specmap"] = (
                inventory.files_by_kind.get("specmap", 0) + 1
            )
            inventory.total_bytes += size
        return inventory

    def gc(self, max_age_seconds: float = 0.0) -> GcResult:
        """Sweep aged app entries, then any shards they alone held.

        App entries (manifest + outcomes) whose newest artifact is
        older than the cutoff are removed, exactly as before sharding.
        Shards are **refcounted by the surviving manifests**: after the
        entry sweep, a shard still referenced by any live manifest is
        kept regardless of age; an unreferenced shard older than the
        cutoff is reclaimed.  The age gate on shards keeps a concurrent
        writer's freshly published shards safe while its manifest is
        still in flight.  Files a retired container left under
        ``shards/`` are never referenced, so they age out the same way.

        ``max_age_seconds == 0`` clears the whole store — entries,
        shards and specmap.  Specmap files are swept by the same age
        rule (a dangling mapping is harmless — it only costs a cold
        probe — but a long-lived store must not leak one file per spec
        forever).
        """
        cutoff = time.time() - max_age_seconds
        result = GcResult()
        for entry in list(self.entries()):
            try:
                artifacts = [p for p in entry.iterdir() if p.is_file()]
                newest = max(
                    (p.stat().st_mtime for p in artifacts), default=0.0
                )
                if newest > cutoff:
                    continue
                result.bytes_reclaimed += sum(
                    p.stat().st_size for p in artifacts
                )
                shutil.rmtree(entry)
                result.entries_removed += 1
            except OSError:
                # A concurrent writer re-published the entry mid-sweep;
                # leave it for the next collection.
                continue
        referenced = self._referenced_shards()
        for shard in list(self._shard_files(retired=True)):
            if shard.suffix == ".bin" and shard.stem in referenced:
                continue
            try:
                stat = shard.stat()
                if stat.st_mtime > cutoff:
                    continue
                size = stat.st_size
                shard.unlink()
                result.shards_removed += 1
                result.bytes_reclaimed += size
            except OSError:
                continue
        for mapping in list(self._spec_files()):
            try:
                stat = mapping.stat()
                if stat.st_mtime > cutoff:
                    continue
                size = stat.st_size
                mapping.unlink()
                result.bytes_reclaimed += size
            except OSError:
                continue
        # Files under cluster/ (the node manifests the service's
        # NodeDirectory publishes) age out by the same rule: a
        # heartbeating node refreshes its manifest far more often than
        # any sane cutoff, so only debris from departed nodes is swept.
        cluster_dir = self.root / "cluster"
        if cluster_dir.is_dir():
            for path in cluster_dir.rglob("*"):
                if not path.is_file():
                    continue
                try:
                    stat = path.stat()
                    if stat.st_mtime > cutoff:
                        continue
                    size = stat.st_size
                    path.unlink()
                    result.bytes_reclaimed += size
                except OSError:
                    continue
        return result
