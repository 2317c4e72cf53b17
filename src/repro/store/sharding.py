"""Content-addressed shard grouping for the artifact store.

Real-world apps embed largely identical library/framework code (the
paper's Table I corpus is dominated by shared SDKs), so per-app
monolithic artifacts duplicate the same token streams and posting lists
across the whole store.  This module turns each of a disassembly's
**library groups** — maximal runs of consecutively rendered classes
that share a library prefix — into one :class:`ShardGroup` with a
*position-independent* content key, so two apps embedding the same
library hash its group to the same shard no matter where the library
lands in either app's rendered text.

Position independence is what makes cross-app dedup possible.  The
disassembler restarts every position-dependent counter (``Class #N``
ordinals, interned ``// method@NNNN`` ids, code addresses) at each group
boundary, so a group renders byte-identical in every app that embeds
it.  A shard therefore stores the group's plaintext and its *layout*
(class names, method-block bounds with dex signatures, and each
instruction line's statement index), plus the group's tokens with line
numbers relative to the group start and a prefolded mini-index
(vocabulary and posting lists) over those relative lines.  The text and
layout let an index hit rebuild the app's
:class:`~repro.dex.disassembler.Disassembly` without rendering it.

The group is also the unit of the app's key and index: the app key
hashes the groups' text (:func:`~repro.store.artifacts.store_key`), and
:class:`~repro.store.lazy.LazyTokenIndex` asks each group from its own
mini-index over its relative lines, rebased onto the group's start
line.  A cold build folds each group once (:meth:`ShardGroup.fold`)
and queries the folds; a save publishes the same folds as the groups'
shards, and a restore queries the shards.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Union

from repro.dex.disassembler import (
    PREAMBLE,
    Disassembly,
    GroupColumns,
    group_label,
)
from repro.search.backends.indexed import fold_tokens

#: The *content-address* version: feeds every app key and shard key.
#: Deliberately decoupled from the store's container FORMAT_VERSION,
#: which describes how a shard is encoded, not what it holds.  Bump
#: this only when the hashed content itself changes (token shapes,
#: line-count semantics, per-group numbering, the text and layout
#: sections), which orphans every stored entry.
KEY_VERSION = 3


def encode_lines(lines) -> bytes:
    """The UTF-8 plaintext of *lines*, each newline-terminated.

    Concatenating the encodings of consecutive line runs gives the
    encoding of the whole run, which is how an app key and its shards'
    text sections hash the same bytes.
    """
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


#: Layout header: class count, block count, instruction-line count, and
#: the byte lengths of the class-name and signature blobs.
_LAYOUT_HEAD = struct.Struct("<5I")


def encode_layout(columns: GroupColumns) -> bytes:
    """The layout section of one group (see ``docs/STORE_FORMAT.md``).

    Class names and signatures are newline-joined: a decoder that splits
    them back into a different count than the header records refuses the
    section, so a name that embeds a newline can never shift the rest.
    """
    names = "\n".join(columns.class_names).encode("utf-8", "surrogatepass")
    signatures = "\n".join(columns.signatures).encode(
        "utf-8", "surrogatepass"
    )
    blocks = len(columns.signatures)
    stmts = columns.stmt_indices
    return b"".join((
        _LAYOUT_HEAD.pack(
            len(columns.class_names), blocks, len(stmts), len(names),
            len(signatures),
        ),
        names,
        signatures,
        struct.pack(
            f"<{3 * blocks}I", *columns.block_starts, *columns.block_ends,
            *columns.insn_counts,
        ),
        struct.pack(f"<{len(stmts)}I", *stmts),
    ))


def _split_joined(blob: bytes, count: int) -> list[str]:
    text = blob.decode("utf-8", "surrogatepass")
    items = text.split("\n") if count else []
    if len(items) != count or (not count and text):
        raise ValueError("layout names disagree with their count")
    return items


def decode_layout(buf, start_line: int, end_line: int) -> GroupColumns:
    """Decode one layout section into the group's columns, class names
    included, placed at ``[start_line, end_line)``; raises
    ``ValueError`` on any shape mismatch (the restore then renders
    instead)."""
    try:
        (class_count, block_count, insn_count, names_len,
         sigs_len) = _LAYOUT_HEAD.unpack_from(buf, 0)
        cursor = _LAYOUT_HEAD.size
        names = _split_joined(buf[cursor:cursor + names_len], class_count)
        cursor += names_len
        signatures = _split_joined(buf[cursor:cursor + sigs_len], block_count)
        cursor += sigs_len
        columns = struct.unpack_from(f"<{3 * block_count}I", buf, cursor)
        cursor += 12 * block_count
        stmts = struct.unpack_from(f"<{insn_count}I", buf, cursor)
        cursor += 4 * insn_count
    except struct.error as exc:
        raise ValueError(f"layout truncated: {exc}") from exc
    insn_counts = columns[2 * block_count:]
    if cursor != len(buf) or sum(insn_counts) != insn_count:
        raise ValueError("layout sizes disagree with its header")
    return GroupColumns(
        start_line,
        end_line,
        columns[:block_count],
        columns[block_count:2 * block_count],
        insn_counts,
        signatures,
        stmts,
        names,
    )


@dataclass(frozen=True)
class ShardGroup:
    """One library group, with group-relative tokens.

    ``tokens`` holds ``(rel_line, kind, text)`` triples where
    ``rel_line = absolute_line - start_line``; identical library code
    yields identical triples, text and layout in every app that embeds
    it.  The group is also the fold unit: :meth:`fold` folds its tokens
    once, and both the app's index and the group's shard use that fold.
    """

    label: str
    start_line: int
    line_count: int
    tokens: tuple[tuple[int, str, str], ...]
    #: The group's plaintext (:func:`encode_lines`), encoded once: the
    #: app key hashes it and the text section stores it.
    text: bytes = b""
    #: The group's layout section as stored, or the columns that
    #: :attr:`layout` encodes on first read.
    layout_source: Union[bytes, GroupColumns] = b""

    @property
    def layout(self) -> bytes:
        """The group's layout section (:func:`encode_layout`), encoded
        once: a save, a partial hit and a heal read it, while keying
        the app and a full index hit do not."""
        cached = self.__dict__.get("_layout")
        if cached is None:
            source = self.layout_source
            cached = source if isinstance(source, bytes) else encode_layout(source)
            object.__setattr__(self, "_layout", cached)
        return cached

    @property
    def end_line(self) -> int:
        """The exclusive end of the group's line range."""
        return self.start_line + self.line_count

    def canonical_bytes(self) -> bytes:
        """The group's canonical token serialization, computed once.

        One JSON dump of the whole token list: C-speed, and any
        structural ambiguity (kind/text containing separators) is
        handled by JSON string escaping.
        """
        cached = self.__dict__.get("_canonical_bytes")
        if cached is None:
            cached = json.dumps(
                self.tokens,  # tuples serialize as JSON arrays
                separators=(",", ":"),
                ensure_ascii=True,
            ).encode("utf-8", "surrogatepass")
            object.__setattr__(self, "_canonical_bytes", cached)
        return cached

    @property
    def sha(self) -> str:
        """The group's content address (:func:`shard_key`), computed
        once: a save, a partial hit and a heal all name the group's
        shard by it."""
        cached = self.__dict__.get("_sha")
        if cached is None:
            cached = shard_key(self)
            object.__setattr__(self, "_sha", cached)
        return cached

    def fold(self) -> dict:
        """The group's mini-index, folded once (memoized).

        ``vocab`` and ``postings`` over group-relative lines and
        group-local token ids, from
        :func:`~repro.search.backends.indexed.fold_tokens` — the fold
        ``store verify`` replays.  :meth:`TokenIndex.for_disassembly
        <repro.search.backends.indexed.TokenIndex.for_disassembly>`
        queries these folds group by group and a save publishes them,
        so a cold job folds each group exactly once.
        """
        cached = self.__dict__.get("_fold")
        if cached is None:
            vocab, postings = fold_tokens(self.tokens)
            cached = {"vocab": vocab, "postings": postings}
            object.__setattr__(self, "_fold", cached)
        return cached


def partition_disassembly(disassembly: Disassembly) -> list[ShardGroup]:
    """The disassembly's library groups as shard groups (memoized).

    One :class:`ShardGroup` per :class:`~repro.dex.disassembler.GroupColumns`,
    labelled by its first class (:func:`group_label`), with the tokens
    the renderer recorded for it, its text and its columns, encoded
    into its layout section only when read.
    Every store and index path reads a disassembly through this
    partition, so this is the one place that refuses a disassembly
    without library groups: lines past the preamble but no groups (a
    hand-built ``Disassembly(lines)``), or groups without their tokens,
    raise ``ValueError``.  A preamble-only disassembly has no groups.
    """
    cached = getattr(disassembly, "_partition_cache", None)
    if cached is not None:
        return cached
    lines = disassembly.lines
    columns = disassembly.group_columns
    tokens = disassembly.group_tokens
    if (
        len(tokens) != len(columns)
        or not all(tokens)
        or (not columns and len(lines) > len(PREAMBLE))
    ):
        raise ValueError(
            "disassembly carries no token stream; the store and the "
            "indexed backend require Disassembly objects produced by "
            "repro.dex.disassembler.disassemble (use the linear backend "
            "otherwise)"
        )
    cached = [
        ShardGroup(
            group_label(group.class_names[0]),
            group.start_line,
            group.end_line - group.start_line,
            group_tokens,
            encode_lines(lines[group.start_line:group.end_line]),
            group,
        )
        for group, group_tokens in zip(columns, tokens)
    ]
    disassembly._partition_cache = cached
    return cached


def shard_key(group: ShardGroup) -> str:
    """The content address of one shard group.

    Hashes the group's relative token triples, its text and layout, its
    rendered line count (later groups' offsets depend on it) and the
    :data:`KEY_VERSION` — but *not* its label or absolute position, so
    identical library code dedups across apps regardless of where each
    app renders it, and *not* the container format.
    """
    digest = hashlib.sha256()
    digest.update(
        f"backdroid-shard-v{KEY_VERSION}\n{group.line_count}\n".encode()
    )
    for part in (group.canonical_bytes(), group.text, group.layout):
        digest.update(f"{len(part)}\n".encode())
        digest.update(part)
    return digest.hexdigest()


def shard_payload(group: ShardGroup, key: str) -> dict:
    """The payload published for one shard.

    Carries every restore product: the group's text and layout (bytes;
    composed back into the app's disassembly) and its mini-index
    (:meth:`ShardGroup.fold`) — the vocabulary and posting lists a
    restored index queries without re-folding any token — plus the
    relative token stream the mini-index was folded from, which
    ``store verify`` refolds and hashes.
    """
    return {
        "key": key,
        "line_count": group.line_count,
        "tokens": group.tokens,
        **group.fold(),
        "text": group.text,
        "layout": group.layout,
    }


def tokens_from_shard(payload: dict) -> tuple[tuple[int, str, str], ...]:
    """The relative token triples a shard payload carries.

    Raises ``KeyError``/``TypeError``/``ValueError`` on shape mismatch
    so the store can classify the shard as corrupt.
    """
    return tuple(
        (int(rel), str(kind), str(text))
        for rel, kind, text in payload["tokens"]
    )
