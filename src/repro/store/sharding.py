"""Content-addressed shard grouping for the artifact store.

Real-world apps embed largely identical library/framework code (the
paper's Table I corpus is dominated by shared SDKs), so per-app
monolithic artifacts duplicate the same token streams and posting lists
across the whole store.  This module splits one app's disassembly into
**shard groups** — maximal runs of consecutively rendered classes that
share a library prefix — and gives each group a *position-independent*
content key, so two apps embedding the same library hash its group to
the same shard no matter where the library lands in either app's
rendered text.

Position independence is what makes cross-app dedup possible.  The
disassembler restarts every position-dependent counter (``Class #N``
ordinals, interned ``// method@NNNN`` ids, code addresses) at each group
boundary, so a group renders byte-identical in every app that embeds
it.  A shard therefore stores the group's plaintext and its *layout*
(class names, method-block bounds with dex signatures, and each
instruction line's statement index), plus the group's tokens with line
numbers relative to the group start and a prefolded mini-index
(vocabulary and posting lists) over those relative lines.  The text and layout let an index hit rebuild the app's
:class:`~repro.dex.disassembler.Disassembly` without rendering it.

The group is also the unit of the app's index
(:class:`~repro.store.lazy.LazyTokenIndex`): each group answers a query
from its own mini-index over its relative lines, rebased onto the
group's recorded start line, and the answers concatenate in line order
to a direct fold's answer (the parity suite checks this).  A cold build
folds each group once (:meth:`ShardGroup.fold`) and queries the folds;
a save publishes the same folds as the groups' shards, and a restore
queries the shards.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
from dataclasses import dataclass

from repro.dex.disassembler import Disassembly, GroupColumns, group_label
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


def encode_layout(class_names, columns: GroupColumns) -> bytes:
    """The layout section of one group (see ``docs/STORE_FORMAT.md``).

    Names and signatures are newline-joined: a decoder that splits them
    back into a different count than the header records refuses the
    section, so a name that embeds a newline can never shift the rest.
    """
    names = "\n".join(class_names).encode("utf-8", "surrogatepass")
    signatures = "\n".join(columns.signatures).encode(
        "utf-8", "surrogatepass"
    )
    blocks = len(columns.signatures)
    stmts = columns.stmt_indices
    return b"".join((
        _LAYOUT_HEAD.pack(
            len(class_names), blocks, len(stmts), len(names),
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


def _block_columns(disassembly: Disassembly, start: int, end: int):
    """The layout columns of the blocks in ``[start, end)``, for line
    ranges the renderer did not capture (hand-built disassemblies)."""
    blocks = disassembly.blocks
    starts = [b.start_line for b in blocks]
    blocks = blocks[
        bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)
    ]
    return GroupColumns(
        start, end,
        [b.start_line - start for b in blocks],
        [b.end_line - start for b in blocks],
        [len(b.insns) for b in blocks],
        [b.signature.to_dex() for b in blocks],
        [insn.stmt_index for b in blocks for insn in b.insns],
    )


def _split_joined(blob: bytes, count: int) -> list[str]:
    text = blob.decode("utf-8", "surrogatepass")
    items = text.split("\n") if count else []
    if len(items) != count or (not count and text):
        raise ValueError("layout names disagree with their count")
    return items


def decode_layout(
    buf, start_line: int, end_line: int
) -> tuple[list[str], GroupColumns]:
    """Decode one layout section into the group's class names and its
    columns, placed at ``[start_line, end_line)``; raises ``ValueError``
    on any shape mismatch (the restore then renders instead)."""
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
    return names, GroupColumns(
        start_line,
        end_line,
        columns[:block_count],
        columns[block_count:2 * block_count],
        insn_counts,
        signatures,
        stmts,
    )


@dataclass(frozen=True)
class ShardGroup:
    """One contiguous class group, with group-relative tokens.

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
    #: The group's layout section (:func:`encode_layout`).
    layout: bytes = b""

    @property
    def end_line(self) -> int:
        """The exclusive end of the group's line range."""
        return self.start_line + self.line_count

    def canonical_bytes(self) -> bytes:
        """The group's canonical token serialization, computed once.

        One JSON dump of the whole token list: C-speed, and any
        structural ambiguity (kind/text containing separators) is
        handled by JSON string escaping.  Cached on the group object so
        a save that hashes the group and anything downstream that needs
        the same bytes (verification replay) serializes the token list
        exactly once per group.
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


@dataclass(frozen=True)
class GroupText:
    """One library group's line range, class names and encoded text."""

    label: str
    start_line: int
    end_line: int
    class_names: tuple[str, ...]
    text: bytes


def group_texts(disassembly: Disassembly) -> list[GroupText]:
    """The disassembly's library groups with their text (memoized).

    Consecutive :class:`~repro.dex.disassembler.ClassSpan` entries with
    the same :func:`group_label` merge into one group — exactly the runs
    the disassembler numbers afresh.  A disassembly without class spans
    (hand-built test doubles) degrades to a single app-wide group.
    This is all an app key needs, so keying a rendered app encodes its
    text once and touches neither tokens nor blocks.
    """
    cached = getattr(disassembly, "_group_text_cache", None)
    if cached is not None:
        return cached
    spans = getattr(disassembly, "class_spans", None) or []
    ranges: list[list] = []  # [label, start, end, class names]
    for span in spans:
        label = group_label(span.class_name)
        if ranges and ranges[-1][0] == label and ranges[-1][2] == span.start_line:
            ranges[-1][2] = span.end_line
            ranges[-1][3].append(span.class_name)
        else:
            ranges.append(
                [label, span.start_line, span.end_line, [span.class_name]]
            )
    if not ranges:
        ranges = [["app", 0, len(disassembly.lines), []]]
    cached = [
        GroupText(
            label, start, end, tuple(names),
            encode_lines(disassembly.lines[start:end]),
        )
        for label, start, end, names in ranges
    ]
    disassembly._group_text_cache = cached
    return cached


def partition_disassembly(disassembly: Disassembly) -> list[ShardGroup]:
    """Split a disassembly into library-prefix shard groups (memoized).

    The groups are :func:`group_texts`' ranges, each carrying its
    relative tokens, text and layout.  A rendered group's tokens and
    columns are the renderer's own, taken as they are.  A disassembly
    without class spans degrades to one app-wide group, built from its
    app-wide tokens and blocks, so every store code path works on any
    :class:`Disassembly` — it just stops deduplicating.
    """
    cached = getattr(disassembly, "_partition_cache", None)
    if cached is not None:
        return cached
    rendered = {
        (columns.start_line, columns.end_line): (columns, tokens)
        for columns, tokens in zip(
            disassembly.group_columns, disassembly.group_tokens
        )
    }
    cached = []
    for group in group_texts(disassembly):
        start, end = group.start_line, group.end_line
        columns, tokens = rendered.get((start, end), (None, None))
        if columns is None:
            columns = _block_columns(disassembly, start, end)
            tokens = tuple(
                (token.line_no - start, token.kind, token.text)
                for token in disassembly.tokens
                if start <= token.line_no < end
            )
        cached.append(ShardGroup(
            group.label, start, end - start, tokens, group.text,
            encode_layout(group.class_names, columns),
        ))
    disassembly._partition_cache = cached
    return cached


def shard_key(group: ShardGroup, key_version: int = KEY_VERSION) -> str:
    """The content address of one shard group.

    Hashes the group's relative token triples, its text and layout, its
    rendered line count (later groups' offsets depend on it) and the
    :data:`KEY_VERSION` — but *not* its label or absolute position, so
    identical library code dedups across apps regardless of where each
    app renders it, and *not* the container format.
    """
    digest = hashlib.sha256()
    digest.update(
        f"backdroid-shard-v{key_version}\n{group.line_count}\n".encode()
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
