"""The v4 binary shard container: struct-packed sections over mmap.

A whole-document shard encoding would cost a full parse on every
restore, even when the session only ever queries a handful of library
groups.  The v4 container packs a shard's logical content — the group's
plaintext and layout, relative token records, the vocabulary and its
posting lists — into independently decodable **sections** behind a
fixed header and an offset table, so a reader can :func:`mmap.mmap` the
file and decode *only the byte ranges a query actually touches*:

* the header + section table (176 bytes) identify the shard and locate
  every section;
* the **vocabulary blob** answers "could this group contain the
  needle?" with an ``mmap.find`` over the raw bytes — no decoding at
  all;
* only a *candidate* group pays for decoding its mini-index (the
  vocabulary and posting sections);
* the **text** and **layout** sections are read only to rebuild the
  app's disassembly on an index hit.

Every section table entry carries a CRC32 of its section's bytes,
verified on first use — the index sections when a query first decodes
them, the text and layout sections (which no query decodes) when a
reader first maps the file.  Corruption surfaces as
:class:`ShardCorrupt` so the store can re-fold the group from the live
disassembly (the self-heal path).

Layout (all integers little-endian, no alignment padding)::

    header   <4sHHIIII32s>     magic "BDSH", container version,
                               section count, line_count, token_count,
                               vocab_count, posting_entries,
                               raw sha256 (the shard's content address)
    table    <HHIQQ> * n       section id, reserved, crc32, offset, length
    sections                   see the per-section codecs below

Section encodings:

* ``VOCAB``       ``u32 lens[vocab_count]`` + concatenated UTF-8 blob
* ``POSTINGS``    ``u32 lens[vocab_count]`` + ``u32 lines[entries]``
* ``TOKENS``      ``u8 kind_count`` + (``u8 len`` + bytes) per kind +
                  ``u32 rel_lines[t]`` + ``u8 kind_ids[t]`` +
                  ``u32 text_tids[t]`` (texts dedup through the vocab)
* ``TEXT``        the group's plaintext, raw UTF-8, every line
                  newline-terminated
* ``LAYOUT``      class names, method-block bounds with dex signatures,
                  and each instruction line's statement index (see
                  :func:`repro.store.sharding.encode_layout`)

Section ids 3, 4 and 6 are retired: no v4 section uses them.  The
container version is independent of the *content* addresses (see
:data:`repro.store.sharding.KEY_VERSION`): a shard's sha names what it
holds, not how it is encoded.
"""

from __future__ import annotations

import itertools
import mmap
import struct
import zlib
from pathlib import Path
from typing import Optional

#: The container version every writer publishes and the only one the
#: read path accepts, for shards and JSON entries alike: an entry of any
#: other version reads as stale, and the next run that touches it
#: rebuilds and republishes it.  Content addresses hash under
#: :data:`~repro.store.sharding.KEY_VERSION` instead, so a container
#: change alone moves no key.
FORMAT_VERSION = 4

MAGIC = b"BDSH"

_HEADER = struct.Struct("<4sHHIIII32s")
_SECTION_ENTRY = struct.Struct("<HHIQQ")

SEC_VOCAB = 1
SEC_POSTINGS = 2
SEC_TOKENS = 5
SEC_TEXT = 7
SEC_LAYOUT = 8

#: Sections whose decode yields the prefolded mini-index (what a lazy
#: group materialization pays for).
MINI_INDEX_SECTIONS = (SEC_VOCAB, SEC_POSTINGS)


class ShardCorrupt(Exception):
    """The shard's bytes cannot be trusted (bad magic, bounds, CRC)."""


class ShardStale(ShardCorrupt):
    """A well-formed shard written by a different container version."""


class BinHeader:
    """One decoded header + section table."""

    __slots__ = (
        "line_count", "token_count", "vocab_count", "posting_entries",
        "sha", "sections",
    )

    def __init__(self, line_count, token_count, vocab_count,
                 posting_entries, sha, sections):
        self.line_count = line_count
        self.token_count = token_count
        self.vocab_count = vocab_count
        self.posting_entries = posting_entries
        #: Hex content address the file claims to hold.
        self.sha = sha
        #: section id -> (crc32, offset, length)
        self.sections = sections

    @property
    def table_bytes(self) -> int:
        """Header + section table size (what any read must decode)."""
        return _HEADER.size + _SECTION_ENTRY.size * len(self.sections)


def read_header(buf) -> BinHeader:
    """Decode and bounds-check the header + section table.

    Raises :class:`ShardCorrupt` on any malformed structure and
    :class:`ShardStale` on a foreign container version.
    """
    size = len(buf)
    if size < _HEADER.size:
        raise ShardCorrupt("file shorter than the shard header")
    (magic, version, section_count, line_count, token_count, vocab_count,
     posting_entries, sha_raw) = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ShardCorrupt("bad shard magic")
    if version != FORMAT_VERSION:
        raise ShardStale(f"container version {version}")
    table_end = _HEADER.size + _SECTION_ENTRY.size * section_count
    if size < table_end:
        raise ShardCorrupt("file shorter than its section table")
    sections: dict[int, tuple[int, int, int]] = {}
    for index in range(section_count):
        sec_id, _reserved, crc, offset, length = _SECTION_ENTRY.unpack_from(
            buf, _HEADER.size + _SECTION_ENTRY.size * index
        )
        if offset < table_end or offset + length > size:
            raise ShardCorrupt(f"section {sec_id} out of bounds")
        sections[sec_id] = (crc, offset, length)
    for required in (*MINI_INDEX_SECTIONS, SEC_TOKENS, SEC_TEXT, SEC_LAYOUT):
        if required not in sections:
            raise ShardCorrupt(f"section {required} missing")
    return BinHeader(line_count, token_count, vocab_count, posting_entries,
                     sha_raw.hex(), sections)


def header_is_current(path, sha: str) -> bool:
    """Whether the file at ``path`` starts with the magic, this
    container version and ``sha`` as its content address: one read of
    the fixed header, no section table or CRC."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
    except OSError:
        return False
    if len(head) < _HEADER.size:
        return False
    magic, version, *_, sha_raw = _HEADER.unpack(head)
    return (
        magic == MAGIC and version == FORMAT_VERSION and sha_raw.hex() == sha
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_shard(payload: dict, key: str) -> bytes:
    """Pack one shard payload (:func:`~repro.store.sharding.shard_payload`)
    into the v4 container.

    ``key`` is the shard's hex content address; it is embedded raw in
    the header so a reader can reject a renamed/swapped file without
    rehashing the content.
    """
    return b"".join(shard_chunks(payload, key))


def shard_chunks(payload: dict, key: str) -> list[bytes]:
    """:func:`encode_shard`'s bytes as chunks — header and section
    table, then each section — so a writer can stream them without a
    joined copy.  The ``text`` and ``layout`` bytes pass through as
    they are.
    """
    vocab = payload["vocab"]
    postings = payload["postings"]
    tokens = payload["tokens"]

    vocab_blobs = [text.encode("utf-8", "surrogatepass") for text in vocab]
    sec_vocab = b"".join((
        struct.pack(f"<{len(vocab_blobs)}I", *map(len, vocab_blobs)),
        *vocab_blobs,
    ))

    flat_lines = list(itertools.chain.from_iterable(postings))
    sec_postings = (
        struct.pack(f"<{len(postings)}I", *map(len, postings))
        + struct.pack(f"<{len(flat_lines)}I", *flat_lines)
    )

    exact = {text: tid for tid, text in enumerate(vocab)}
    # Kinds in first-appearance order.
    kinds = list(dict.fromkeys(kind for _, kind, _ in tokens))
    kind_ids = {kind: kid for kid, kind in enumerate(kinds)}
    rel_lines = [rel for rel, _, _ in tokens]
    token_kinds = [kind_ids[kind] for _, kind, _ in tokens]
    # Every token text is a vocabulary entry by construction (the
    # vocabulary *is* the set of token texts), so records store a u32
    # id instead of repeating the text.
    token_tids = [exact[text] for _, _, text in tokens]
    if len(kinds) > 255:
        raise ValueError("more than 255 token kinds")  # pragma: no cover
    kind_table = bytearray([len(kinds)])
    for kind in kinds:
        blob = kind.encode("utf-8", "surrogatepass")
        if len(blob) > 255:
            raise ValueError("token kind name too long")  # pragma: no cover
        kind_table.append(len(blob))
        kind_table.extend(blob)
    count = len(tokens)
    sec_tokens = b"".join((
        bytes(kind_table),
        struct.pack(f"<{count}I", *rel_lines),
        bytes(token_kinds),
        struct.pack(f"<{count}I", *token_tids),
    ))

    ordered = (
        (SEC_VOCAB, sec_vocab),
        (SEC_POSTINGS, sec_postings),
        (SEC_TOKENS, sec_tokens),
        (SEC_TEXT, payload["text"]),
        (SEC_LAYOUT, payload["layout"]),
    )
    table_end = _HEADER.size + _SECTION_ENTRY.size * len(ordered)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(ordered),
        int(payload["line_count"]), count, len(vocab), len(flat_lines),
        bytes.fromhex(key),
    )
    table = bytearray()
    offset = table_end
    for sec_id, blob in ordered:
        table.extend(_SECTION_ENTRY.pack(
            sec_id, 0, zlib.crc32(blob), offset, len(blob)
        ))
        offset += len(blob)
    return [header + table, *(blob for _, blob in ordered)]


# ----------------------------------------------------------------------
# Section decoders (shared by the eager and lazy readers)
# ----------------------------------------------------------------------
def _checked(buf, header: BinHeader, sec_id: int) -> tuple[int, int]:
    """The section's (offset, length), CRC-verified."""
    crc, offset, length = header.sections[sec_id]
    if zlib.crc32(buf[offset:offset + length]) != crc:
        raise ShardCorrupt(f"section {sec_id} failed its CRC")
    return offset, length


def _decode_vocab(buf, offset: int, length: int, count: int) -> list[str]:
    if 4 * count > length:
        raise ShardCorrupt("vocab lengths overrun their section")
    lens = struct.unpack_from(f"<{count}I", buf, offset)
    cursor = offset + 4 * count
    if 4 * count + sum(lens) > length:
        raise ShardCorrupt("vocab blob overruns its section")
    vocab: list[str] = []
    try:
        for text_len in lens:
            vocab.append(
                bytes(buf[cursor:cursor + text_len]).decode(
                    "utf-8", "surrogatepass"
                )
            )
            cursor += text_len
    except UnicodeDecodeError as exc:
        raise ShardCorrupt(f"vocab text undecodable: {exc}") from exc
    return vocab


def _decode_postings(
    buf, offset: int, length: int, count: int, entries: int
) -> list[list[int]]:
    if 4 * (count + entries) > length:
        raise ShardCorrupt("posting lists overrun their section")
    lens = struct.unpack_from(f"<{count}I", buf, offset)
    if sum(lens) != entries:
        raise ShardCorrupt("posting lists disagree with the header")
    flat = struct.unpack_from(f"<{entries}I", buf, offset + 4 * count)
    postings: list[list[int]] = []
    cursor = 0
    for posting_len in lens:
        postings.append(list(flat[cursor:cursor + posting_len]))
        cursor += posting_len
    return postings


def _decode_tokens(
    buf, offset: int, length: int, count: int, vocab: list[str]
) -> list[list]:
    end = offset + length
    if offset >= end:
        raise ShardCorrupt("token section empty")
    kind_count = buf[offset]
    cursor = offset + 1
    kinds: list[str] = []
    try:
        for _ in range(kind_count):
            kind_len = buf[cursor]
            cursor += 1
            kinds.append(
                bytes(buf[cursor:cursor + kind_len]).decode(
                    "utf-8", "surrogatepass"
                )
            )
            cursor += kind_len
    except (IndexError, UnicodeDecodeError) as exc:
        raise ShardCorrupt(f"token kind table malformed: {exc}") from exc
    if cursor + 9 * count > end:
        raise ShardCorrupt("token records overrun their section")
    rel_lines = struct.unpack_from(f"<{count}I", buf, cursor)
    cursor += 4 * count
    kind_ids = bytes(buf[cursor:cursor + count])
    cursor += count
    text_tids = struct.unpack_from(f"<{count}I", buf, cursor)
    try:
        return [
            [rel, kinds[kid], vocab[tid]]
            for rel, kid, tid in zip(rel_lines, kind_ids, text_tids)
        ]
    except IndexError as exc:
        raise ShardCorrupt("token record references out of range") from exc


def decode_mini_index(buf, header: BinHeader) -> dict:
    """The prefolded mini-index sections as shard payload keys."""
    off, length = _checked(buf, header, SEC_VOCAB)
    vocab = _decode_vocab(buf, off, length, header.vocab_count)
    off, length = _checked(buf, header, SEC_POSTINGS)
    postings = _decode_postings(
        buf, off, length, header.vocab_count, header.posting_entries
    )
    return {"vocab": vocab, "postings": postings}


def decode_shard(buf, sha: Optional[str] = None) -> dict:
    """Fully decode one binary shard into the payload shape.

    With ``sha`` given, the header's embedded content address must
    match (the analogue of the JSON artifacts' ``key`` field check).
    Raises :class:`ShardCorrupt`/:class:`ShardStale` as appropriate.
    """
    header = read_header(buf)
    if sha is not None and header.sha != sha:
        raise ShardCorrupt("embedded content address mismatch")
    payload = decode_mini_index(buf, header)
    off, length = _checked(buf, header, SEC_TOKENS)
    payload["tokens"] = _decode_tokens(
        buf, off, length, header.token_count, payload["vocab"]
    )
    for name, sec_id in (("text", SEC_TEXT), ("layout", SEC_LAYOUT)):
        off, length = _checked(buf, header, sec_id)
        payload[name] = bytes(buf[off:off + length])
    payload["version"] = FORMAT_VERSION
    payload["key"] = header.sha
    payload["line_count"] = header.line_count
    return payload


# ----------------------------------------------------------------------
# The lazy view
# ----------------------------------------------------------------------
class LazyShardView:
    """One mmapped shard file, decoded only where touched.

    The file is opened and mapped on first use; the candidacy probe
    (:meth:`blob_contains`) reads the vocabulary blob's byte range
    without building any Python structures, and :meth:`mini_index`
    decodes exactly the two mini-index sections.
    ``bytes_mapped``/``bytes_decoded`` account for what was mapped and
    what was actually decoded — the observables the lazy-restore tests
    and the sustained-traffic benchmark assert on.

    Not thread-safe on its own; the owning
    :class:`~repro.store.lazy.LazyTokenIndex` serializes access.
    """

    def __init__(self, path, sha: str) -> None:
        self.path = Path(path)
        self.sha = sha
        self._mm: Optional[mmap.mmap] = None
        self._header: Optional[BinHeader] = None
        self._verified: set[int] = set()
        self.bytes_mapped = 0
        self.bytes_decoded = 0

    # ------------------------------------------------------------------
    def _ensure(self) -> BinHeader:
        if self._header is not None:
            return self._header
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise ShardCorrupt(f"shard unreadable: {exc}") from exc
        # The map holds its own duplicate descriptor, so the file object
        # is closed as soon as the mapping exists.
        with handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError) as exc:
                raise ShardCorrupt(f"shard unmappable: {exc}") from exc
        self._mm = mapped
        self.bytes_mapped += len(mapped)
        try:
            header = read_header(mapped)
        except ShardCorrupt:
            self.reset()
            raise
        if header.sha != self.sha:
            self.reset()
            raise ShardCorrupt("embedded content address mismatch")
        # No index query decodes the text or layout sections, so they
        # are verified here, once per map: damage anywhere in the file
        # then surfaces (and heals) on first use.
        try:
            for sec_id in (SEC_TEXT, SEC_LAYOUT):
                _checked(mapped, header, sec_id)
        except ShardCorrupt:
            self.reset()
            raise
        self._verified.update((SEC_TEXT, SEC_LAYOUT))
        self._header = header
        self.bytes_decoded += header.table_bytes
        return header

    def _section(self, sec_id: int) -> tuple[int, int]:
        """The section's (offset, length), CRC-verified once per map."""
        header = self._ensure()
        if sec_id in self._verified:
            _, offset, length = header.sections[sec_id]
            return offset, length
        offset, length = _checked(self._mm, header, sec_id)
        self._verified.add(sec_id)
        return offset, length

    # ------------------------------------------------------------------
    @property
    def line_count(self) -> int:
        return self._ensure().line_count

    @property
    def posting_entries(self) -> int:
        return self._ensure().posting_entries

    @property
    def vocab_count(self) -> int:
        return self._ensure().vocab_count

    # ------------------------------------------------------------------
    def blob_contains(self, needle: bytes) -> bool:
        """Whether the raw vocabulary blob contains *needle*.

        A zero-copy ``mmap.find`` over the concatenated text bytes:
        every substring occurrence inside any single vocabulary text is
        found (texts are contiguous), and a match spanning two texts is
        a harmless false positive — the materialized group answers
        exactly.
        """
        offset, length = self._section(SEC_VOCAB)
        blob_start = offset + 4 * self._ensure().vocab_count
        return self._mm.find(needle, blob_start, offset + length) >= 0

    # ------------------------------------------------------------------
    def mini_index(self) -> dict:
        """Decode the two mini-index sections (one group's fault-in)."""
        header = self._ensure()
        payload = decode_mini_index(self._mm, header)
        self.bytes_decoded += sum(
            header.sections[sec_id][2] for sec_id in MINI_INDEX_SECTIONS
        )
        return payload

    def section(self, sec_id: int) -> bytes:
        """One section's bytes, CRC-verified (the text and layout reads
        of a disassembly restore)."""
        offset, length = self._section(sec_id)
        self.bytes_decoded += length
        return self._mm[offset:offset + length]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop the mapping (e.g. after the file was healed in place)."""
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        self._header = None
        self._verified.clear()

    close = reset
