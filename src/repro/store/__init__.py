"""Persistent warm-start artifacts for corpus batch runs.

* :mod:`repro.store.artifacts` — the content-addressed on-disk
  :class:`ArtifactStore`: per-class-group *shards* (token streams plus
  prefolded posting lists, shared across every app that embeds the same
  library code), per-app manifests listing each app's shards, and
  finished batch outcomes — all keyed by content hashes plus a format
  version, with atomic (rename-published) writes safe under the
  process-pool batch executor.
* :mod:`repro.store.sharding` — one :class:`ShardGroup` per library
  group of a disassembly, the group folds and shard content
  addressing.
* :mod:`repro.store.binshard` — the v4 mmap-friendly binary shard
  container (struct-packed sections + offset table) and the zero-copy
  :class:`LazyShardView` over one mapped shard file.
* :mod:`repro.store.lazy` — :class:`LazyTokenIndex`, the one app index,
  answered group by group: a cold build queries its in-memory group
  folds, a restore faults groups in from their mapped shards on first
  query.

The on-disk format is specified in ``docs/STORE_FORMAT.md``.
"""

from repro.store.artifacts import (
    PROBE_LEVELS,
    WARM_LEVELS,
    ArtifactStore,
    GcResult,
    StoreInventory,
    StoreProbe,
    StoreStats,
    VerifyEntry,
    store_key,
)
from repro.store.binshard import (
    FORMAT_VERSION,
    LazyShardView,
    ShardCorrupt,
    ShardStale,
    decode_shard,
    encode_shard,
)
from repro.store.lazy import LazyTokenIndex
from repro.store.sharding import (
    KEY_VERSION,
    ShardGroup,
    group_label,
    partition_disassembly,
    shard_key,
)

__all__ = [
    "FORMAT_VERSION",
    "KEY_VERSION",
    "PROBE_LEVELS",
    "WARM_LEVELS",
    "ArtifactStore",
    "GcResult",
    "LazyShardView",
    "LazyTokenIndex",
    "ShardCorrupt",
    "ShardGroup",
    "ShardStale",
    "StoreInventory",
    "StoreProbe",
    "StoreStats",
    "VerifyEntry",
    "decode_shard",
    "encode_shard",
    "group_label",
    "partition_disassembly",
    "shard_key",
    "store_key",
]
