"""Persistent warm-start artifacts for corpus batch runs.

* :mod:`repro.store.artifacts` — the content-addressed on-disk
  :class:`ArtifactStore`: per-class-group *shards* (token streams plus
  prefolded posting lists, shared across every app that embeds the same
  library code), per-app manifests composing shards back into
  byte-identical indexes, and finished batch outcomes — all keyed by
  content hashes plus a format version, with atomic (rename-published)
  writes safe under the process-pool batch executor.
* :mod:`repro.store.sharding` — the class-group partitioner, shard
  content addressing, and the exact composition of shard mini-indexes
  back into one app-level :class:`~repro.search.backends.indexed.TokenIndex`.
* :mod:`repro.store.binshard` — the v3 mmap-friendly binary shard
  container (struct-packed sections + offset table) and the zero-copy
  :class:`LazyShardView` over one mapped shard file.
* :mod:`repro.store.lazy` — :class:`LazyTokenIndex`, the drop-in index
  a fully binary warm entry restores to: groups materialize on first
  query and are LRU-bounded.

The on-disk format is specified in ``docs/STORE_FORMAT.md``.
"""

from repro.store.artifacts import (
    FORMAT_VERSION,
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
    BIN_FORMAT_VERSION,
    LazyShardView,
    ShardCorrupt,
    ShardStale,
    decode_shard,
    encode_shard,
)
from repro.store.lazy import DEFAULT_GROUP_CACHE, LazyTokenIndex
from repro.store.sharding import (
    KEY_VERSION,
    ShardGroup,
    group_label,
    partition_disassembly,
    shard_key,
)

__all__ = [
    "BIN_FORMAT_VERSION",
    "DEFAULT_GROUP_CACHE",
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
