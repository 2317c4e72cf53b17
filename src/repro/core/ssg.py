"""The self-contained slicing graph (SSG), Sec. V-A.

"Since our bytecode search reveals only inter-procedural relationships
and we do not have a whole-app graph, we need our own graph structure to
record all the slicing and inter-procedural information during the
backtracking."

Compared with traditional path-like slices, the SSG additionally keeps:

* a **hierarchical taint map** — one taint set per tracked method,
  organised by method signature, plus a global set for static fields;
* **inter-procedural relationships** — a cross-method edge per
  relationship the bytecode search uncovered (call edges, and paired
  calling/return edges for contained methods);
* **raw typed bytecode statements** — each node is an :class:`SSGUnit`
  wrapping the original statement in its IR form, so the forward
  analysis can recover the complete representation of sink parameters;
* a special **static-initializer track** per unresolved static field,
  added on demand after the main taint process (Sec. V-A, "Adding
  off-path static initializers into SSG on demand").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.android.framework import SinkSpec
from repro.dex.instructions import Stmt
from repro.dex.types import FieldSignature, MethodSignature


@dataclass(frozen=True, eq=False)
class SSGUnit:
    """One SSG node: a raw typed statement plus its program location.

    Units compare and hash by identity: ``SSG.add_unit`` interns one unit
    per program location, so identity equality is location equality.
    """

    uid: int
    method: MethodSignature
    stmt_index: int
    stmt: Stmt

    def __str__(self) -> str:
        return f"#{self.uid} [{self.method.to_soot()}] {self.stmt}"


@dataclass(frozen=True)
class CallBinding:
    """An inter-procedural relationship resolved by bytecode search.

    ``kind`` distinguishes the relationship flavours the SSG records:

    * ``"param"`` — the callee's parameters bind to the caller's
      arguments at the site (backward search ascended to a caller);
    * ``"return"`` — the caller consumes the callee's return value
      (backward slicing descended into a contained method);
    * ``"constructor"`` — the site constructs an object whose methods
      are analyzed (advanced-search anchor);
    * ``"this"`` — the callee's receiver binds to the site's base.
    """

    caller: MethodSignature
    site_index: int
    callee: MethodSignature
    kind: str


class SSG:
    """One self-contained slicing graph, for one sink API call."""

    def __init__(self, sink_method: MethodSignature, sink_index: int, spec: SinkSpec):
        self.sink_method = sink_method
        self.sink_index = sink_index
        self.spec = spec
        self._uids = itertools.count()
        self._units: dict[tuple[MethodSignature, int], SSGUnit] = {}
        #: forward-direction edges (producer unit -> consumer unit).
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        #: hierarchical taint map: per-method local taint sets.
        self.taint_map: dict[MethodSignature, set[str]] = {}
        #: the global taint set for static (and instance) fields.
        self.field_taints: set[FieldSignature] = set()
        #: inter-procedural relationships uncovered by search.
        self.bindings: list[CallBinding] = []
        #: special static-initializer tracks (field -> its track units).
        self.static_tracks: dict[FieldSignature, list[SSGUnit]] = {}
        #: static fields left unresolved after the main taint process.
        self.unresolved_static_fields: set[FieldSignature] = set()
        #: entry information established by the backward search.
        self.reached_entry = False
        self.entry_points: set[MethodSignature] = set()
        #: diagnostics accumulated during slicing.
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    # Nodes and edges
    # ------------------------------------------------------------------
    def sink_unit(self) -> Optional[SSGUnit]:
        return self._units.get((self.sink_method, self.sink_index))

    def add_unit(self, method: MethodSignature, stmt_index: int, stmt: Stmt) -> SSGUnit:
        """Record a raw typed statement (idempotent per location)."""
        key = (method, stmt_index)
        unit = self._units.get(key)
        if unit is None:
            unit = SSGUnit(uid=next(self._uids), method=method,
                           stmt_index=stmt_index, stmt=stmt)
            self._units[key] = unit
        return unit

    def add_flow_edge(self, producer: SSGUnit, consumer: SSGUnit) -> None:
        """A forward dataflow/control edge: *producer* feeds *consumer*."""
        if producer.uid == consumer.uid:
            return
        self._succ.setdefault(producer.uid, set()).add(consumer.uid)
        self._pred.setdefault(consumer.uid, set()).add(producer.uid)

    def add_binding(self, binding: CallBinding) -> None:
        self.bindings.append(binding)

    # ------------------------------------------------------------------
    # Taint map
    # ------------------------------------------------------------------
    def taint_local(self, method: MethodSignature, local_name: str) -> None:
        self.taint_map.setdefault(method, set()).add(local_name)

    def taint_field(self, fieldsig: FieldSignature) -> None:
        self.field_taints.add(fieldsig)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def units(self) -> Iterator[SSGUnit]:
        return iter(self._units.values())

    def units_of(self, method: MethodSignature) -> list[SSGUnit]:
        """The recorded units of one method, in statement order."""
        found = [u for (m, _), u in self._units.items() if m == method]
        return sorted(found, key=lambda u: u.stmt_index)

    def methods(self) -> set[MethodSignature]:
        return {m for m, _ in self._units}

    def tail_units(self) -> list[SSGUnit]:
        """Entry-most units (no recorded producer) — traversal starts here."""
        return [u for u in self._units.values() if not self._pred.get(u.uid)]

    def successors(self, unit: SSGUnit) -> list[SSGUnit]:
        by_uid = {u.uid: u for u in self._units.values()}
        return [by_uid[uid] for uid in sorted(self._succ.get(unit.uid, ()))]

    def bindings_into(self, callee: MethodSignature) -> list[CallBinding]:
        return [b for b in self.bindings if b.callee == callee]

    def __len__(self) -> int:
        return len(self._units)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """A human-readable dump in the spirit of Fig. 6."""
        lines = [f"SSG for sink {self.spec.description} at "
                 f"{self.sink_method.to_soot()}[{self.sink_index}]"]
        lines.append(f"  reached entry: {self.reached_entry}"
                     f" via {sorted(str(e) for e in self.entry_points)}")
        for method in sorted(self.methods(), key=str):
            lines.append(f"  {method.to_soot()}")
            for unit in self.units_of(method):
                lines.append(f"    [{unit.stmt_index:3}] {unit.stmt}")
        for fieldsig, track in sorted(self.static_tracks.items(), key=lambda i: str(i[0])):
            lines.append(f"  <static track {fieldsig.to_soot()}>")
            for unit in track:
                lines.append(f"    [{unit.stmt_index:3}] {unit.stmt}")
        return "\n".join(lines)
