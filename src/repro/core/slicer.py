"""The adjusted backward taint slicing that generates SSGs (Sec. V-A).

Starting from a sink API call located by the initial bytecode search, the
slicer walks statements *backwards*, tainting the values that feed the
tracked sink parameters.  Whenever the walk reaches a method head with
unresolved taints (or with entry reachability still unproven), the
caller-resolution engine — i.e. the on-the-fly bytecode search of
Sec. IV — supplies the callers to continue in.

The Sec. V-A specifics reproduced here:

* **fields** — tainting an instance field taints both ``obj.field`` and
  ``obj`` itself; a bytecode *field-signature search* then captures every
  method that writes the field, and only those contained methods are
  analyzed (the paper's optimisation over jumping into all contained
  methods);
* **arrays** — tainting an element taints the array object;
* **contained methods** — a tainted call result descends into the callee
  at its return statements, recording paired calling/return edges;
* **static initializer tracks** — ``<clinit>`` writers found by the field
  search are sliced *locally* into a special SSG track (they run
  implicitly at class-load time, so no caller ascent applies); leftovers
  are handled after the main pass ("off-path" initializers, on demand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.android.apk import Apk
from repro.android.framework import SinkSpec, is_framework_class
from repro.dex.hierarchy import DexMethod
from repro.dex.instructions import (
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    Constant,
    IdentityStmt,
    InstanceFieldRef,
    InvokeExpr,
    Local,
    ParameterRef,
    PhiExpr,
    ReturnStmt,
    StaticFieldRef,
    Stmt,
    ThisRef,
)
from repro.dex.types import FieldSignature, MethodSignature
from repro.search.common import ResolvedCaller
from repro.search.engine import CallerResolutionEngine
from repro.core.ssg import SSG, CallBinding, SSGUnit


@dataclass(frozen=True)
class SinkCallSite:
    """One located sink API call."""

    method: MethodSignature
    stmt_index: int
    spec: SinkSpec

    @property
    def key(self) -> str:
        return f"{self.method.to_dex()}@{self.stmt_index}"


@dataclass(frozen=True)
class _Frame:
    """One backward-walk work item.

    The walk processes statements ``start-1, start-2, ..., 0`` of
    ``method``.  ``tainted`` holds the local names tainted at the walk's
    beginning; ``consumer`` is the SSG unit the frame's discoveries feed
    (for flow-edge wiring); ``path`` is the backtracking chain for
    CrossBackward loop detection.
    """

    method: MethodSignature
    start: int
    tainted: frozenset[str]
    path: tuple[MethodSignature, ...]
    consumer: Optional[SSGUnit] = None


class BackwardSlicer:
    """Generates one SSG per sink API call."""

    def __init__(
        self,
        apk: Apk,
        engine: Optional[CallerResolutionEngine] = None,
        max_frames: int = 4000,
    ) -> None:
        self.apk = apk
        self.pool = apk.full_pool
        self.engine = engine if engine is not None else CallerResolutionEngine(apk)
        self.searcher = self.engine.searcher
        self.loops = self.engine.loops
        self.max_frames = max_frames

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def slice_sink(self, site: SinkCallSite) -> SSG:
        """Backward-slice one sink call into a self-contained SSG."""
        ssg = SSG(site.method, site.stmt_index, site.spec)
        method = self.pool.resolve_method(site.method)
        if method is None or site.stmt_index >= len(method.body):
            ssg.notes.append("sink method unresolvable")
            return ssg
        stmt = method.body[site.stmt_index]
        expr = stmt.invoke_expr()
        if expr is None:
            ssg.notes.append("sink statement is not an invocation")
            return ssg
        sink_unit = ssg.add_unit(site.method, site.stmt_index, stmt)

        tainted: set[str] = set()
        for index in site.spec.tracked_params:
            if index < len(expr.args) and isinstance(expr.args[index], Local):
                tainted.add(expr.args[index].name)
                ssg.taint_local(site.method, expr.args[index].name)
        # Constructor sinks (e.g. ``new ServerSocket(port)``): the
        # receiver's allocation is part of the slice as well.
        if expr.base is not None and expr.method.is_constructor:
            tainted.add(expr.base.name)

        self._expanded_fields: set[FieldSignature] = set()
        self._visited: set[tuple[MethodSignature, int, frozenset[str]]] = set()
        self._frames: list[_Frame] = []
        self._frame_budget = self.max_frames
        self._push(
            ssg,
            _Frame(
                method=site.method,
                start=site.stmt_index,
                tainted=frozenset(tainted),
                path=(site.method,),
                consumer=sink_unit,
            ),
        )
        while self._frames and self._frame_budget > 0:
            self._frame_budget -= 1
            self._process(ssg, self._frames.pop())
        if self._frames:  # the budget ran out with frames still queued
            ssg.notes.append("frame budget exhausted")
        self._add_offpath_clinit_tracks(ssg)
        return ssg

    # ------------------------------------------------------------------
    def _push(self, ssg: SSG, frame: _Frame) -> None:
        key = (frame.method, frame.start, frame.tainted)
        if key in self._visited:
            return
        self._visited.add(key)
        self._frames.append(frame)

    # ------------------------------------------------------------------
    # Frame processing: the backward walk
    # ------------------------------------------------------------------
    def _process(self, ssg: SSG, frame: _Frame) -> None:
        method = self.pool.resolve_method(frame.method)
        if method is None or not method.has_body:
            return
        tainted = set(frame.tainted)
        for name in tainted:
            ssg.taint_local(frame.method, name)
        tainted_params: set[int] = set()
        this_tainted = False
        last_unit = frame.consumer

        for index in range(frame.start - 1, -1, -1):
            stmt = method.body[index]

            if isinstance(stmt, IdentityStmt):
                if stmt.local.name in tainted:
                    last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                    tainted.discard(stmt.local.name)
                    if isinstance(stmt.ref, ParameterRef):
                        tainted_params.add(stmt.ref.index)
                    elif isinstance(stmt.ref, ThisRef):
                        this_tainted = True
                continue

            if isinstance(stmt, AssignStmt):
                lhs = stmt.lhs
                if isinstance(lhs, Local) and lhs.name in tainted:
                    last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                    tainted.discard(lhs.name)
                    self._taint_rhs(ssg, frame, method, index, stmt, tainted, last_unit)
                    continue
                if (
                    isinstance(lhs, (InstanceFieldRef, StaticFieldRef))
                    and lhs.fieldsig in ssg.field_taints
                ):
                    # An upstream write to an already-tainted field.
                    last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                    for local in stmt.used_locals():
                        tainted.add(local.name)
                    continue
                if isinstance(lhs, ArrayRef) and lhs.base.name in tainted:
                    # aput into a tainted array: the stored value matters.
                    last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                    for local in stmt.used_locals():
                        tainted.add(local.name)
                    continue

            expr = stmt.invoke_expr()
            if (
                expr is not None
                and expr.base is not None
                and expr.base.name in tainted
                and expr.method.is_constructor
            ):
                # The construction of a tainted object: its arguments
                # feed the object's members (NewObj capture in the
                # forward phase).
                last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                for arg in expr.args:
                    for local in arg.used_locals():
                        tainted.add(local.name)
                self._descend_constructor(ssg, frame, index, expr)
                continue
            if (
                expr is not None
                and expr.base is not None
                and expr.base.name in tainted
                and is_framework_class(expr.method.class_name)
            ):
                # A framework mutator on a tainted object (e.g.
                # ``intent.putExtra(key, value)``): record it and taint
                # its inputs so the forward API models can replay the
                # mutation.
                last_unit = self._record(ssg, frame.method, index, stmt, last_unit)
                for arg in expr.args:
                    for local in arg.used_locals():
                        tainted.add(local.name)
                continue

        self._on_method_head(ssg, frame, method, tainted_params, this_tainted, last_unit)

    # ------------------------------------------------------------------
    def _record(
        self,
        ssg: SSG,
        method: MethodSignature,
        index: int,
        stmt: Stmt,
        consumer: Optional[SSGUnit],
    ) -> SSGUnit:
        unit = ssg.add_unit(method, index, stmt)
        if consumer is not None:
            ssg.add_flow_edge(unit, consumer)
        return unit

    # ------------------------------------------------------------------
    def _taint_rhs(
        self,
        ssg: SSG,
        frame: _Frame,
        method: DexMethod,
        index: int,
        stmt: AssignStmt,
        tainted: set[str],
        unit: SSGUnit,
    ) -> None:
        rhs = stmt.rhs
        if isinstance(rhs, Constant):
            return
        if isinstance(rhs, Local):
            tainted.add(rhs.name)
            return
        if isinstance(rhs, (CastExpr, PhiExpr, BinopExpr)):
            for local in rhs.used_locals():
                tainted.add(local.name)
            return
        if isinstance(rhs, InstanceFieldRef):
            # Taint the field itself *and* its class object so the same
            # field is traced across aliases and method boundaries.
            ssg.taint_field(rhs.fieldsig)
            tainted.add(rhs.base.name)
            self._expand_field_writes(ssg, rhs.fieldsig, frame.path, unit)
            return
        if isinstance(rhs, StaticFieldRef):
            ssg.taint_field(rhs.fieldsig)
            self._expand_field_writes(ssg, rhs.fieldsig, frame.path, unit)
            return
        if isinstance(rhs, ArrayRef):
            tainted.add(rhs.base.name)
            for local in rhs.index.used_locals():
                tainted.add(local.name)
            return
        if isinstance(rhs, InvokeExpr):
            self._descend_contained(ssg, frame, index, rhs, tainted, unit)
            return
        # NewExpr / NewArrayExpr: the allocation itself, nothing upstream.

    # ------------------------------------------------------------------
    # Contained methods (descending for return values)
    # ------------------------------------------------------------------
    def _descend_contained(
        self,
        ssg: SSG,
        frame: _Frame,
        site_index: int,
        expr: InvokeExpr,
        tainted: set[str],
        unit: SSGUnit,
    ) -> None:
        target = self.pool.resolve_method(expr.method)
        if target is None or not target.has_body or is_framework_class(
            target.declaring_class
        ):
            # A framework/API call: conservatively taint its inputs; the
            # forward phase models the API's semantics (Sec. V-B).
            if expr.base is not None:
                tainted.add(expr.base.name)
            for arg in expr.args:
                for local in arg.used_locals():
                    tainted.add(local.name)
            return
        target_sig = target.signature()
        if self.loops.check_inner_backward(frame.path, target_sig):
            return
        ssg.add_binding(
            CallBinding(frame.method, site_index, target_sig, kind="return")
        )
        for return_index, stmt in enumerate(target.body):
            if not isinstance(stmt, ReturnStmt) or stmt.value is None:
                continue
            return_unit = self._record(ssg, target_sig, return_index, stmt, unit)
            new_taints = frozenset(
                local.name for local in stmt.value.used_locals()
            )
            self._push(
                ssg,
                _Frame(
                    method=target_sig,
                    start=return_index,
                    tainted=new_taints,
                    path=frame.path + (target_sig,),
                    consumer=return_unit,
                ),
            )

    def _descend_constructor(
        self, ssg: SSG, frame: _Frame, site_index: int, expr: InvokeExpr
    ) -> None:
        target = self.pool.resolve_method(expr.method)
        if target is None or not target.has_body or is_framework_class(
            target.declaring_class
        ):
            return
        ssg.add_binding(
            CallBinding(frame.method, site_index, target.signature(), kind="param")
        )

    # ------------------------------------------------------------------
    # Field-signature searches (Sec. V-A)
    # ------------------------------------------------------------------
    def _expand_field_writes(
        self,
        ssg: SSG,
        fieldsig: FieldSignature,
        path: tuple[MethodSignature, ...],
        unit: SSGUnit,
    ) -> None:
        if fieldsig in self._expanded_fields:
            return
        self._expanded_fields.add(fieldsig)
        if is_framework_class(fieldsig.class_name):
            # Framework constants (e.g. ALLOW_ALL_HOSTNAME_VERIFIER) are
            # resolved by the forward phase's constant table.
            return
        writes = self.searcher.find_field_accesses(fieldsig, writes_only=True)
        if not writes:
            resolved = self.pool.resolve_field(fieldsig)
            if resolved is not None and resolved.is_static:
                ssg.unresolved_static_fields.add(fieldsig)
            return
        for hit in writes:
            if hit.method is None or hit.stmt_index is None:
                continue
            writer = self.pool.resolve_method(hit.method)
            if writer is None or hit.stmt_index >= len(writer.body):
                continue
            if writer.is_static_initializer:
                self._build_static_track(ssg, fieldsig, writer, hit.stmt_index)
                continue
            stmt = writer.body[hit.stmt_index]
            write_unit = self._record(ssg, hit.method, hit.stmt_index, stmt, unit)
            taints = frozenset(local.name for local in stmt.used_locals())
            if hit.method in path:
                self.loops.check_backward(path, hit.method)
                continue
            self._push(
                ssg,
                _Frame(
                    method=hit.method,
                    start=hit.stmt_index,
                    tainted=taints,
                    path=path + (hit.method,),
                    consumer=write_unit,
                ),
            )

    def _build_static_track(
        self,
        ssg: SSG,
        fieldsig: FieldSignature,
        clinit: DexMethod,
        write_index: int,
    ) -> None:
        """Slice a ``<clinit>`` writer locally into the static track.

        Only the relevant statements are added (Sec. V-A); no caller
        ascent happens — static initializers run implicitly at class
        load, and their control-flow reachability is judged separately
        by the Sec. IV-C recursive search when they appear on-path.
        """
        track = ssg.static_tracks.setdefault(fieldsig, [])
        clinit_sig = clinit.signature()
        write_stmt = clinit.body[write_index]
        needed = {local.name for local in write_stmt.used_locals()}
        picked: list[tuple[int, Stmt]] = [(write_index, write_stmt)]
        for index in range(write_index - 1, -1, -1):
            stmt = clinit.body[index]
            defs = [d for d in stmt.defs() if isinstance(d, Local)]
            if any(d.name in needed for d in defs):
                picked.append((index, stmt))
                for d in defs:
                    needed.discard(d.name)
                for local in stmt.used_locals():
                    needed.add(local.name)
        for index, stmt in sorted(picked):
            track_unit = ssg.add_unit(clinit_sig, index, stmt)
            if track_unit not in track:
                track.append(track_unit)
        track.sort(key=lambda u: u.stmt_index)

    def _add_offpath_clinit_tracks(self, ssg: SSG) -> None:
        """Resolve leftover static fields from their ``<clinit>``, if any.

        After the main taint process, any still-unresolved static field
        whose class declares a static initializer gets a special track
        built from it (the paper's off-path case).
        """
        for fieldsig in sorted(ssg.unresolved_static_fields, key=str):
            if fieldsig in ssg.static_tracks:
                continue
            cls = self.pool.get(fieldsig.class_name)
            if cls is None:
                continue
            clinit = cls.static_initializer()
            if clinit is None or not clinit.has_body:
                continue
            for index, stmt in enumerate(clinit.body):
                lhs = stmt.defs()[0] if stmt.defs() else None
                if isinstance(lhs, StaticFieldRef) and lhs.fieldsig == fieldsig:
                    self._build_static_track(ssg, fieldsig, clinit, index)
        ssg.unresolved_static_fields -= set(ssg.static_tracks)

    # ------------------------------------------------------------------
    # Method heads: ascend via the on-the-fly searches
    # ------------------------------------------------------------------
    def _on_method_head(
        self,
        ssg: SSG,
        frame: _Frame,
        method: DexMethod,
        tainted_params: set[int],
        this_tainted: bool,
        last_unit: Optional[SSGUnit],
    ) -> None:
        has_dataflow = bool(tainted_params) or this_tainted
        if not has_dataflow and ssg.reached_entry:
            return  # pure-reachability frame and entry already proven

        resolution = self.engine.resolve(frame.method)
        if resolution.is_entry:
            ssg.reached_entry = True
            ssg.entry_points.add(frame.method)
        if resolution.clinit_reachable is not None:
            if resolution.clinit_reachable:
                ssg.reached_entry = True
                ssg.entry_points.add(frame.method)
                ssg.notes.append(
                    f"clinit reachable via {' <- '.join(resolution.clinit_chain)}"
                )
            return

        for caller in resolution.callers:
            if caller.kind == "lifecycle":
                if this_tainted:
                    self._ascend_lifecycle(ssg, frame, caller, last_unit)
                continue
            if self.loops.check_backward(frame.path, caller.method):
                continue
            if caller.kind == "direct":
                self._ascend_direct(
                    ssg, frame, caller, tainted_params, this_tainted, last_unit
                )
            elif caller.kind == "constructor":
                self._ascend_constructor(ssg, frame, caller, last_unit)
            elif caller.kind == "icc":
                self._ascend_icc(ssg, frame, caller, method, tainted_params, last_unit)

    def _ascend_direct(
        self,
        ssg: SSG,
        frame: _Frame,
        caller: ResolvedCaller,
        tainted_params: set[int],
        this_tainted: bool,
        last_unit: Optional[SSGUnit],
    ) -> None:
        caller_method = self.pool.resolve_method(caller.method)
        if caller_method is None or caller.stmt_index >= len(caller_method.body):
            return
        site_stmt = caller_method.body[caller.stmt_index]
        expr = site_stmt.invoke_expr()
        if expr is None:
            return
        site_unit = self._record(ssg, caller.method, caller.stmt_index, site_stmt, last_unit)
        ssg.add_binding(
            CallBinding(caller.method, caller.stmt_index, frame.method, kind="param")
        )
        new_taints: set[str] = set()
        for index in tainted_params:
            if index < len(expr.args):
                for local in expr.args[index].used_locals():
                    new_taints.add(local.name)
        if this_tainted and expr.base is not None:
            new_taints.add(expr.base.name)
            ssg.add_binding(
                CallBinding(caller.method, caller.stmt_index, frame.method, kind="this")
            )
        self._push(
            ssg,
            _Frame(
                method=caller.method,
                start=caller.stmt_index,
                tainted=frozenset(new_taints),
                path=frame.path + (caller.method,),
                consumer=site_unit,
            ),
        )

    def _ascend_constructor(
        self,
        ssg: SSG,
        frame: _Frame,
        caller: ResolvedCaller,
        last_unit: Optional[SSGUnit],
    ) -> None:
        caller_method = self.pool.resolve_method(caller.method)
        if caller_method is None or caller.stmt_index >= len(caller_method.body):
            return
        allocation = caller_method.body[caller.stmt_index]
        allocation_unit = self._record(
            ssg, caller.method, caller.stmt_index, allocation, last_unit
        )
        ssg.add_binding(
            CallBinding(caller.method, caller.stmt_index, frame.method, kind="constructor")
        )
        for link in caller.chain:
            ssg.notes.append(
                f"advanced chain: {link.method.to_soot()}[{link.site_index}]"
            )
        taints: set[str] = set()
        if caller.object_local is not None:
            taints.add(caller.object_local.name)
        self._push(
            ssg,
            _Frame(
                method=caller.method,
                start=caller.stmt_index + 1,
                tainted=frozenset(taints),
                path=frame.path + (caller.method,),
                consumer=allocation_unit,
            ),
        )

    def _ascend_icc(
        self,
        ssg: SSG,
        frame: _Frame,
        caller: ResolvedCaller,
        callee_method: DexMethod,
        tainted_params: set[int],
        last_unit: Optional[SSGUnit],
    ) -> None:
        caller_method = self.pool.resolve_method(caller.method)
        if caller_method is None or caller.stmt_index >= len(caller_method.body):
            return
        site_stmt = caller_method.body[caller.stmt_index]
        site_unit = self._record(ssg, caller.method, caller.stmt_index, site_stmt, last_unit)
        ssg.add_binding(
            CallBinding(caller.method, caller.stmt_index, frame.method, kind="icc")
        )
        # Intent-extra dataflow: when the handler's tainted parameter is
        # the Intent itself, the backward walk continues at the Intent
        # argument of the ICC call, so putExtra values resolve.
        taints: set[str] = set()
        intent_param_tainted = any(
            callee_method.param_types[index] == "android.content.Intent"
            for index in tainted_params
            if index < len(callee_method.param_types)
        )
        site_expr = site_stmt.invoke_expr()
        if intent_param_tainted and site_expr is not None:
            for arg in site_expr.args:
                if getattr(arg, "java_type", "") == "android.content.Intent":
                    taints.add(arg.name)
        self._push(
            ssg,
            _Frame(
                method=caller.method,
                start=caller.stmt_index,
                tainted=frozenset(taints),
                path=frame.path + (caller.method,),
                consumer=site_unit,
            ),
        )

    def _ascend_lifecycle(
        self,
        ssg: SSG,
        frame: _Frame,
        caller: ResolvedCaller,
        last_unit: Optional[SSGUnit],
    ) -> None:
        predecessor = self.pool.resolve_method(caller.method)
        if predecessor is None or not predecessor.has_body:
            return
        if self.loops.check_backward(frame.path, caller.method):
            return
        this_locals = {
            stmt.local.name
            for stmt in predecessor.body
            if isinstance(stmt, IdentityStmt) and isinstance(stmt.ref, ThisRef)
        }
        self._push(
            ssg,
            _Frame(
                method=caller.method,
                start=len(predecessor.body),
                tainted=frozenset(this_locals),
                path=frame.path + (caller.method,),
                consumer=last_unit,
            ),
        )
