"""A dexdump-style plaintext disassembler.

BackDroid "employs dexdump to disassemble (merged, if multidex is used)
bytecode to a plaintext" (Sec. III, step 1) and then performs *text search*
over that plaintext.  This module renders our IR into the same textual
shapes dexdump produces, so that every search pattern in the paper has a
real target:

* method invocations: ``invoke-virtual {v0},
  Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V // method@30b9``
* field accesses: ``iget-object v0, v5,
  Lcom/connectsdk/service/NetcastTVService$1;.this$0:L...; // field@17b4``
* explicit-ICC parameters: ``const-class v1, Lcom/lge/app1/fota/HttpServerService;``
* implicit-ICC parameters: ``const-string v2, "com.app.ACTION_SYNC"``

Each emitted instruction line is mapped back to its originating IR
statement, which is what lets a text hit be "translated back" into the
program-analysis space (Fig. 3, steps 2-3).

Numbering is per library group (:func:`group_label`): the interned ids,
the code addresses and the ``Class #N`` ordinal restart at every group
boundary, so a group's text depends only on its own classes.  That is
what lets the artifact store keep one copy of a library's text for every
app that embeds it, and rebuild an app's plaintext from those copies
(:class:`RestoredDisassembly`) instead of rendering it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.dex.hierarchy import ClassPool, DexClass, DexMethod
from repro.dex.instructions import (
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    ClassConstant,
    DoubleConstant,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InstanceFieldRef,
    IntConstant,
    InvokeExpr,
    InvokeStmt,
    Local,
    LongConstant,
    NewArrayExpr,
    NewExpr,
    NopStmt,
    NullConstant,
    PhiExpr,
    ReturnStmt,
    StaticFieldRef,
    Stmt,
    StringConstant,
    ThrowStmt,
)
from repro.dex.types import MethodSignature, java_to_dex_type

#: dexdump's banner: the lines every rendering starts with, before the
#: first class.
PREAMBLE = (
    "Processing merged classes.dex",
    "Opened 'classes.dex', DEX version '035'",
)

_BINOP_OPCODES = {
    "+": "add-int",
    "-": "sub-int",
    "*": "mul-int",
    "/": "div-int",
    "%": "rem-int",
    "&": "and-int",
    "|": "or-int",
    "^": "xor-int",
    "<<": "shl-int",
    ">>": "shr-int",
    "==": "cmp-eq",
    "!=": "cmp-ne",
    "<": "cmp-lt",
    ">": "cmp-gt",
    "<=": "cmp-le",
    ">=": "cmp-ge",
}


def group_label(class_name: str) -> str:
    """The library-fingerprint label of one class.

    The first two dot-separated package segments (``com.lge.app1.Main``
    -> ``com.lge``) — the granularity at which real apps vendor
    libraries.  Classes sharing a label render contiguously (classes
    render sorted by name, and names under one package prefix are
    lexicographically contiguous), so one label yields one group per
    app.  Every position-dependent counter restarts at a group boundary.
    """
    parts = class_name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else class_name


class _InternPool:
    """Assigns stable hexadecimal ids, mimicking dexdump's ``// method@30b9``."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def id_of(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self._ids)
        return self._ids[key]

    def render(self, kind: str, key: str) -> str:
        return f"// {kind}@{self.id_of(key):04x}"


@dataclass
class InsnLine:
    """One rendered instruction line, tied back to its IR statement."""

    line_no: int  # absolute line number in the full disassembly text
    stmt_index: int  # index into the owning method's body
    text: str


@dataclass
class MethodBlock:
    """The disassembly section of one method.

    Instruction lines are the block's last ``len(insns)`` lines, one
    after another.  Blocks are built from a group's
    :class:`GroupColumns` when first looked up.
    """

    signature: MethodSignature
    start_line: int
    end_line: int  # exclusive
    insns: list[InsnLine] = field(default_factory=list)

    def stmt_index_for_line(self, line_no: int) -> Optional[int]:
        for insn in self.insns:
            if insn.line_no == line_no:
                return insn.stmt_index
        return None


@dataclass
class GroupColumns:
    """One library group's class names and method-block layout.

    ``class_names`` are the group's classes in render order.  Lines are
    relative to the group's first line.  Block ``i`` spans
    ``block_starts[i]`` to ``block_ends[i]``, its last ``insn_counts[i]``
    lines are instructions, and ``stmt_indices`` holds every instruction
    line's statement index, block after block; ``signatures`` are the
    blocks' dexdump-form method signatures.  The renderer captures these
    columns as it renders, the artifact store encodes them as the
    group's layout section, and a restore decodes them back.
    """

    start_line: int
    end_line: int = 0  # exclusive
    block_starts: list[int] = field(default_factory=list)
    block_ends: list[int] = field(default_factory=list)
    insn_counts: list[int] = field(default_factory=list)
    signatures: list[str] = field(default_factory=list)
    stmt_indices: list[int] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)


class Disassembly:
    """The full dexdump-style plaintext plus its library groups.

    A group is one :class:`GroupColumns` and one tuple of
    ``group_tokens``: the substrings of its lines a bytecode search
    could target (signatures, type descriptors, quoted literals), as
    ``(rel_line, kind, text)`` with lines relative to the group's first
    line.  A :class:`MethodBlock` is built from the columns on its first
    lookup, so neither a render nor a restore allocates one object per
    method or instruction.  A hand-built disassembly may carry lines
    alone: it then has no groups, which only the linear backend accepts.
    """

    def __init__(
        self,
        lines: list[str],
        group_columns: Optional[list[GroupColumns]] = None,
        group_tokens: Optional[list[tuple[tuple[int, str, str], ...]]] = None,
    ) -> None:
        self.lines = lines
        #: Each group's tokens, in the order of ``group_columns``.
        self.group_tokens = group_tokens if group_tokens is not None else []
        self._set_layout(group_columns if group_columns is not None else [])

    def _set_layout(self, group_columns: list[GroupColumns]) -> None:
        self.group_columns = group_columns
        self._group_starts = [columns.start_line for columns in group_columns]
        #: Per group, each block's offset into its ``stmt_indices``.
        self._stmt_offsets = [
            list(itertools.accumulate(columns.insn_counts, initial=0))
            for columns in group_columns
        ]
        self._built: dict[tuple[int, int], MethodBlock] = {}
        self._by_signature: Optional[dict[str, tuple[int, int]]] = None

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    # ------------------------------------------------------------------
    def _block(self, group: int, index: int) -> MethodBlock:
        """Block *index* of group *group*, built on first lookup."""
        block = self._built.get((group, index))
        if block is None:
            columns = self.group_columns[group]
            base = columns.start_line
            end = columns.block_ends[index]
            first = end - columns.insn_counts[index]
            offset = self._stmt_offsets[group][index] - first
            stmt_indices = columns.stmt_indices
            lines = self.lines
            block = MethodBlock(
                MethodSignature.parse_dex(columns.signatures[index]),
                base + columns.block_starts[index],
                base + end,
                [
                    InsnLine(
                        base + rel,
                        stmt_indices[offset + rel],
                        _insn_text(lines[base + rel]),
                    )
                    for rel in range(first, end)
                ],
            )
            self._built[(group, index)] = block
        return block

    @property
    def blocks(self) -> list[MethodBlock]:
        """Every method block in line order (builds them all)."""
        return [
            self._block(group, index)
            for group, columns in enumerate(self.group_columns)
            for index in range(len(columns.signatures))
        ]

    def block_at_line(self, line_no: int) -> Optional[MethodBlock]:
        """The method block containing an absolute line number.

        This is step 2 of the basic search (Fig. 3): "identify the
        corresponding method that contains the invocation found in the
        bytecode plaintext".
        """
        group = bisect.bisect_right(self._group_starts, line_no) - 1
        if group < 0:
            return None
        columns = self.group_columns[group]
        rel = line_no - columns.start_line
        index = bisect.bisect_right(columns.block_starts, rel) - 1
        if index < 0 or rel >= columns.block_ends[index]:
            return None
        return self._block(group, index)

    def block_of(self, signature: MethodSignature) -> Optional[MethodBlock]:
        if self._by_signature is None:
            self._by_signature = {
                dex: (group, index)
                for group, columns in enumerate(self.group_columns)
                for index, dex in enumerate(columns.signatures)
            }
        where = self._by_signature.get(signature.to_dex())
        if where is None:
            return None
        block = self._block(*where)
        return block if block.signature == signature else None


class RenderMismatch(RuntimeError):
    """A fresh render disagrees with the plaintext restored from a store."""


class RestoredDisassembly(Disassembly):
    """A disassembly rebuilt from stored plaintext and layout.

    The lines and each group's :class:`GroupColumns` come from the
    artifact store (:meth:`repro.store.ArtifactStore.load_disassembly`),
    and blocks are built from them exactly as for a rendered app.
    Tokens are not stored with the text: the first read of
    ``group_tokens`` (only the store's repair paths fold them) renders
    the app afresh with ``render`` and takes them from that render,
    whose lines must equal the restored lines — a mismatch raises
    :class:`RenderMismatch` rather than mixing two renderings.
    """

    def __init__(
        self,
        lines: list[str],
        group_columns: list[GroupColumns],
        render: Callable[[], Disassembly],
    ) -> None:
        self.lines = lines
        self._set_layout(group_columns)
        self._render = render
        self._fresh: Optional[Disassembly] = None

    @property
    def group_tokens(self) -> list[tuple[tuple[int, str, str], ...]]:
        if self._fresh is None:
            fresh = self._render()
            if fresh.lines != self.lines:
                raise RenderMismatch(
                    "a fresh render differs from the restored plaintext"
                )
            self._fresh = fresh
        return self._fresh.group_tokens


def _insn_text(line: str) -> str:
    """The instruction text of a rendered instruction line (what follows
    the address gutter and the ``|offset:`` slot)."""
    return line.split("|", 1)[1].split(": ", 1)[1]


#: The blank gutter between an instruction's address and its offset.
_GUTTER = " " * 24


class _Renderer:
    """Stateful renderer for one whole class pool.

    It emits lines, each library group's :class:`GroupColumns` and each
    group's relative token tuples, and nothing per method or per
    instruction.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.group_columns: list[GroupColumns] = []
        self.group_tokens: list[tuple[tuple[int, str, str], ...]] = []
        #: rendered instruction text -> its searchable tokens.  Identical
        #: texts always carry identical tokens, so a plain memo suffices.
        self._line_tokens: dict[str, tuple[tuple[str, str], ...]] = {}

    def _start_group(self) -> None:
        """Restart every position-dependent counter (a group boundary)
        and open the new group's layout columns and token list."""
        self._end_group()
        self._group = GroupColumns(len(self.lines))
        self._tokens: list[tuple[int, str, str]] = []
        self.group_columns.append(self._group)
        self._methods = _InternPool()
        self._fields = _InternPool()
        self._types = _InternPool()
        self._strings = _InternPool()
        self._addr = 0x10000
        self._ordinal = 0

    def _end_group(self) -> None:
        if self.group_columns:
            self.group_columns[-1].end_line = len(self.lines)
            self.group_tokens.append(tuple(self._tokens))

    # ------------------------------------------------------------------
    def _emit(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines) - 1

    def _token(self, kind: str, text: str) -> None:
        """Record a searchable token on the most recently emitted line."""
        self._tokens.append(
            (len(self.lines) - 1 - self._group.start_line, kind, text)
        )

    def _tokened(self, text: str, *pairs: tuple[str, str]) -> str:
        """Register the searchable tokens carried by an instruction text."""
        self._line_tokens.setdefault(text, pairs)
        return text

    def render_pool(self, pool: ClassPool) -> Disassembly:
        # Declare every deferred class (DexClass.defer) in one pass
        # first: building bodies class by class between rendered classes
        # made the whole render about 7% slower.
        for cls in pool.application_classes():
            cls.methods
        for line in PREAMBLE:
            self._emit(line)
        label = None
        for cls in sorted(pool.application_classes(), key=lambda c: c.name):
            cls_label = group_label(cls.name)
            if cls_label != label:
                self._start_group()
                label = cls_label
            self._group.class_names.append(cls.name)
            self._render_class(self._ordinal, cls)
            self._ordinal += 1
        self._end_group()
        return Disassembly(self.lines, self.group_columns, self.group_tokens)

    # ------------------------------------------------------------------
    def _render_class(self, index: int, cls: DexClass) -> None:
        descriptor = java_to_dex_type(cls.name)
        self._emit(f"Class #{index}            -")
        self._emit(f"  Class descriptor  : '{descriptor}'")
        self._token("header", f"'{descriptor}'")
        self._emit(f"  Access flags      : {cls.flags.dex_render()}")
        super_desc = java_to_dex_type(cls.super_name) if cls.super_name else "(none)"
        self._emit(f"  Superclass        : '{super_desc}'")
        if cls.super_name:
            self._token("header", f"'{super_desc}'")
        self._emit("  Interfaces        -")
        for i, iface in enumerate(cls.interfaces):
            iface_desc = java_to_dex_type(iface)
            self._emit(f"    #{i}              : '{iface_desc}'")
            self._token("header", f"'{iface_desc}'")
        self._render_fields(cls, descriptor)
        direct, virtual = [], []
        for method in cls.methods:
            is_direct = (
                method.is_static or method.is_private or method.is_constructor
                or method.is_static_initializer
            )
            (direct if is_direct else virtual).append(method)
        self._emit("  Direct methods    -")
        for i, method in enumerate(direct):
            self._render_method(i, cls, descriptor, method)
        self._emit("  Virtual methods   -")
        for i, method in enumerate(virtual):
            self._render_method(i, cls, descriptor, method)

    def _render_fields(self, cls: DexClass, owner: str) -> None:
        static_fields = [f for f in cls.fields if f.is_static]
        instance_fields = [f for f in cls.fields if not f.is_static]
        self._emit("  Static fields     -")
        for i, dex_field in enumerate(static_fields):
            self._render_field_header(i, owner, dex_field)
        self._emit("  Instance fields   -")
        for i, dex_field in enumerate(instance_fields):
            self._render_field_header(i, owner, dex_field)

    def _render_field_header(self, index: int, owner: str, dex_field) -> None:
        self._emit(f"    #{index}              : (in {owner})")
        self._token("type", owner)
        self._emit(f"      name          : '{dex_field.name}'")
        type_desc = java_to_dex_type(dex_field.field_type)
        self._emit(f"      type          : '{type_desc}'")
        self._token("header", f"'{type_desc}'")

    # ------------------------------------------------------------------
    def _render_method(
        self, index: int, cls: DexClass, descriptor: str, method: DexMethod
    ) -> None:
        group = self._group
        start = self._emit(f"    #{index}              : (in {descriptor})")
        self._token("type", descriptor)
        self._emit(f"      name          : '{method.name}'")
        params = "".join(java_to_dex_type(p) for p in method.param_types)
        proto = f"({params}){java_to_dex_type(method.return_type)}"
        self._emit(f"      type          : '{proto}'")
        self._token("header", f"'{proto}'")
        self._emit(f"      access        : {method.flags.dex_render()}")
        body = method.body
        insns = 0
        if body:
            self._emit(f"      insns size    : {max(1, len(body))} 16-bit code units")
            dotted = f"{cls.name}.{method.name}".replace("$", ".")
            self._emit(f"{self._addr:06x}:                                   |[{self._addr:06x}] "
                       f"{dotted}:{proto}")
            self._token("proto", proto)
            self._addr += 0x10
            insns = self._render_body(body)
        else:
            self._emit("      code          : (none)")
        group.block_starts.append(start - group.start_line)
        group.block_ends.append(len(self.lines) - group.start_line)
        group.insn_counts.append(insns)
        # The method's MethodSignature.to_dex(), from the strings this
        # method already built.
        group.signatures.append(
            f"{java_to_dex_type(method.declaring_class)}.{method.name}:{proto}"
        )

    def _render_body(self, body: list[Stmt]) -> int:
        """Render a method body's instruction lines; returns their count."""
        registers = _RegisterMap()
        lines = self.lines
        base = self._group.start_line
        stmt_indices = self._group.stmt_indices
        tokens = self._tokens
        line_tokens = self._line_tokens
        first = len(lines)
        addr = self._addr
        offset = 0
        for stmt_index, stmt in enumerate(body):
            for text in self._render_stmt(stmt, registers):
                for kind, token in line_tokens.get(text, ()):
                    tokens.append((len(lines) - base, kind, token))
                lines.append(f"{addr:06x}: {_GUTTER}|{offset:04x}: {text}")
                stmt_indices.append(stmt_index)
                addr += 6
                offset += 3
        self._addr = addr
        return len(lines) - first

    # ------------------------------------------------------------------
    def _render_stmt(self, stmt: Stmt, registers: "_RegisterMap") -> Iterable[str]:
        if isinstance(stmt, IdentityStmt):
            # Dex has no identity statements; parameter registers are
            # implicit.  Nothing is emitted, exactly as in real dexdump
            # output — the search never needs them.
            registers.reg(stmt.local)
            return []
        if isinstance(stmt, AssignStmt):
            return self._render_assign(stmt, registers)
        if isinstance(stmt, InvokeStmt):
            return [self._render_invoke(stmt.invoke, registers)]
        if isinstance(stmt, ReturnStmt):
            if stmt.value is None:
                return ["return-void"]
            if isinstance(stmt.value, Local):
                suffix = _move_suffix(stmt.value.java_type)
                return [f"return{suffix} {registers.reg(stmt.value)}"]
            return ["return-object v0"]
        if isinstance(stmt, IfStmt):
            cond = stmt.condition
            reg = (
                registers.reg(cond)
                if isinstance(cond, Local)
                else registers.any_reg()
            )
            return [f"if-nez {reg}, :{stmt.target}"]
        if isinstance(stmt, GotoStmt):
            return [f"goto/16 :{stmt.target}"]
        if isinstance(stmt, ThrowStmt):
            value = stmt.value
            reg = registers.reg(value) if isinstance(value, Local) else "v0"
            return [f"throw {reg}"]
        if isinstance(stmt, NopStmt):
            return [f"nop  // :{stmt.label}" if stmt.label else "nop"]
        return ["nop  // <unmodelled>"]

    def _render_assign(self, stmt: AssignStmt, registers: "_RegisterMap") -> list[str]:
        lhs, rhs = stmt.lhs, stmt.rhs
        # --- stores through references ---------------------------------
        if isinstance(lhs, InstanceFieldRef):
            src = self._value_reg(rhs, registers)
            return [
                self._tokened(
                    f"iput{_field_suffix(lhs.fieldsig.field_type)} {src}, "
                    f"{registers.reg(lhs.base)}, {lhs.fieldsig.to_dex()} "
                    f"{self._fields.render('field', lhs.fieldsig.to_dex())}",
                    ("fsig", lhs.fieldsig.to_dex()),
                )
            ]
        if isinstance(lhs, StaticFieldRef):
            src = self._value_reg(rhs, registers)
            return [
                self._tokened(
                    f"sput{_field_suffix(lhs.fieldsig.field_type)} {src}, "
                    f"{lhs.fieldsig.to_dex()} "
                    f"{self._fields.render('field', lhs.fieldsig.to_dex())}",
                    ("fsig", lhs.fieldsig.to_dex()),
                )
            ]
        if isinstance(lhs, ArrayRef):
            src = self._value_reg(rhs, registers)
            idx = self._value_reg(lhs.index, registers)
            return [f"aput-object {src}, {registers.reg(lhs.base)}, {idx}"]

        # --- loads into a local -----------------------------------------
        assert isinstance(lhs, Local)
        dst = registers.reg(lhs)
        if isinstance(rhs, NewExpr):
            descriptor = java_to_dex_type(rhs.class_name)
            return [
                self._tokened(
                    f"new-instance {dst}, {descriptor} "
                    f"{self._types.render('type', descriptor)}",
                    ("type", descriptor),
                )
            ]
        if isinstance(rhs, StringConstant):
            return [
                self._tokened(
                    f'const-string {dst}, "{rhs.value}" '
                    f"{self._strings.render('string', rhs.value)}",
                    ("string", f'"{rhs.value}"'),
                )
            ]
        if isinstance(rhs, IntConstant):
            return [f"const/16 {dst}, #int {rhs.value} // #{rhs.value:x}"]
        if isinstance(rhs, LongConstant):
            return [f"const-wide/32 {dst}, #long {rhs.value}"]
        if isinstance(rhs, DoubleConstant):
            return [f"const-wide/high16 {dst}, #double {rhs.value}"]
        if isinstance(rhs, NullConstant):
            return [f"const/4 {dst}, #int 0 // #0"]
        if isinstance(rhs, ClassConstant):
            descriptor = java_to_dex_type(rhs.class_name)
            return [
                self._tokened(
                    f"const-class {dst}, {descriptor} "
                    f"{self._types.render('type', descriptor)}",
                    ("type", descriptor),
                )
            ]
        if isinstance(rhs, InstanceFieldRef):
            return [
                self._tokened(
                    f"iget{_field_suffix(rhs.fieldsig.field_type)} {dst}, "
                    f"{registers.reg(rhs.base)}, {rhs.fieldsig.to_dex()} "
                    f"{self._fields.render('field', rhs.fieldsig.to_dex())}",
                    ("fsig", rhs.fieldsig.to_dex()),
                )
            ]
        if isinstance(rhs, StaticFieldRef):
            return [
                self._tokened(
                    f"sget{_field_suffix(rhs.fieldsig.field_type)} {dst}, "
                    f"{rhs.fieldsig.to_dex()} "
                    f"{self._fields.render('field', rhs.fieldsig.to_dex())}",
                    ("fsig", rhs.fieldsig.to_dex()),
                )
            ]
        if isinstance(rhs, ArrayRef):
            idx = self._value_reg(rhs.index, registers)
            return [f"aget-object {dst}, {registers.reg(rhs.base)}, {idx}"]
        if isinstance(rhs, InvokeExpr):
            move = "move-result-object" if _is_reference(rhs.method.return_type) else "move-result"
            return [self._render_invoke(rhs, registers), f"{move} {dst}"]
        if isinstance(rhs, BinopExpr):
            opcode = _BINOP_OPCODES.get(rhs.op, "binop")
            left = self._value_reg(rhs.left, registers)
            right = self._value_reg(rhs.right, registers)
            return [f"{opcode} {dst}, {left}, {right}"]
        if isinstance(rhs, CastExpr):
            descriptor = java_to_dex_type(rhs.to_type)
            src = self._value_reg(rhs.value, registers)
            return [
                f"move-object {dst}, {src}",
                self._tokened(
                    f"check-cast {dst}, {descriptor} "
                    f"{self._types.render('type', descriptor)}",
                    ("type", descriptor),
                ),
            ]
        if isinstance(rhs, NewArrayExpr):
            size = self._value_reg(rhs.size, registers)
            descriptor = java_to_dex_type(rhs.element_type + "[]")
            return [
                self._tokened(
                    f"new-array {dst}, {size}, {descriptor} "
                    f"{self._types.render('type', descriptor)}",
                    ("type", descriptor),
                )
            ]
        if isinstance(rhs, PhiExpr):
            # Phi nodes are an SSA artefact with no dex encoding; render the
            # merge as moves so the text stays plausible.
            sources = [self._value_reg(v, registers) for v in rhs.values]
            return [f"move-object {dst}, {src}" for src in sources[:1]]
        if isinstance(rhs, Local):
            suffix = _move_suffix(rhs.java_type)
            return [f"move{suffix} {dst}, {registers.reg(rhs)}"]
        return ["nop  // <unmodelled-assign>"]

    def _render_invoke(self, expr: InvokeExpr, registers: "_RegisterMap") -> str:
        regs: list[str] = []
        if expr.base is not None:
            regs.append(registers.reg(expr.base))
        for arg in expr.args:
            regs.append(self._value_reg(arg, registers))
        dex_sig = expr.method.to_dex()
        return self._tokened(
            f"{expr.kind.dex_opcode} {{{', '.join(regs)}}}, {dex_sig} "
            f"{self._methods.render('method', dex_sig)}",
            ("msig", dex_sig),
        )

    def _value_reg(self, value, registers: "_RegisterMap") -> str:
        """Materialise a value operand as a register name.

        Constants folded into invoke operands get a synthetic register; the
        searches only care about the signature part of the line.
        """
        if isinstance(value, Local):
            return registers.reg(value)
        return registers.scratch()


class _RegisterMap:
    """Assigns ``vN`` register names to locals, per method."""

    def __init__(self) -> None:
        self._map: dict[str, str] = {}
        self._next = 0

    def reg(self, local: Local) -> str:
        if local.name not in self._map:
            self._map[local.name] = f"v{self._next}"
            self._next += 1
        return self._map[local.name]

    def scratch(self) -> str:
        name = f"v{self._next}"
        self._next += 1
        return name

    def any_reg(self) -> str:
        return next(iter(self._map.values()), "v0")


def _is_reference(java_type: str) -> bool:
    return java_type.endswith("[]") or "." in java_type or java_type in {
        "java", "Object"
    }


def _field_suffix(java_type: str) -> str:
    if _is_reference(java_type):
        return "-object"
    if java_type in ("long", "double"):
        return "-wide"
    if java_type == "boolean":
        return "-boolean"
    return ""


def _move_suffix(java_type: str) -> str:
    if _is_reference(java_type):
        return "-object"
    if java_type in ("long", "double"):
        return "-wide"
    return ""


def disassemble(pool: ClassPool) -> Disassembly:
    """Disassemble a (merged) class pool into dexdump-style plaintext.

    Multidex apps should merge their pools first (``ClassPool.merge``);
    this mirrors BackDroid's preprocessing step, which merges multidex
    bytecode before dumping.
    """
    return _Renderer().render_pool(pool)
