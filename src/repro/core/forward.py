"""Forward constant and points-to propagation over the SSG (Sec. V-B).

"After producing a complete SSG, our forward analysis iterates through
each SSG node, analyzes each statement's semantic, and propagates
dataflow facts through the constant and points-to propagation during the
graph traversal."

Traversal order follows the paper: the **static-field tracks first** (so
fields referred to by the normal track resolve), then the normal track.
Because SSG nodes can join across methods (multiple callers, phi nodes),
the propagation runs as a bounded fixpoint over the recorded units rather
than a single topological sweep; facts only merge (monotone up to the
bounded merge width), so the loop stabilises quickly on the small graphs
targeted slicing produces.

Fact maps, as in the paper: one per-flow map for locals (keyed by
``(method, local)``), one **global fact map for static fields**, plus the
return-value map that stitches contained methods to their call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.apk import Apk
from repro.core.api_models import ApiCall, framework_constant, lookup_model
from repro.core.ssg import SSG, SSGUnit
from repro.core.values import (
    ArrayObjFact,
    ConstFact,
    ExprFact,
    Fact,
    NewObjFact,
    UnknownFact,
    merge_facts,
)
from repro.dex.instructions import (
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    ClassConstant,
    Constant,
    DoubleConstant,
    IdentityStmt,
    InstanceFieldRef,
    IntConstant,
    InvokeExpr,
    Local,
    LongConstant,
    NewArrayExpr,
    NewExpr,
    NullConstant,
    ParameterRef,
    PhiExpr,
    ReturnStmt,
    StaticFieldRef,
    StringConstant,
    ThisRef,
    Value,
)
from repro.dex.types import FieldSignature, MethodSignature

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
    "%": lambda a, b: a % b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class ForwardPropagation:
    """Runs the forward analysis over one SSG."""

    apk: Apk
    ssg: SSG
    max_passes: int = 12

    def __post_init__(self) -> None:
        self.pool = self.apk.full_pool
        self._locals: dict[tuple[MethodSignature, str], Fact] = {}
        self._fields: dict[FieldSignature, Fact] = {}
        self._returns: dict[MethodSignature, Fact] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> dict[int, Fact]:
        """Propagate facts; return {tracked param index: fact} at the sink."""
        # Static tracks first (Sec. V-B: "Our traversal always starts
        # with the static field track").
        static_units: list[SSGUnit] = []
        for track in self.ssg.static_tracks.values():
            static_units.extend(track)
        normal_units = sorted(
            (u for u in self.ssg.units() if u not in set(static_units)),
            key=lambda u: (str(u.method), u.stmt_index),
        )
        for _ in range(2):
            for unit in static_units:
                self._eval_unit(unit)
        for _ in range(self.max_passes):
            before = (dict(self._locals), dict(self._fields), dict(self._returns))
            for unit in normal_units:
                self._eval_unit(unit)
            after = (self._locals, self._fields, self._returns)
            if before == (dict(after[0]), dict(after[1]), dict(after[2])):
                break
        return self.sink_param_facts()

    def sink_param_facts(self) -> dict[int, Fact]:
        """The facts of the sink's tracked parameters."""
        sink_unit = self.ssg.sink_unit()
        if sink_unit is None:
            return {}
        expr = sink_unit.stmt.invoke_expr()
        if expr is None:
            return {}
        facts: dict[int, Fact] = {}
        for index in self.ssg.spec.tracked_params:
            if index < len(expr.args):
                facts[index] = self._value_fact(sink_unit.method, expr.args[index])
            else:
                facts[index] = UnknownFact("argument missing")
        return facts

    # ------------------------------------------------------------------
    # Fact lookup
    # ------------------------------------------------------------------
    def _value_fact(self, method: MethodSignature, value: Value) -> Fact:
        if isinstance(value, Local):
            return self._locals.get((method, value.name), UnknownFact(f"local {value.name}"))
        if isinstance(value, StringConstant):
            return ConstFact(value.value)
        if isinstance(value, (IntConstant, LongConstant)):
            return ConstFact(value.value)
        if isinstance(value, DoubleConstant):
            return ConstFact(value.value)
        if isinstance(value, NullConstant):
            return ConstFact(None)
        if isinstance(value, ClassConstant):
            return ConstFact(f"class {value.class_name}")
        if isinstance(value, CastExpr):
            return self._value_fact(method, value.value)
        if isinstance(value, PhiExpr):
            return merge_facts(self._value_fact(method, v) for v in value.values)
        if isinstance(value, StaticFieldRef):
            return self._field_read(value.fieldsig)
        if isinstance(value, InstanceFieldRef):
            return self._instance_field_read(method, value)
        if isinstance(value, ArrayRef):
            return self._array_read(method, value)
        if isinstance(value, BinopExpr):
            return self._binop_fact(method, value)
        if isinstance(value, NewExpr):
            return NewObjFact.make(value.class_name)
        if isinstance(value, NewArrayExpr):
            return ArrayObjFact.make(value.element_type)
        if isinstance(value, InvokeExpr):
            return self._invoke_fact(method, value, update_base=False)
        return UnknownFact(type(value).__name__)

    def _field_read(self, fieldsig: FieldSignature) -> Fact:
        known = framework_constant(fieldsig)
        if known is not None:
            return known
        return self._fields.get(fieldsig, UnknownFact(f"field {fieldsig.to_soot()}"))

    def _instance_field_read(self, method: MethodSignature, ref: InstanceFieldRef) -> Fact:
        base_fact = self._locals.get((method, ref.base.name))
        if isinstance(base_fact, NewObjFact):
            member = base_fact.member(ref.fieldsig.name)
            if member is not None:
                return member
        return self._field_read(ref.fieldsig)

    def _array_read(self, method: MethodSignature, ref: ArrayRef) -> Fact:
        base_fact = self._locals.get((method, ref.base.name))
        index_fact = self._value_fact(method, ref.index)
        if isinstance(base_fact, ArrayObjFact):
            indices = [v for v in index_fact.possible_consts() if isinstance(v, int)]
            if len(indices) == 1:
                element = base_fact.element(indices[0])
                if element is not None:
                    return element
        return UnknownFact("array element")

    def _binop_fact(self, method: MethodSignature, expr: BinopExpr) -> Fact:
        """Mimic arithmetic operations over resolved operands."""
        operation = _ARITHMETIC.get(expr.op)
        if operation is None:
            return ExprFact(str(expr))
        left = self._value_fact(method, expr.left)
        right = self._value_fact(method, expr.right)
        results: list[Fact] = []
        for lv in left.possible_consts():
            for rv in right.possible_consts():
                if isinstance(lv, (int, float)) and isinstance(rv, (int, float)):
                    try:
                        results.append(ConstFact(operation(lv, rv)))
                    except (ZeroDivisionError, TypeError, ValueError):
                        results.append(UnknownFact("arithmetic fault"))
        if not results:
            return ExprFact(str(expr))
        return merge_facts(results)

    # ------------------------------------------------------------------
    # Unit evaluation
    # ------------------------------------------------------------------
    def _eval_unit(self, unit: SSGUnit) -> None:
        stmt = unit.stmt
        method = unit.method
        if isinstance(stmt, IdentityStmt):
            self._eval_identity(unit)
        elif isinstance(stmt, AssignStmt):
            self._eval_assign(unit)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                fact = self._value_fact(method, stmt.value)
                previous = self._returns.get(method)
                self._returns[method] = (
                    fact if previous is None else merge_facts([previous, fact])
                )
        else:
            expr = stmt.invoke_expr()
            if expr is not None:
                self._invoke_fact(method, expr, update_base=True)

    def _eval_identity(self, unit: SSGUnit) -> None:
        """Bind parameters/receivers from the recorded call bindings."""
        stmt = unit.stmt
        assert isinstance(stmt, IdentityStmt)
        incoming: list[Fact] = []
        for binding in self.ssg.bindings_into(unit.method):
            caller_method = self.pool.resolve_method(binding.caller)
            if caller_method is None or binding.site_index >= len(caller_method.body):
                continue
            site_expr = caller_method.body[binding.site_index].invoke_expr()
            if isinstance(stmt.ref, ParameterRef) and binding.kind == "param":
                if site_expr is not None and stmt.ref.index < len(site_expr.args):
                    incoming.append(
                        self._value_fact(binding.caller, site_expr.args[stmt.ref.index])
                    )
            elif isinstance(stmt.ref, ParameterRef) and binding.kind == "icc":
                # ICC sites do not match parameters positionally: the
                # handler's Intent parameter binds to the ICC call's
                # Intent argument (by declared type).
                if (
                    stmt.ref.java_type == "android.content.Intent"
                    and site_expr is not None
                ):
                    for arg in site_expr.args:
                        if (
                            isinstance(arg, Local)
                            and arg.java_type == "android.content.Intent"
                        ):
                            incoming.append(
                                self._value_fact(binding.caller, arg)
                            )
            elif isinstance(stmt.ref, ThisRef):
                if binding.kind == "this" and site_expr is not None and site_expr.base:
                    incoming.append(
                        self._locals.get(
                            (binding.caller, site_expr.base.name),
                            UnknownFact("receiver"),
                        )
                    )
                elif binding.kind == "constructor":
                    allocation = caller_method.body[binding.site_index]
                    if isinstance(allocation, AssignStmt) and isinstance(
                        allocation.lhs, Local
                    ):
                        incoming.append(
                            self._locals.get(
                                (binding.caller, allocation.lhs.name),
                                UnknownFact("constructed object"),
                            )
                        )
                elif binding.kind == "param" and site_expr is not None and site_expr.base:
                    # constructor-descend bindings: the ctor's @this is
                    # the site's base object.
                    incoming.append(
                        self._locals.get(
                            (binding.caller, site_expr.base.name),
                            UnknownFact("receiver"),
                        )
                    )
        if incoming:
            self._locals[(unit.method, stmt.local.name)] = merge_facts(incoming)

    def _eval_assign(self, unit: SSGUnit) -> None:
        stmt = unit.stmt
        assert isinstance(stmt, AssignStmt)
        method = unit.method
        if isinstance(stmt.rhs, InvokeExpr):
            fact = self._invoke_fact(method, stmt.rhs, update_base=True)
        else:
            fact = self._value_fact(method, stmt.rhs)
        lhs = stmt.lhs
        if isinstance(lhs, Local):
            self._locals[(method, lhs.name)] = fact
        elif isinstance(lhs, StaticFieldRef):
            self._store_field(lhs.fieldsig, fact)
        elif isinstance(lhs, InstanceFieldRef):
            base_key = (method, lhs.base.name)
            base_fact = self._locals.get(base_key)
            if isinstance(base_fact, NewObjFact):
                self._locals[base_key] = base_fact.with_member(lhs.fieldsig.name, fact)
            self._store_field(lhs.fieldsig, fact)
        elif isinstance(lhs, ArrayRef):
            base_key = (method, lhs.base.name)
            base_fact = self._locals.get(base_key)
            index_fact = self._value_fact(method, lhs.index)
            indices = [v for v in index_fact.possible_consts() if isinstance(v, int)]
            if isinstance(base_fact, ArrayObjFact) and len(indices) == 1:
                self._locals[base_key] = base_fact.with_element(indices[0], fact)

    def _store_field(self, fieldsig: FieldSignature, fact: Fact) -> None:
        previous = self._fields.get(fieldsig)
        self._fields[fieldsig] = (
            fact if previous is None else merge_facts([previous, fact])
        )

    # ------------------------------------------------------------------
    # Invocations: API models, NewObj capture, contained-method returns
    # ------------------------------------------------------------------
    def _invoke_fact(
        self, method: MethodSignature, expr: InvokeExpr, update_base: bool
    ) -> Fact:
        base_key = (method, expr.base.name) if expr.base is not None else None
        base_fact = self._locals.get(base_key) if base_key else None
        arg_facts = [self._value_fact(method, arg) for arg in expr.args]

        model = lookup_model(expr.method)
        if model is not None:
            outcome = model(
                ApiCall(method=expr.method, base_fact=base_fact, arg_facts=arg_facts)
            )
            if update_base and outcome.base_update is not None and base_key:
                self._locals[base_key] = outcome.base_update
            return outcome.result if outcome.result is not None else UnknownFact("void API")

        if expr.method.is_constructor and base_key is not None:
            # Generic NewObj member capture: constructor arguments become
            # arg0..argN members of the points-to object.
            target = NewObjFact.make(expr.method.class_name)
            if isinstance(base_fact, NewObjFact):
                target = base_fact
            for position, fact in enumerate(arg_facts):
                target = target.with_member(f"arg{position}", fact)
            if update_base:
                self._locals[base_key] = target
            return target

        recorded = {
            binding.callee
            for binding in self.ssg.bindings
            if binding.caller == method and binding.kind == "return"
        }
        resolved = self.pool.resolve_method(expr.method)
        if resolved is not None and resolved.signature() in recorded:
            returned = self._returns.get(resolved.signature())
            if returned is not None:
                return returned
        return UnknownFact(f"call {expr.method.to_soot()}")
