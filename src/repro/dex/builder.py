"""A fluent DSL for authoring DEX classes and method bodies.

Tests and the synthetic workload generator use this builder to express app
code compactly.  Example — the paper's Fig. 3 caller::

    app = AppBuilder()
    server = app.new_class("com.connectsdk.service.netcast.NetcastHttpServer")
    start = server.method("start")
    start.this()
    start.return_void()

    runner = app.new_class(
        "com.connectsdk.service.NetcastTVService$1",
        interfaces=["java.lang.Runnable"],
    )
    run = runner.method("run")
    this = run.this()
    srv = run.new_init("com.connectsdk.service.netcast.NetcastHttpServer")
    run.invoke_virtual(srv, server.name, "start")
    run.return_void()

    pool = app.build()
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.dex.hierarchy import AccessFlags, ClassPool, DexClass, DexField, DexMethod
from repro.dex.instructions import (
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    ClassConstant,
    Constant,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InstanceFieldRef,
    IntConstant,
    InvokeExpr,
    InvokeKind,
    InvokeStmt,
    Local,
    NewArrayExpr,
    NewExpr,
    NopStmt,
    NullConstant,
    ParameterRef,
    PhiExpr,
    ReturnStmt,
    StaticFieldRef,
    Stmt,
    StringConstant,
    ThisRef,
    Value,
)
from repro.dex.types import FieldSignature, MethodSignature

ValueLike = Union[Value, str, int, None]


def _as_value(value: ValueLike) -> Value:
    """Lift Python literals into IR constants for builder convenience."""
    if isinstance(value, Value):
        return value
    if value is None:
        return NullConstant()
    if isinstance(value, bool):
        return IntConstant(int(value))
    if isinstance(value, int):
        return IntConstant(value)
    if isinstance(value, str):
        return StringConstant(value)
    raise TypeError(f"cannot lift {value!r} into an IR value")


class MethodBuilder:
    """Builds one method's body, handing out fresh SSA locals."""

    def __init__(self, method: DexMethod) -> None:
        self.declaring_class = method.declaring_class
        self.param_types = method.param_types
        self.body = method.body
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def fresh(self, java_type: str = "java.lang.Object", prefix: str = "$r") -> Local:
        """Allocate a fresh local of the given type."""
        return Local(f"{prefix}{next(self._counter)}", java_type)

    def emit(self, stmt: Stmt) -> None:
        self.body.append(stmt)

    # ------------------------------------------------------------------
    # Identity statements
    # ------------------------------------------------------------------
    def this(self) -> Local:
        """``r0 := @this`` — bind and return the receiver local."""
        local = self.fresh(self.declaring_class, prefix="r")
        self.emit(IdentityStmt(local=local, ref=ThisRef(self.declaring_class)))
        return local

    def param(self, index: int) -> Local:
        """``rN := @parameterN`` — bind and return a formal parameter."""
        java_type = self.param_types[index]
        local = self.fresh(java_type, prefix="r")
        self.emit(IdentityStmt(local=local, ref=ParameterRef(index, java_type)))
        return local

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    def const_string(self, value: str) -> Local:
        local = self.fresh("java.lang.String")
        self.emit(AssignStmt(lhs=local, rhs=StringConstant(value)))
        return local

    def const_int(self, value: int) -> Local:
        local = self.fresh("int", prefix="$i")
        self.emit(AssignStmt(lhs=local, rhs=IntConstant(value)))
        return local

    def const_null(self, java_type: str = "java.lang.Object") -> Local:
        local = self.fresh(java_type)
        self.emit(AssignStmt(lhs=local, rhs=NullConstant()))
        return local

    def const_class(self, class_name: str) -> Local:
        local = self.fresh("java.lang.Class")
        self.emit(AssignStmt(lhs=local, rhs=ClassConstant(class_name)))
        return local

    # ------------------------------------------------------------------
    # Allocation and construction
    # ------------------------------------------------------------------
    def new(self, class_name: str) -> Local:
        """``$rN = new C`` (constructor must be invoked separately)."""
        local = self.fresh(class_name)
        self.emit(AssignStmt(lhs=local, rhs=NewExpr(class_name)))
        return local

    def new_init(
        self,
        class_name: str,
        args: Sequence[ValueLike] = (),
        ctor_params: Optional[Sequence[str]] = None,
    ) -> Local:
        """``new C`` followed by ``specialinvoke $r.<C: void <init>(...)>``."""
        local = self.new(class_name)
        lifted = [_as_value(a) for a in args]
        if ctor_params is None:
            ctor_params = [
                getattr(a, "java_type", "java.lang.Object")
                if isinstance(a, Local)
                else _default_param_type(a)
                for a in lifted
            ]
        ctor = MethodSignature(class_name, "<init>", tuple(ctor_params), "void")
        self.emit(
            InvokeStmt(
                invoke=InvokeExpr(InvokeKind.SPECIAL, ctor, base=local, args=tuple(lifted))
            )
        )
        return local

    def new_array(self, element_type: str, size: ValueLike) -> Local:
        local = self.fresh(f"{element_type}[]")
        self.emit(AssignStmt(lhs=local, rhs=NewArrayExpr(element_type, _as_value(size))))
        return local

    # ------------------------------------------------------------------
    # Invocations
    # ------------------------------------------------------------------
    def _invoke(
        self,
        kind: InvokeKind,
        base: Optional[Local],
        method: Union[MethodSignature, str],
        name: Optional[str],
        args: Sequence[ValueLike],
        params: Optional[Sequence[str]],
        returns: Optional[str],
    ) -> Optional[Local]:
        lifted = tuple(_as_value(a) for a in args)
        if isinstance(method, MethodSignature):
            sig = method
        else:
            if params is None:
                params = [
                    getattr(a, "java_type", "java.lang.Object")
                    if isinstance(a, Local)
                    else _default_param_type(a)
                    for a in lifted
                ]
            sig = MethodSignature(method, name or "", tuple(params), returns or "void")
        expr = InvokeExpr(kind, sig, base=base, args=lifted)
        if sig.return_type != "void":
            result = self.fresh(sig.return_type)
            self.emit(AssignStmt(lhs=result, rhs=expr))
            return result
        self.emit(InvokeStmt(invoke=expr))
        return None

    def invoke_virtual(
        self,
        base: Local,
        class_name: Union[MethodSignature, str],
        name: Optional[str] = None,
        args: Sequence[ValueLike] = (),
        params: Optional[Sequence[str]] = None,
        returns: str = "void",
    ) -> Optional[Local]:
        return self._invoke(InvokeKind.VIRTUAL, base, class_name, name, args, params, returns)

    def invoke_interface(
        self,
        base: Local,
        class_name: Union[MethodSignature, str],
        name: Optional[str] = None,
        args: Sequence[ValueLike] = (),
        params: Optional[Sequence[str]] = None,
        returns: str = "void",
    ) -> Optional[Local]:
        return self._invoke(InvokeKind.INTERFACE, base, class_name, name, args, params, returns)

    def invoke_special(
        self,
        base: Local,
        class_name: Union[MethodSignature, str],
        name: Optional[str] = None,
        args: Sequence[ValueLike] = (),
        params: Optional[Sequence[str]] = None,
        returns: str = "void",
    ) -> Optional[Local]:
        return self._invoke(InvokeKind.SPECIAL, base, class_name, name, args, params, returns)

    def invoke_static(
        self,
        class_name: Union[MethodSignature, str],
        name: Optional[str] = None,
        args: Sequence[ValueLike] = (),
        params: Optional[Sequence[str]] = None,
        returns: str = "void",
    ) -> Optional[Local]:
        return self._invoke(InvokeKind.STATIC, None, class_name, name, args, params, returns)

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------
    def get_field(self, base: Local, class_name: str, name: str, field_type: str) -> Local:
        local = self.fresh(field_type)
        ref = InstanceFieldRef(base, FieldSignature(class_name, name, field_type))
        self.emit(AssignStmt(lhs=local, rhs=ref))
        return local

    def put_field(
        self, base: Local, class_name: str, name: str, field_type: str, value: ValueLike
    ) -> None:
        ref = InstanceFieldRef(base, FieldSignature(class_name, name, field_type))
        self.emit(AssignStmt(lhs=ref, rhs=_as_value(value)))

    def get_static(self, class_name: str, name: str, field_type: str) -> Local:
        local = self.fresh(field_type)
        ref = StaticFieldRef(FieldSignature(class_name, name, field_type))
        self.emit(AssignStmt(lhs=local, rhs=ref))
        return local

    def put_static(self, class_name: str, name: str, field_type: str, value: ValueLike) -> None:
        ref = StaticFieldRef(FieldSignature(class_name, name, field_type))
        self.emit(AssignStmt(lhs=ref, rhs=_as_value(value)))

    # ------------------------------------------------------------------
    # Arrays
    # ------------------------------------------------------------------
    def array_get(self, base: Local, index: ValueLike, element_type: str = "java.lang.Object") -> Local:
        local = self.fresh(element_type)
        self.emit(AssignStmt(lhs=local, rhs=ArrayRef(base, _as_value(index))))
        return local

    def array_put(self, base: Local, index: ValueLike, value: ValueLike) -> None:
        self.emit(AssignStmt(lhs=ArrayRef(base, _as_value(index)), rhs=_as_value(value)))

    # ------------------------------------------------------------------
    # Dataflow / control flow
    # ------------------------------------------------------------------
    def assign(self, target_type: str, value: ValueLike) -> Local:
        local = self.fresh(target_type)
        self.emit(AssignStmt(lhs=local, rhs=_as_value(value)))
        return local

    def move(self, source: Local) -> Local:
        """``$rN = source`` — a plain local-to-local copy."""
        local = self.fresh(source.java_type)
        self.emit(AssignStmt(lhs=local, rhs=source))
        return local

    def binop(self, op: str, left: ValueLike, right: ValueLike, result_type: str = "int") -> Local:
        local = self.fresh(result_type, prefix="$i" if result_type == "int" else "$r")
        self.emit(AssignStmt(lhs=local, rhs=BinopExpr(op, _as_value(left), _as_value(right))))
        return local

    def cast(self, to_type: str, value: ValueLike) -> Local:
        local = self.fresh(to_type)
        self.emit(AssignStmt(lhs=local, rhs=CastExpr(to_type, _as_value(value))))
        return local

    def phi(self, values: Sequence[ValueLike], result_type: str = "java.lang.Object") -> Local:
        local = self.fresh(result_type)
        self.emit(AssignStmt(lhs=local, rhs=PhiExpr(tuple(_as_value(v) for v in values))))
        return local

    def if_goto(self, condition: ValueLike, target: str) -> None:
        self.emit(IfStmt(condition=_as_value(condition), target=target))

    def goto(self, target: str) -> None:
        self.emit(GotoStmt(target=target))

    def label(self, name: str) -> None:
        self.emit(NopStmt(label=name))

    def return_void(self) -> None:
        self.emit(ReturnStmt())

    def return_value(self, value: ValueLike) -> None:
        self.emit(ReturnStmt(value=_as_value(value)))

    def object_init(self) -> None:
        """The whole body of an empty constructor: bind ``this``, call
        ``Object.<init>`` on it, return."""
        this = self.this()
        self.invoke_special(this, MethodSignature("java.lang.Object", "<init>", (), "void"))
        self.return_void()


def _default_param_type(value: Value) -> str:
    if isinstance(value, StringConstant):
        return "java.lang.String"
    if isinstance(value, IntConstant):
        return "int"
    if isinstance(value, ClassConstant):
        return "java.lang.Class"
    if isinstance(value, NullConstant):
        return "java.lang.Object"
    return "java.lang.Object"


class ClassBuilder:
    """Builds one class: fields, methods, hierarchy links."""

    def __init__(
        self,
        name: str,
        super_name: str = "java.lang.Object",
        interfaces: Iterable[str] = (),
        flags: AccessFlags = AccessFlags.PUBLIC,
        is_framework: bool = False,
    ) -> None:
        self.dex_class = DexClass(
            name=name,
            super_name=super_name,
            interfaces=tuple(interfaces),
            flags=flags,
            is_framework=is_framework,
        )

    @property
    def name(self) -> str:
        return self.dex_class.name

    def field(
        self,
        name: str,
        field_type: str,
        static: bool = False,
        flags: AccessFlags = AccessFlags.PUBLIC,
    ) -> DexField:
        if static:
            flags |= AccessFlags.STATIC
        return self.dex_class.add_field(DexField(name=name, field_type=field_type, flags=flags))

    def method(
        self,
        name: str,
        params: Sequence[str] = (),
        returns: str = "void",
        flags: AccessFlags = AccessFlags.PUBLIC,
        static: bool = False,
        private: bool = False,
        abstract: bool = False,
    ) -> MethodBuilder:
        if static:
            flags |= AccessFlags.STATIC
        if private:
            flags = (flags & ~AccessFlags.PUBLIC) | AccessFlags.PRIVATE
        if abstract:
            flags |= AccessFlags.ABSTRACT
        if name == "<init>":
            flags |= AccessFlags.CONSTRUCTOR
        if name == "<clinit>":
            flags |= AccessFlags.STATIC | AccessFlags.CONSTRUCTOR
        method = self.dex_class.add_method(
            DexMethod(name=name, param_types=tuple(params), return_type=returns, flags=flags)
        )
        return MethodBuilder(method)

    def constructor(
        self, params: Sequence[str] = (), flags: AccessFlags = AccessFlags.PUBLIC
    ) -> MethodBuilder:
        return self.method("<init>", params=params, flags=flags)

    def default_constructor(self) -> MethodBuilder:
        """An empty ``<init>()`` calling ``Object.<init>`` and returning."""
        ctor = self.constructor()
        ctor.object_init()
        return ctor

    def static_initializer(self) -> MethodBuilder:
        return self.method("<clinit>")

    def defer(self, build: Callable[["ClassBuilder"], None], method_count: int) -> None:
        """Declare the class's methods on the first read of its
        ``methods``, not now.

        ``build`` gets a fresh builder of the same class and declares
        every method there, bodies included, as it would have eagerly;
        it must declare exactly ``method_count`` methods and no field.
        It runs at most once, and may run on any thread, long after
        this call: it must use only data captured now (never this
        class or a shared random generator), so an app nobody reads
        stays free of reference cycles and declares the same methods
        whenever it is read.
        """
        cls = self.dex_class
        name, super_name, interfaces, flags = (
            cls.name, cls.super_name, cls.interfaces, cls.flags
        )

        def declare() -> list[DexMethod]:
            builder = ClassBuilder(name, super_name, interfaces, flags)
            build(builder)
            if builder.dex_class.fields:
                raise ValueError(f"deferred class {name} declared a field")
            return builder.dex_class.methods

        cls.defer(declare, method_count)

    def build(self) -> DexClass:
        return self.dex_class


class AppBuilder:
    """Builds a full application :class:`ClassPool`."""

    def __init__(self) -> None:
        self._builders: list[ClassBuilder] = []

    def new_class(
        self,
        name: str,
        superclass: str = "java.lang.Object",
        interfaces: Iterable[str] = (),
        flags: AccessFlags = AccessFlags.PUBLIC,
    ) -> ClassBuilder:
        builder = ClassBuilder(name, super_name=superclass, interfaces=interfaces, flags=flags)
        self._builders.append(builder)
        return builder

    def new_interface(self, name: str, interfaces: Iterable[str] = ()) -> ClassBuilder:
        builder = ClassBuilder(
            name,
            super_name="java.lang.Object",
            interfaces=interfaces,
            flags=AccessFlags.PUBLIC | AccessFlags.INTERFACE | AccessFlags.ABSTRACT,
        )
        self._builders.append(builder)
        return builder

    def build(self) -> ClassPool:
        return ClassPool(builder.build() for builder in self._builders)
