"""Classes, methods, fields and class-hierarchy queries.

This is the in-memory model of an app's DEX classes, playing the role of
Soot's ``Scene``: it answers the hierarchy questions the searches need —
sub/super classes, interface implementers, whether a method is overridden
in a child class (Sec. IV-A), and which interface declares a given
sub-signature (Sec. IV-B).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from repro.dex.instructions import Stmt, referenced_classes
from repro.dex.types import FieldSignature, MethodSignature

JAVA_LANG_OBJECT = "java.lang.Object"


class AccessFlags(enum.Flag):
    """The subset of DEX access flags the analyses care about."""

    PUBLIC = enum.auto()
    PRIVATE = enum.auto()
    PROTECTED = enum.auto()
    STATIC = enum.auto()
    FINAL = enum.auto()
    INTERFACE = enum.auto()
    ABSTRACT = enum.auto()
    CONSTRUCTOR = enum.auto()
    SYNTHETIC = enum.auto()

    def dex_render(self) -> str:
        """Render like dexdump: ``0x0001 (PUBLIC STATIC)``."""
        return _dex_render_cached(self.value)


@lru_cache(maxsize=None)
def _dex_render_cached(value: int) -> str:
    flags = AccessFlags(value)
    names = [flag.name for flag in AccessFlags if flag in flags and flag.name]
    rendered = sum(1 << i for i, flag in enumerate(AccessFlags) if flag in flags)
    return f"0x{rendered:04x} ({' '.join(names)})"


@dataclass
class DexField:
    """A field declaration inside a class."""

    name: str
    field_type: str
    flags: AccessFlags = AccessFlags.PUBLIC
    declaring_class: str = ""

    @property
    def is_static(self) -> bool:
        return bool(self.flags & AccessFlags.STATIC)

    def signature(self) -> FieldSignature:
        return FieldSignature(self.declaring_class, self.name, self.field_type)


@dataclass
class DexMethod:
    """A method declaration plus its IR body."""

    name: str
    param_types: tuple[str, ...] = ()
    return_type: str = "void"
    flags: AccessFlags = AccessFlags.PUBLIC
    declaring_class: str = ""
    body: list[Stmt] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.param_types = tuple(self.param_types)

    # ------------------------------------------------------------------
    @property
    def is_static(self) -> bool:
        return bool(self.flags & AccessFlags.STATIC)

    @property
    def is_private(self) -> bool:
        return bool(self.flags & AccessFlags.PRIVATE)

    @property
    def is_constructor(self) -> bool:
        return self.name == "<init>"

    @property
    def is_static_initializer(self) -> bool:
        return self.name == "<clinit>"

    @property
    def is_abstract(self) -> bool:
        return bool(self.flags & AccessFlags.ABSTRACT)

    @property
    def has_body(self) -> bool:
        return bool(self.body)

    def is_signature_method(self) -> bool:
        """True when the basic signature search (Sec. IV-A) applies.

        "Typical signature methods include static methods, private methods,
        and constructors" — with the exception of ``<clinit>``, which needs
        the special recursive search of Sec. IV-C.
        """
        if self.is_static_initializer:
            return False
        return self.is_static or self.is_private or self.is_constructor

    def signature(self) -> MethodSignature:
        return MethodSignature(
            self.declaring_class, self.name, self.param_types, self.return_type
        )

    def sub_signature(self) -> str:
        return self.signature().sub_signature()


class _DeclaredOnFirstRead:
    """``DexClass.methods`` of a deferred class (:meth:`DexClass.defer`).

    Soot resolves a class in levels: HIERARCHY, then SIGNATURES, then
    BODIES.  A deferred class holds only the first until something
    reads its ``methods``; then its pending ``declare`` runs, at most
    once and under the class's lock, because sessions are shared across
    threads, and the finished list is stored on the class in one step.
    There it shadows this non-data descriptor, so later reads cost what
    a plain attribute costs.
    """

    def __get__(self, cls, owner=None):
        if cls is None:
            return self
        pending = cls._pending
        if pending is not None:  # else another thread just declared it
            declare, method_count, lock = pending
            with lock:
                if cls._pending is pending:
                    methods = declare()
                    if len(methods) != method_count:
                        raise ValueError(
                            f"{cls.name} declared {len(methods)} methods, "
                            f"not {method_count}"
                        )
                    cls.methods = methods
                    cls._pending = None
        return cls.methods


@dataclass
class DexClass:
    """A class definition: hierarchy links, fields and methods.

    A deferred class (:meth:`defer`) declares its methods on the first
    read of ``methods``; until then only its name, hierarchy links,
    flags, fields and method count are known.
    """

    name: str
    super_name: Optional[str] = JAVA_LANG_OBJECT
    interfaces: tuple[str, ...] = ()
    flags: AccessFlags = AccessFlags.PUBLIC
    fields: list[DexField] = field(default_factory=list)
    methods: list[DexMethod] = field(default_factory=list)
    #: True for framework/SDK classes modelled without bodies.
    is_framework: bool = False

    def __post_init__(self) -> None:
        # A deferred class's (declare, method count, lock), else None.
        # Every class sets it here, first: classes that gain attributes
        # the others lack make every attribute read on the pool slower.
        self._pending = None
        self.interfaces = tuple(self.interfaces)
        for dex_field in self.fields:
            dex_field.declaring_class = self.name
        for method in self.methods:
            method.declaring_class = self.name

    @property
    def is_interface(self) -> bool:
        return bool(self.flags & AccessFlags.INTERFACE)

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    # ------------------------------------------------------------------
    def add_field(self, dex_field: DexField) -> DexField:
        dex_field.declaring_class = self.name
        self.fields.append(dex_field)
        return dex_field

    def add_method(self, method: DexMethod) -> DexMethod:
        method.declaring_class = self.name
        self.methods.append(method)
        return method

    def defer(
        self, declare: Callable[[], list[DexMethod]], method_count: int
    ) -> None:
        """Leave the class's methods to ``declare``, which runs on the
        first read of ``methods`` and must return ``method_count``
        methods, bodies built.  ``declare`` must not refer to this
        class, so an app nobody reads is freed by reference counting
        alone."""
        del self.methods
        self._pending = (declare, method_count, threading.Lock())

    def method_count(self) -> int:
        """How many methods the class declares, without declaring them."""
        pending = self._pending
        return len(self.methods) if pending is None else pending[1]

    def find_method(
        self, name: str, param_types: Optional[Iterable[str]] = None
    ) -> Optional[DexMethod]:
        """Find a declared method by name (and parameter types, if given)."""
        wanted = None if param_types is None else tuple(param_types)
        for method in self.methods:
            if method.name != name:
                continue
            if wanted is None or method.param_types == wanted:
                return method
        return None

    def find_field(self, name: str) -> Optional[DexField]:
        for dex_field in self.fields:
            if dex_field.name == name:
                return dex_field
        return None

    def constructors(self) -> list[DexMethod]:
        return [m for m in self.methods if m.is_constructor]

    def static_initializer(self) -> Optional[DexMethod]:
        return self.find_method("<clinit>")

    def declares_sub_signature(self, sub_signature: str) -> bool:
        return any(m.sub_signature() == sub_signature for m in self.methods)


# ``methods`` stays a dataclass field, so ``__init__``, ``__eq__`` and
# ``__repr__`` handle it as before.
DexClass.methods = _DeclaredOnFirstRead()


class ClassPool:
    """All classes of an app, with hierarchy queries.

    The pool distinguishes *application* classes (with bodies, disassembled
    and searchable) from *framework* classes (the Android/Java SDK model of
    :mod:`repro.android.framework`, bodiless and never searched — exactly as
    real dexdump output only covers the app's own DEX).
    """

    def __init__(self, classes: Iterable[DexClass] = ()) -> None:
        self._classes: dict[str, DexClass] = {}
        for cls in classes:
            self.add(cls)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(self, cls: DexClass) -> DexClass:
        if cls.name in self._classes:
            raise ValueError(f"duplicate class {cls.name}")
        self._classes[cls.name] = cls
        return cls

    def merge(self, other: "ClassPool") -> None:
        """Merge another pool in (multidex merge, Sec. III step 1)."""
        for cls in other:
            self.add(cls)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[DexClass]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> Optional[DexClass]:
        return self._classes.get(name)

    def application_classes(self) -> Iterator[DexClass]:
        return (c for c in self._classes.values() if not c.is_framework)

    def class_names(self) -> list[str]:
        return list(self._classes)

    def method_count(self) -> int:
        return sum(c.method_count() for c in self.application_classes())

    def resolve_method(self, sig: MethodSignature) -> Optional[DexMethod]:
        """Resolve a signature to a declared method, walking up supers.

        Mirrors JVM resolution: if ``sig.class_name`` does not declare the
        method, its superclass chain is consulted.
        """
        for class_name in self.superclass_chain(sig.class_name, include_self=True):
            cls = self.get(class_name)
            if cls is None:
                continue
            method = cls.find_method(sig.name, sig.param_types)
            if method is not None:
                return method
        return None

    def resolve_field(self, sig: FieldSignature) -> Optional[DexField]:
        for class_name in self.superclass_chain(sig.class_name, include_self=True):
            cls = self.get(class_name)
            if cls is None:
                continue
            dex_field = cls.find_field(sig.name)
            if dex_field is not None:
                return dex_field
        return None

    # ------------------------------------------------------------------
    # Hierarchy queries
    # ------------------------------------------------------------------
    def superclass_chain(self, class_name: str, include_self: bool = False) -> list[str]:
        """The superclass chain, nearest first, ending at java.lang.Object."""
        chain: list[str] = [class_name] if include_self else []
        seen = {class_name}
        current = self.get(class_name)
        while current is not None and current.super_name:
            super_name = current.super_name
            if super_name in seen:
                break  # defensive: cyclic hierarchy in malformed input
            chain.append(super_name)
            seen.add(super_name)
            current = self.get(super_name)
        return chain

    def direct_subclasses(self, class_name: str) -> list[DexClass]:
        return [c for c in self._classes.values() if c.super_name == class_name]

    def all_subclasses(self, class_name: str) -> list[DexClass]:
        """Every transitive subclass (excluding the class itself)."""
        found: list[DexClass] = []
        worklist = [class_name]
        seen: set[str] = set()
        while worklist:
            current = worklist.pop()
            for sub in self.direct_subclasses(current):
                if sub.name in seen:
                    continue
                seen.add(sub.name)
                found.append(sub)
                worklist.append(sub.name)
        return found

    def is_subtype_of(self, candidate: str, ancestor: str) -> bool:
        """True when *candidate* is *ancestor* or extends/implements it."""
        if candidate == ancestor:
            return True
        if ancestor in self.superclass_chain(candidate):
            return True
        return ancestor in self.all_interfaces_of(candidate)

    def all_interfaces_of(self, class_name: str) -> set[str]:
        """All interfaces implemented by a class, directly or transitively."""
        result: set[str] = set()
        for name in self.superclass_chain(class_name, include_self=True):
            cls = self.get(name)
            if cls is None:
                continue
            worklist = list(cls.interfaces)
            while worklist:
                iface = worklist.pop()
                if iface in result:
                    continue
                result.add(iface)
                iface_cls = self.get(iface)
                if iface_cls is not None:
                    worklist.extend(iface_cls.interfaces)
                    if iface_cls.super_name and iface_cls.super_name != JAVA_LANG_OBJECT:
                        worklist.append(iface_cls.super_name)
        return result

    def implementers_of(self, interface_name: str) -> list[DexClass]:
        """Application classes that implement *interface_name*."""
        return [
            c
            for c in self._classes.values()
            if not c.is_interface and interface_name in self.all_interfaces_of(c.name)
        ]

    def interface_declaring(self, class_name: str, sub_signature: str) -> Optional[str]:
        """Which implemented interface declares *sub_signature*, if any.

        The advanced search (Sec. IV-B) "leverages interface's class type as
        an indicator": when the callee class implements ``Runnable`` and the
        callee method is ``void run()``, the indicator type is
        ``java.lang.Runnable``.
        """
        for iface in sorted(self.all_interfaces_of(class_name)):
            iface_cls = self.get(iface)
            if iface_cls is not None and iface_cls.declares_sub_signature(sub_signature):
                return iface
        return None

    def super_declaring(self, class_name: str, sub_signature: str) -> Optional[str]:
        """The nearest superclass declaring *sub_signature*, if any."""
        for super_name in self.superclass_chain(class_name):
            super_cls = self.get(super_name)
            if super_cls is not None and super_cls.declares_sub_signature(sub_signature):
                return super_name
        return None

    def overrides_in_children(self, sig: MethodSignature) -> dict[str, bool]:
        """For each subclass of the callee class: does it override *sig*?

        Drives the child-class signature construction of Sec. IV-A: a
        non-overriding child contributes an extra search signature, while an
        overriding child must *not* be searched under the parent's analysis.
        """
        sub_signature = sig.sub_signature()
        return {
            sub.name: sub.declares_sub_signature(sub_signature)
            for sub in self.all_subclasses(sig.class_name)
        }

    # ------------------------------------------------------------------
    # Whole-pool relations (used by baselines and the clinit search)
    # ------------------------------------------------------------------
    def classes_using(self, class_name: str) -> list[str]:
        """Application classes whose bytecode mentions *class_name*.

        This is one recursive step of the Sec. IV-C static-initializer
        search (implemented there via bytecode text search; this is the
        model-level equivalent used by tests to cross-validate).
        """
        users: set[str] = set()
        for cls in self.application_classes():
            if cls.name == class_name:
                continue
            for method in cls.methods:
                if class_name in referenced_classes(method.body):
                    users.add(cls.name)
                    break
        return sorted(users)
