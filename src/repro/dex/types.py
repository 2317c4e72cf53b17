"""Type descriptors and signatures, in both Soot and dexdump formats.

BackDroid constantly crosses between two textual universes:

* the *program analysis space*, where Soot renders a method as
  ``<com.connectsdk.service.netcast.NetcastHttpServer: void start()>``; and
* the *bytecode search space*, where dexdump renders the same method as
  ``Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V``.

Steps 1 and 3 of the paper's basic search (Fig. 3) are exactly these two
translations.  This module implements them loss-lessly, plus the *field*
signature formats used by the slicer's field searches
(``<com.studiosol.util.NanoHTTPD: int myPort>`` vs
``Lcom/studiosol/util/NanoHTTPD;.myPort:I``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

#: Primitive Java type name -> dex descriptor letter.
_PRIMITIVE_TO_DEX = {
    "void": "V",
    "boolean": "Z",
    "byte": "B",
    "short": "S",
    "char": "C",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}

_DEX_TO_PRIMITIVE = {v: k for k, v in _PRIMITIVE_TO_DEX.items()}


class SignatureError(ValueError):
    """Raised when a signature or type descriptor cannot be parsed."""


@lru_cache(maxsize=65536)
def java_to_dex_type(java_type: str) -> str:
    """Translate a Java-style type name into a dex descriptor.

    >>> java_to_dex_type("void")
    'V'
    >>> java_to_dex_type("java.lang.String")
    'Ljava/lang/String;'
    >>> java_to_dex_type("int[][]")
    '[[I'
    """
    java_type = java_type.strip()
    if not java_type:
        raise SignatureError("empty type name")
    depth = 0
    while java_type.endswith("[]"):
        java_type = java_type[:-2].rstrip()
        depth += 1
    if java_type in _PRIMITIVE_TO_DEX:
        base = _PRIMITIVE_TO_DEX[java_type]
    else:
        base = "L" + java_type.replace(".", "/") + ";"
    return "[" * depth + base


@lru_cache(maxsize=65536)
def dex_to_java_type(descriptor: str) -> str:
    """Translate a dex descriptor into a Java-style type name.

    >>> dex_to_java_type("V")
    'void'
    >>> dex_to_java_type("Ljava/lang/String;")
    'java.lang.String'
    >>> dex_to_java_type("[[I")
    'int[][]'
    """
    descriptor = descriptor.strip()
    if not descriptor:
        raise SignatureError("empty descriptor")
    depth = 0
    while descriptor.startswith("["):
        descriptor = descriptor[1:]
        depth += 1
    if descriptor in _DEX_TO_PRIMITIVE:
        base = _DEX_TO_PRIMITIVE[descriptor]
    elif descriptor.startswith("L") and descriptor.endswith(";"):
        base = descriptor[1:-1].replace("/", ".")
    else:
        raise SignatureError(f"bad dex descriptor: {descriptor!r}")
    return base + "[]" * depth


def split_dex_params(param_blob: str) -> tuple[str, ...]:
    """Split the parameter portion of a dex method descriptor.

    >>> split_dex_params("Ljava/lang/String;I[J")
    ('Ljava/lang/String;', 'I', '[J')
    """
    params: list[str] = []
    i = 0
    n = len(param_blob)
    while i < n:
        start = i
        while i < n and param_blob[i] == "[":
            i += 1
        if i >= n:
            raise SignatureError(f"dangling array marker in {param_blob!r}")
        if param_blob[i] == "L":
            end = param_blob.find(";", i)
            if end < 0:
                raise SignatureError(f"unterminated class descriptor in {param_blob!r}")
            i = end + 1
        elif param_blob[i] in _DEX_TO_PRIMITIVE:
            i += 1
        else:
            raise SignatureError(f"bad descriptor char {param_blob[i]!r} in {param_blob!r}")
        params.append(param_blob[start:i])
    return tuple(params)


_SOOT_METHOD_RE = re.compile(
    r"^<(?P<cls>[^:]+):\s+(?P<ret>[^ ]+)\s+(?P<name>[^(]+)\((?P<params>[^)]*)\)>$"
)
_SOOT_FIELD_RE = re.compile(r"^<(?P<cls>[^:]+):\s+(?P<type>[^ ]+)\s+(?P<name>[^ >]+)>$")
_DEX_METHOD_RE = re.compile(
    r"^(?P<cls>\[*L[^;]+;)\.(?P<name>[^:]+):\((?P<params>[^)]*)\)(?P<ret>.+)$"
)
_DEX_FIELD_RE = re.compile(r"^(?P<cls>\[*L[^;]+;)\.(?P<name>[^:]+):(?P<type>.+)$")


@dataclass(frozen=True, order=True)
class MethodSignature:
    """A fully qualified method signature.

    Immutable and hashable so it can key caches, taint maps and SSG nodes.
    """

    class_name: str
    name: str
    param_types: tuple[str, ...] = ()
    return_type: str = "void"

    def __post_init__(self) -> None:
        object.__setattr__(self, "param_types", tuple(self.param_types))

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def to_soot(self) -> str:
        """Render in Soot format: ``<com.a.B: void start(int,long)>``."""
        params = ",".join(self.param_types)
        return f"<{self.class_name}: {self.return_type} {self.name}({params})>"

    def to_dex(self) -> str:
        """Render in dexdump format: ``Lcom/a/B;.start:(IJ)V``."""
        params = "".join(java_to_dex_type(p) for p in self.param_types)
        return (
            f"{java_to_dex_type(self.class_name)}.{self.name}:"
            f"({params}){java_to_dex_type(self.return_type)}"
        )

    def sub_signature(self) -> str:
        """The class-independent part: ``void start(int,long)``.

        The advanced search (Sec. IV-B) compares sub-signatures to recognise a
        super-class dispatch of the callee method.
        """
        params = ",".join(self.param_types)
        return f"{self.return_type} {self.name}({params})"

    def dex_sub_signature(self) -> str:
        """The class-independent dexdump part: ``start:(IJ)V``."""
        params = "".join(java_to_dex_type(p) for p in self.param_types)
        return f"{self.name}:({params}){java_to_dex_type(self.return_type)}"

    def with_class(self, class_name: str) -> "MethodSignature":
        """The same sub-signature re-homed onto another class.

        Used when constructing child-class search signatures (Sec. IV-A).
        """
        return MethodSignature(class_name, self.name, self.param_types, self.return_type)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_constructor(self) -> bool:
        return self.name == "<init>"

    @property
    def is_static_initializer(self) -> bool:
        return self.name == "<clinit>"

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse_soot(cls, text: str) -> "MethodSignature":
        """Parse ``<com.a.B: void start(int,long)>``."""
        match = _SOOT_METHOD_RE.match(text.strip())
        if match is None:
            raise SignatureError(f"bad Soot method signature: {text!r}")
        params = tuple(
            p.strip() for p in match.group("params").split(",") if p.strip()
        )
        return cls(
            class_name=match.group("cls").strip(),
            name=match.group("name").strip(),
            param_types=params,
            return_type=match.group("ret").strip(),
        )

    @classmethod
    def parse_dex(cls, text: str) -> "MethodSignature":
        """Parse ``Lcom/a/B;.start:(IJ)V``."""
        match = _DEX_METHOD_RE.match(text.strip())
        if match is None:
            raise SignatureError(f"bad dex method signature: {text!r}")
        params = tuple(
            dex_to_java_type(p) for p in split_dex_params(match.group("params"))
        )
        return cls(
            class_name=dex_to_java_type(match.group("cls")),
            name=match.group("name"),
            param_types=params,
            return_type=dex_to_java_type(match.group("ret")),
        )

    def __str__(self) -> str:
        return self.to_soot()


@dataclass(frozen=True, order=True)
class FieldSignature:
    """A fully qualified field signature."""

    class_name: str
    name: str
    field_type: str = "java.lang.Object"

    def to_soot(self) -> str:
        """Render in Soot format: ``<com.a.B: int myPort>``."""
        return f"<{self.class_name}: {self.field_type} {self.name}>"

    def to_dex(self) -> str:
        """Render in dexdump format: ``Lcom/a/B;.myPort:I``."""
        return (
            f"{java_to_dex_type(self.class_name)}.{self.name}:"
            f"{java_to_dex_type(self.field_type)}"
        )

    @classmethod
    def parse_soot(cls, text: str) -> "FieldSignature":
        match = _SOOT_FIELD_RE.match(text.strip())
        if match is None:
            raise SignatureError(f"bad Soot field signature: {text!r}")
        return cls(
            class_name=match.group("cls").strip(),
            name=match.group("name").strip(),
            field_type=match.group("type").strip(),
        )

    @classmethod
    def parse_dex(cls, text: str) -> "FieldSignature":
        match = _DEX_FIELD_RE.match(text.strip())
        if match is None:
            raise SignatureError(f"bad dex field signature: {text!r}")
        return cls(
            class_name=dex_to_java_type(match.group("cls")),
            name=match.group("name"),
            field_type=dex_to_java_type(match.group("type")),
        )

    def __str__(self) -> str:
        return self.to_soot()
