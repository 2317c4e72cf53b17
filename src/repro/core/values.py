"""Dataflow facts for the forward constant and points-to propagation.

The forward analysis (Sec. V-B) maintains a fact map correlating each
variable with its dataflow fact.  Two special object structures preserve
points-to information along flow paths:

* :class:`NewObjFact` — "Each NewObj object contains a pointer to its
  constructor class, a map of member objects (in any class type) and
  their reference names";
* :class:`ArrayObjFact` — "we define an ArrayObj object to wrap the
  points-to information of array expression and its array map between
  indexes and values".

Joins (SSA phi nodes, multiple callers) produce :class:`MultiFact`
merges; anything the analysis cannot model becomes :class:`UnknownFact`
with a reason, so the final "complete dataflow representation (either a
constant or an expression)" is always printable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

#: Python-side representation of Java constants.
ConstValue = Union[str, int, float, bool, None]

_MERGE_WIDTH_LIMIT = 16


class Fact:
    """Base class of all dataflow facts."""

    def possible_consts(self) -> Iterator[ConstValue]:
        """Every concrete constant this fact may evaluate to."""
        return iter(())

    def possible_strings(self) -> list[str]:
        """The string constants among the possible values."""
        return [v for v in self.possible_consts() if isinstance(v, str)]

    def is_resolved(self) -> bool:
        """True when the fact carries at least one concrete value."""
        return next(self.possible_consts(), _SENTINEL) is not _SENTINEL


_SENTINEL = object()


@dataclass(frozen=True)
class ConstFact(Fact):
    """A fully resolved constant (string, number, boolean or null)."""

    value: ConstValue

    def possible_consts(self) -> Iterator[ConstValue]:
        yield self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if self.value is None:
            return "null"
        return str(self.value)


@dataclass(frozen=True)
class UnknownFact(Fact):
    """An unmodelled value, with the reason it could not be resolved."""

    reason: str = "unmodelled"

    def __str__(self) -> str:
        return f"<unknown: {self.reason}>"


@dataclass(frozen=True)
class ExprFact(Fact):
    """A symbolic expression over unresolved inputs (printable)."""

    expression: str

    def __str__(self) -> str:
        return self.expression


@dataclass(frozen=True)
class NewObjFact(Fact):
    """Points-to fact: one allocation site with its member map.

    ``members`` maps member reference names to facts.  Constructor
    arguments are recorded as ``arg0``, ``arg1``, ...; instance fields by
    their field names.  The map is stored as a sorted tuple so the fact
    stays hashable.
    """

    class_name: str
    members: tuple[tuple[str, Fact], ...] = ()

    @staticmethod
    def make(class_name: str, members: Optional[dict[str, Fact]] = None) -> "NewObjFact":
        items = tuple(sorted((members or {}).items()))
        return NewObjFact(class_name=class_name, members=items)

    def member(self, name: str) -> Optional[Fact]:
        for key, fact in self.members:
            if key == name:
                return fact
        return None

    def with_member(self, name: str, fact: Fact) -> "NewObjFact":
        updated = {k: v for k, v in self.members}
        updated[name] = fact
        return NewObjFact.make(self.class_name, updated)

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.members)
        return f"new {self.class_name}({rendered})"


@dataclass(frozen=True)
class ArrayObjFact(Fact):
    """Points-to fact for arrays: element type plus index->fact map."""

    element_type: str
    elements: tuple[tuple[int, Fact], ...] = ()

    @staticmethod
    def make(element_type: str, elements: Optional[dict[int, Fact]] = None) -> "ArrayObjFact":
        items = tuple(sorted((elements or {}).items()))
        return ArrayObjFact(element_type=element_type, elements=items)

    def element(self, index: int) -> Optional[Fact]:
        for key, fact in self.elements:
            if key == index:
                return fact
        return None

    def with_element(self, index: int, fact: Fact) -> "ArrayObjFact":
        updated = {k: v for k, v in self.elements}
        updated[index] = fact
        return ArrayObjFact.make(self.element_type, updated)

    def __str__(self) -> str:
        rendered = ", ".join(f"[{k}]={v}" for k, v in self.elements)
        return f"new {self.element_type}[]{{{rendered}}}"


@dataclass(frozen=True)
class MultiFact(Fact):
    """A merge of several possible facts (phi nodes, multiple callers)."""

    options: tuple[Fact, ...]

    def possible_consts(self) -> Iterator[ConstValue]:
        seen: set[ConstValue] = set()
        for option in self.options:
            for value in option.possible_consts():
                # None is hashable; all ConstValues are.
                if value not in seen:
                    seen.add(value)
                    yield value

    def __str__(self) -> str:
        return "{" + " | ".join(str(o) for o in self.options) + "}"


def merge_facts(facts: Iterable[Fact]) -> Fact:
    """Join facts, flattening nested merges and deduplicating.

    The merge width is bounded: pathological joins collapse into an
    :class:`UnknownFact` rather than growing without bound.
    """
    flattened: list[Fact] = []
    seen: set[Fact] = set()
    for fact in facts:
        options = fact.options if isinstance(fact, MultiFact) else (fact,)
        for option in options:
            if option not in seen:
                seen.add(option)
                flattened.append(option)
    if not flattened:
        return UnknownFact("empty merge")
    if len(flattened) == 1:
        return flattened[0]
    if len(flattened) > _MERGE_WIDTH_LIMIT:
        return UnknownFact(f"merge wider than {_MERGE_WIDTH_LIMIT}")
    return MultiFact(options=tuple(flattened))
