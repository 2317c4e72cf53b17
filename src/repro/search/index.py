"""The raw text-search engine over the dexdump plaintext.

This is the "bytecode search space" half of Fig. 3: given a search
signature (already translated to dexdump format), find every line of the
disassembled plaintext that mentions it, and map each hit back to the
containing method so the program-analysis space can take over.

The line-level scanning itself is delegated to a pluggable
:class:`~repro.search.backends.SearchBackend` — the original O(text)
:class:`~repro.search.backends.LinearScanBackend` by default, or the
prebuilt :class:`~repro.search.backends.InvertedIndexBackend`, which
answers a needle from each library group's token vocabulary and posting
lists.  Every search here is a token query (``token_lines``) whose hit
lines the searcher then checks one by one, so all backends return
identical hits; only the cost differs.

All searches run through a :class:`~repro.search.caching.SearchCommandCache`
— repeated commands (common when similar paths are explored across
different sinks) are served from cache, reproducing the Sec. IV-F
"search caching" enhancement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.dex.disassembler import Disassembly
from repro.dex.types import FieldSignature, MethodSignature, java_to_dex_type
from repro.search.backends import BackendSpec, create_backend
from repro.search.caching import SearchCommandCache


@dataclass(frozen=True)
class SearchHit:
    """One text hit: absolute line plus its program-space location."""

    line_no: int
    line: str
    #: The method whose disassembly block contains the hit (None when the
    #: hit is outside any method body, e.g. in a class header).
    method: Optional[MethodSignature]
    #: The IR statement index the hit line renders, if known.
    stmt_index: Optional[int]


#: The mnemonic slot of a rendered instruction line: address, 24-column
#: gutter, ``|`` and the code offset, then the opcode.  Method-header
#: lines use ``|[addr]`` instead of ``|off:`` and never match.  The
#: renderer's ``:06x``/``:04x`` widths are minimums that widen on huge
#: apps, hence ``{6,}``/``{4,}``.
_INSN_PREFIX = r"^[0-9a-f]{6,}: +\|[0-9a-f]{4,}: "
_INSN_OPCODE_RE = re.compile(_INSN_PREFIX + r"(\S+)")

#: An ``invoke-*`` instruction line up to its callee's parameter list:
#: the register list, then ``L<class>;.<name>:(<params>)``.  Group 1 is
#: the callee's method name.  It is matched against one line at a time,
#: so no part of it can run on into the next line.
_INVOKE_CALLEE_RE = re.compile(
    _INSN_PREFIX + r"invoke-\S+ \{[^}]*\}, L[^;]+;\.([^:]*):\([^)]*\)"
)


def instruction_opcode(line: str) -> Optional[str]:
    """The mnemonic of a rendered instruction line, or None.

    Opcode filters must inspect this slot rather than substring-match the
    whole line: a ``const-string`` whose value embeds ``invoke-`` or a
    dex signature would otherwise pass for a call site.
    """
    match = _INSN_OPCODE_RE.match(line)
    return match.group(1) if match else None


def invoked_method_name(line: str) -> Optional[str]:
    """The callee's method name on a rendered ``invoke-*`` line, or None.

    Only the callee signature (the text after the register list's
    ``}, ``) counts, so a ``const-string`` that spells an invoke is no
    call site.
    """
    match = _INVOKE_CALLEE_RE.match(line)
    return match.group(1) if match else None


class BytecodeSearcher:
    """Searches one app's disassembled plaintext, with command caching."""

    def __init__(
        self,
        disassembly: Disassembly,
        cache: Optional[SearchCommandCache] = None,
        backend: BackendSpec = None,
        store=None,
    ):
        self.disassembly = disassembly
        self.cache = cache if cache is not None else SearchCommandCache()
        self.backend = create_backend(backend, disassembly, store=store)

    # ------------------------------------------------------------------
    # Core primitives
    # ------------------------------------------------------------------
    def _hit(self, line_no: int) -> SearchHit:
        block = self.disassembly.block_at_line(line_no)
        stmt_index = block.stmt_index_for_line(line_no) if block else None
        return SearchHit(
            line_no=line_no,
            line=self.disassembly.lines[line_no],
            method=block.signature if block else None,
            stmt_index=stmt_index,
        )

    def _search_token(self, needle: str, kind: str) -> list[SearchHit]:
        """All hits of a token-shaped needle (cached by command).

        Uses the same ``(kind, command)`` cache keys as a literal search
        would, so cache rates are backend-independent.
        """
        return self.cache.get_or_run(
            kind, needle,
            lambda: [self._hit(n) for n in self.backend.token_lines(needle)],
        )

    # ------------------------------------------------------------------
    # Signature-level searches
    # ------------------------------------------------------------------
    def find_invocations(self, callee: MethodSignature) -> list[SearchHit]:
        """Invocation sites of a method signature (Fig. 3, step 1).

        The needle is the full dexdump signature; only lines whose
        *mnemonic* is ``invoke-*`` qualify — the same signature also
        appears in its own method header (not a call site) and can be
        embedded verbatim in a string literal, whose line would pass a
        naive ``"invoke-" in line`` substring check.
        """
        needle = callee.to_dex()
        hits = self._search_token(needle, kind="caller-method")
        return [
            h
            for h in hits
            if (op := instruction_opcode(h.line)) and op.startswith("invoke-")
        ]

    def find_field_accesses(
        self, fieldsig: FieldSignature, writes_only: bool = False
    ) -> list[SearchHit]:
        """Field access sites (the slicer's static-field search, Sec. V-A)."""
        needle = fieldsig.to_dex()
        hits = self._search_token(needle, kind="field")
        ops = ("iput", "sput") if writes_only else ("iget", "iput", "sget", "sput")
        return [
            h
            for h in hits
            if (op := instruction_opcode(h.line)) and op.startswith(ops)
        ]

    def find_const_class(self, class_name: str) -> list[SearchHit]:
        """``const-class`` mentions of a class (explicit-ICC parameters)."""
        descriptor = java_to_dex_type(class_name)
        hits = self._search_token(descriptor, kind="invoked-class")
        return [h for h in hits if instruction_opcode(h.line) == "const-class"]

    def find_const_string(self, value: str) -> list[SearchHit]:
        """``const-string`` mentions of a literal (implicit-ICC actions).

        The value is matched literally — never compiled into a regex —
        so regex metacharacters (``.*+?()[]`` and friends, common in
        intent actions) need no escaping and cannot mis-match.
        """
        hits = self._search_token(f'"{value}"', kind="raw")
        return [h for h in hits if instruction_opcode(h.line) == "const-string"]

    def find_invocations_by_name(self, method_name: str) -> list[SearchHit]:
        """Invocations matched by method name regardless of receiver class.

        Used by the two-time ICC search, where the receiver of e.g.
        ``startService`` can be any ``Context`` subclass.  The needle
        ``;.<name>:(`` lies inside the signature token of every such
        call, so the backend answers it as a token query; a hit line is
        kept only if that line is itself an ``invoke-*`` whose callee
        has this name.  The name is matched literally, never compiled
        into a regex.
        """
        hits = self._search_token(f";.{method_name}:(", kind="caller-method")
        return [h for h in hits if invoked_method_name(h.line) == method_name]

    def classes_mentioning(self, class_name: str) -> set[str]:
        """Names of classes whose bytecode text mentions *class_name*.

        One recursive step of the static-initializer search (Sec. IV-C):
        "BackDroid first launches a search to find out a set of classes
        that invoke the SI class."
        """
        descriptor = java_to_dex_type(class_name)
        hits = self._search_token(descriptor, kind="invoked-class")
        users: set[str] = set()
        for hit in hits:
            if hit.method is None:
                continue
            if hit.method.class_name == class_name:
                continue
            # Class-header lines (superclass/interface declarations) have
            # no method; instruction-level mentions land here.
            users.add(hit.method.class_name)
        return users

    def subclass_header_mentions(self, class_name: str) -> set[str]:
        """Classes whose *header* (superclass/interfaces) names the class.

        Each hit is attributed independently: a hit whose enclosing
        class-descriptor line is missing or unparseable contributes
        nothing.  (The attribution previously leaked across hits through
        a loop-carried ``current_class``, so such a hit inherited the
        *previous* hit's class.)
        """
        descriptor = f"'{java_to_dex_type(class_name)}'"
        hits = self._search_token(descriptor, kind="invoked-class")
        users: set[str] = set()
        for hit in hits:
            if "Superclass" in hit.line or ": '" in hit.line:
                owner = self._owning_class_of(hit.line_no)
                if owner and owner != class_name:
                    users.add(owner)
        return users

    def _owning_class_of(self, line_no: int) -> Optional[str]:
        """The class of the nearest ``Class descriptor`` header above.

        None when no descriptor line precedes *line_no* or the nearest
        one cannot be parsed — never a value carried over from another
        hit.
        """
        for prior in range(line_no, -1, -1):
            line = self.disassembly.lines[prior]
            if "Class descriptor" in line:
                match = re.search(r"'L([^;]+);'", line)
                if match:
                    return match.group(1).replace("/", ".")
                return None
        return None
