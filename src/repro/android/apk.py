"""The ``Apk`` bundle: app classes + manifest + metadata.

Mirrors BackDroid's preprocessing (Sec. III, step 1): extract bytecode and
manifest, keep an IR view for the program-analysis space, and keep a
dexdump plaintext view for the bytecode-search space.  Both views are
computed lazily and cached per app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.android.framework import framework_pool
from repro.android.manifest import Manifest
from repro.dex import disassembler
from repro.dex.disassembler import Disassembly
from repro.dex.hierarchy import ClassPool
from repro.telemetry import tracing


def render_disassembly(classes: ClassPool) -> Disassembly:
    """Render ``classes``' plaintext afresh, as a ``disassemble`` span.

    A restored disassembly keeps its render callable, so a store restore
    binds this to the app's class pool, never to the :class:`Apk` that
    holds the disassembly: that would be a reference cycle only the
    cyclic collector frees.
    """
    with tracing.span("disassemble", attrs={"via": "render"}):
        return disassembler.disassemble(classes)


@dataclass
class Apk:
    """One analyzable app."""

    #: Google-Play-style package name, e.g. ``com.lge.app1``.
    package: str
    #: Application classes (the app's own DEX code, libraries included).
    classes: ClassPool = field(default_factory=ClassPool)
    #: The parsed manifest.
    manifest: Manifest = None  # type: ignore[assignment]
    #: Download-size metadata (used by the corpus experiments, Table I).
    size_mb: float = 0.0
    #: DEX file year (Table I groups apps by year).
    year: int = 2018
    #: Install-count metadata (dataset selection requires >= 1e6).
    installs: int = 1_000_000

    def __post_init__(self) -> None:
        if self.manifest is None:
            self.manifest = Manifest(package=self.package)
        self._full_pool: Optional[ClassPool] = None
        self._disassembly: Optional[Disassembly] = None

    # ------------------------------------------------------------------
    @property
    def full_pool(self) -> ClassPool:
        """App classes + the shared framework model, for hierarchy queries."""
        if self._full_pool is None:
            merged = ClassPool()
            for cls in self.classes:
                merged.add(cls)
            for cls in framework_pool():
                if cls.name not in merged:
                    merged.add(cls)
            self._full_pool = merged
        return self._full_pool

    @property
    def disassembly(self) -> Disassembly:
        """The dexdump-style plaintext of the app's own classes (cached).

        Rendered on first use unless one was set first — the artifact
        store rebuilds it from stored shards on an index hit.
        """
        if self._disassembly is None:
            self._disassembly = render_disassembly(self.classes)
        return self._disassembly

    @disassembly.setter
    def disassembly(self, disassembly: Disassembly) -> None:
        self._disassembly = disassembly

    def invalidate_caches(self) -> None:
        """Drop the cached views after mutating ``classes``."""
        self._full_pool = None
        self._disassembly = None

    # ------------------------------------------------------------------
    def method_count(self) -> int:
        return self.classes.method_count()

    def class_count(self) -> int:
        return sum(1 for _ in self.classes.application_classes())

    def code_units(self) -> int:
        """Total IR statements — our proxy for DEX code size."""
        return sum(
            len(m.body) for c in self.classes.application_classes() for m in c.methods
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Apk({self.package!r}, classes={self.class_count()}, "
            f"methods={self.method_count()}, size={self.size_mb:.1f}MB)"
        )
