"""The seeded synthetic-app generator.

Generates deterministic, self-consistent apps: a manifest, a set of
pattern instances (each with ground truth), and *filler code* that stands
in for the app's bulk.  Filler is reachable from the launcher activity
and fans out through virtual dispatch over a common base class — so a
whole-app analyzer must traverse and dispatch through all of it (cost
grows with app size), while BackDroid's targeted analysis never visits it
(cost grows with sink count).  This is exactly the asymmetry Sec. VI-B
and VI-D measure.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field

from repro.android.apk import Apk
from repro.android.manifest import ComponentKind, Manifest
from repro.dex.builder import AppBuilder, ClassBuilder
from repro.workload.patterns import (
    PATTERN_BUILDERS,
    GroundTruth,
    PatternContext,
    PatternSpec,
)


@dataclass(frozen=True)
class LibrarySpec:
    """A deterministic recipe for one embeddable library.

    Library code is generated from the library's *own* package and seed
    — never from the embedding app's — so every app that lists the same
    ``LibrarySpec`` embeds byte-identical classes.  That is what the
    artifact store's cross-app shard dedup exploits: the library's
    class group hashes to the same shard key in every app.
    """

    package: str
    seed: int = 0
    classes: int = 8
    methods_per_class: int = 4


@dataclass(frozen=True)
class AppSpec:
    """A deterministic recipe for one synthetic app."""

    package: str
    seed: int = 0
    patterns: tuple[PatternSpec, ...] = ()
    filler_classes: int = 10
    methods_per_filler: int = 6
    #: Shared libraries embedded verbatim (see :class:`LibrarySpec`).
    libraries: tuple[LibrarySpec, ...] = ()
    year: int = 2018
    size_mb: float = 0.0
    installs: int = 1_000_000


#: Version of the recipe -> plaintext contract, folded into every
#: :func:`spec_fingerprint`.  The artifact store's specmap trusts that a
#: recipe still renders to the content key it recorded, and full-mode
#: runs serve stored outcomes on that trust alone; bump this on any
#: generator or disassembler change that alters a generated app's
#: disassembly, so old specmap entries are orphaned instead of served.
GENERATOR_VERSION = 2


def spec_fingerprint(spec: AppSpec) -> str:
    """A stable digest of one app recipe.

    Specs are frozen dataclasses of primitives and
    :class:`~repro.workload.patterns.PatternSpec` tuples, so their repr
    is deterministic across processes and runs — the fingerprint lets
    the artifact store map a recipe to the disassembly key its generated
    app hashes to, without generating the app.
    """
    return hashlib.sha256(
        f"backdroid-generator-v{GENERATOR_VERSION}\n{spec!r}".encode()
    ).hexdigest()[:16]


@dataclass
class GeneratedApp:
    """A generated app plus its ground-truth labels."""

    apk: Apk
    spec: AppSpec
    truths: list[GroundTruth] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def truly_vulnerable(self) -> bool:
        return any(t.truly_vulnerable for t in self.truths)

    @property
    def has_hazard(self) -> bool:
        return any(t.pattern == "hazard_dangling" for t in self.truths)

    def expected_backdroid_vulnerable(self) -> bool:
        return any(t.expect_backdroid for t in self.truths)

    def expected_amandroid_vulnerable(self) -> bool:
        """Mechanism-level expectation, ignoring timeouts.

        An injected hazard makes the whole baseline run fail, masking
        every detection in the app.
        """
        if self.has_hazard:
            return False
        return any(t.expect_amandroid for t in self.truths)

    def sink_call_count(self) -> int:
        """Pattern instances that planted a sink call."""
        return sum(1 for t in self.truths if t.rule is not None)


def _build_filler(
    app: AppBuilder, manifest: Manifest, package: str, spec: AppSpec,
    rng: random.Random,
) -> None:
    """Reachable bulk code with CHA-hostile virtual dispatch.

    ``FillerK`` classes extend one shared ``BaseTask`` and override
    ``step()``; the launcher walks the chain through base-typed calls, so
    a class-hierarchy analysis resolves each dispatch against *every*
    filler subclass.  The filler classes and the launcher draw their
    constants now but declare their methods on first read
    (:meth:`~repro.dex.builder.ClassBuilder.defer`): a targeted
    analysis never reads them, a whole-app one reads them all.
    """
    if spec.filler_classes <= 0:
        return
    base_name = f"{package}.gen.BaseTask"
    _build_base(app, base_name, "step")
    class_names = [f"{package}.gen.Filler{index}" for index in range(spec.filler_classes)]
    for index, name in enumerate(class_names):
        step_addend = rng.randint(1, 99)
        work_constants = [
            (rng.randint(2, 9), rng.randint(1, 999))
            for _ in range(spec.methods_per_filler)
        ]
        app.new_class(name, superclass=base_name).defer(functools.partial(
            _build_chain_class, base_name, "step", "work",
            class_names[(index + 1) % len(class_names)], step_addend,
            work_constants,
        ), 2 + spec.methods_per_filler)

    launcher_name = f"{package}.gen.LauncherActivity"
    app.new_class(launcher_name, superclass="android.app.Activity").defer(
        functools.partial(_build_launcher, class_names, rng.randint(1, 1000)), 2
    )
    manifest.register(
        launcher_name, ComponentKind.ACTIVITY, exported=True,
        actions=["android.intent.action.MAIN"],
    )


def _build_base(app: AppBuilder, name: str, method_name: str) -> None:
    """A bulk chain's base class, whose ``method_name`` returns its
    argument."""
    base = app.new_class(name)
    base.default_constructor()
    method = base.method(method_name, params=["int"], returns="int")
    method.this()
    method.return_value(method.param(0))


def _build_chain_class(
    base_name: str, override: str, link: str, next_name: str, addend: int,
    link_constants: list[tuple[int, ...]], cls: ClassBuilder,
) -> None:
    """One filler class or library component: ``<init>``, an
    ``override`` of the base's method adding ``addend``, and a static
    ``linkN`` chain whose links multiply by their first constant and
    add their second, if any; the last link dispatches to
    ``next_name`` through the base type."""
    cls.default_constructor()
    method = cls.method(override, params=["int"], returns="int")
    method.this()
    arg = method.param(0)
    method.return_value(method.binop("+", arg, addend))
    for index, constants in enumerate(link_constants):
        method = cls.method(f"{link}{index}", params=["int"], returns="int",
                            static=True)
        acc = method.param(0)
        for op, constant in zip("*+", constants):
            acc = method.binop(op, acc, constant)
        if index + 1 < len(link_constants):
            nxt = method.invoke_static(cls.name, f"{link}{index + 1}", args=[acc],
                                       params=["int"], returns="int")
            method.return_value(nxt)
        else:
            # Cross-class dispatch through the base type, mirroring
            # real SDKs' intra-library call graphs.
            obj = method.new_init(next_name)
            up = method.cast(base_name, obj)
            out = method.invoke_virtual(up, base_name, override, args=[acc],
                                        params=["int"], returns="int")
            method.return_value(out)


def _build_launcher(
    class_names: list[str], seed: int, launcher: ClassBuilder
) -> None:
    """The launcher activity: ``onCreate`` calls each filler's ``work0``."""
    launcher.default_constructor()
    on_create = launcher.method("onCreate", params=["android.os.Bundle"])
    on_create.this()
    on_create.param(0)
    seed_value = on_create.const_int(seed)
    for name in class_names:
        on_create.invoke_static(name, "work0", args=[seed_value],
                                params=["int"], returns="int")
    on_create.return_void()


def _build_library(app: AppBuilder, lib: LibrarySpec) -> None:
    """Embed one shared library's classes, app-independently.

    The class bodies are driven by a library-local RNG seeded from the
    library spec alone, and every emitted name/signature/string refers
    only to the library's own package — so the rendered class group
    (and hence its store shard) is identical in every embedding app.
    Component classes draw their constants now and declare their
    methods on first read, like filler.
    """
    if lib.classes <= 0:
        return
    rng = random.Random(f"{lib.package}:{lib.seed}")
    base_name = f"{lib.package}.core.LibBase"
    _build_base(app, base_name, "transform")
    class_names = [
        f"{lib.package}.core.Component{index}" for index in range(lib.classes)
    ]
    for index, name in enumerate(class_names):
        transform_addend = rng.randint(1, 99)
        stage_factors = [(rng.randint(2, 9),) for _ in range(lib.methods_per_class)]
        app.new_class(name, superclass=base_name).defer(functools.partial(
            _build_chain_class, base_name, "transform", "stage",
            class_names[(index + 1) % len(class_names)], transform_addend,
            stage_factors,
        ), 2 + lib.methods_per_class)


def generate_app(spec: AppSpec) -> GeneratedApp:
    """Generate one app deterministically from its spec."""
    rng = random.Random(spec.seed)
    app = AppBuilder()
    manifest = Manifest(package=spec.package)
    context = PatternContext(rng=rng)
    truths: list[GroundTruth] = []

    for index, pattern in enumerate(spec.patterns):
        builder = PATTERN_BUILDERS[pattern.name]
        namespace = f"{spec.package}.p{index}"
        truths.append(builder(app, manifest, namespace, context, pattern.insecure))

    _build_filler(app, manifest, spec.package, spec, rng)
    for library in spec.libraries:
        _build_library(app, library)

    apk = Apk(
        package=spec.package,
        classes=app.build(),
        manifest=manifest,
        size_mb=spec.size_mb,
        year=spec.year,
        installs=spec.installs,
    )
    if apk.size_mb <= 0:
        # Rough DEX-size model: ~3 KB per IR statement keeps generated
        # apps in the paper's MB range.  Counting statements reads every
        # body, so an unsized spec declares its deferred classes here;
        # corpus and service specs all carry a size.
        apk.size_mb = round(apk.code_units() * 0.003, 1)
    return GeneratedApp(apk=apk, spec=spec, truths=truths)
