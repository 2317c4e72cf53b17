"""Golden pin for the generator's IR: every application class, with its
method bodies and their constants.

The specmap pin (``test_specmap_pin.py``) hashes rendered text, and the
text leaves some IR out: a binop renders as ``mul-int v1, v0, v2``,
without its constant.  A change that reorders the generator's random
draws would keep that pin green while planting other constants.  This
pin serializes the IR itself, from dataclass fields with enums by name
(so every supported Python version agrees), and reading each class's
methods declares any class that deferred them.  Regenerate it only together
with a ``GENERATOR_VERSION`` bump::

    REGENERATE_GOLDEN=1 PYTHONPATH=src \\
        python -m pytest tests/workload/test_ir_pin.py -q
"""

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path

from repro.workload.corpus import benchmark_app_spec, year_app_spec
from repro.workload.generator import (
    GENERATOR_VERSION,
    AppSpec,
    LibrarySpec,
    generate_app,
)
from repro.workload.patterns import PatternSpec

PIN_PATH = Path(__file__).parent / "golden_ir_pin.json"

#: label -> recipe.  A small and two mid-size corpus apps, plus an app
#: embedding two shared libraries (library classes draw from their own
#: RNG, so they need their own coverage).
SPECS = {
    "bench:0@0.05": benchmark_app_spec(0, scale=0.05),
    "bench:1@0.2": benchmark_app_spec(1, scale=0.2),
    "y2016:0@0.2": year_app_spec(2016, 0, scale=0.2),
    "two-libraries": AppSpec(
        package="com.pin.libs",
        seed=11,
        patterns=(
            PatternSpec("direct_entry", insecure=True),
            PatternSpec("field_config", insecure=False),
        ),
        filler_classes=5,
        methods_per_filler=3,
        libraries=(
            LibrarySpec("com.shared.alpha", seed=1),
            LibrarySpec("org.shared.beta", seed=2, classes=5, methods_per_class=3),
        ),
        size_mb=1.5,
    ),
}


def _encode(value):
    """A JSON-able form of an IR value built from its dataclass fields."""
    if isinstance(value, enum.Flag):
        return [member.name for member in type(value) if member in value]
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value):
        return [
            type(value).__name__,
            {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)},
        ]
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"no pin encoding for {type(value).__name__}")


def _digest(spec: AppSpec) -> dict:
    classes = list(generate_app(spec).apk.classes.application_classes())
    # Reading every class's methods first declares the deferred ones.
    statements = sum(len(m.body) for cls in classes for m in cls.methods)
    encoded = json.dumps([_encode(cls) for cls in classes], sort_keys=True)
    return {
        "classes": len(classes),
        "methods": sum(len(cls.methods) for cls in classes),
        "statements": statements,
        "sha256": hashlib.sha256(encoded.encode()).hexdigest(),
    }


def _current() -> dict:
    return {
        "generator_version": GENERATOR_VERSION,
        "apps": {label: _digest(spec) for label, spec in SPECS.items()},
    }


def test_generated_ir_matches_the_pin():
    current = _current()
    if os.environ.get("REGENERATE_GOLDEN") == "1":
        PIN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    pin = json.loads(PIN_PATH.read_text())
    assert current == pin, (
        "generated IR changed (classes, bodies or constants): bump "
        "GENERATOR_VERSION and regenerate both pins (REGENERATE_GOLDEN=1)"
    )
