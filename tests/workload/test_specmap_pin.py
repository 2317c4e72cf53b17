"""Golden pin for the specmap's trust: a recipe still renders to the
content key the store recorded for it.

Full-mode runs serve a stored outcome straight from a recipe's specmap
entry, without generating the app, so any change to what the generator
or the disassembler emits must bump ``GENERATOR_VERSION`` (which
re-keys every spec fingerprint and so orphans every recorded entry).
Regenerate the pin *together with* that bump::

    REGENERATE_GOLDEN=1 PYTHONPATH=src \\
        python -m pytest tests/workload/test_specmap_pin.py -q
"""

import json
import os
from pathlib import Path

from repro.store import store_key
from repro.store.sharding import KEY_VERSION
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import (
    GENERATOR_VERSION,
    generate_app,
    spec_fingerprint,
)

PIN_PATH = Path(__file__).parent / "golden_specmap_pin.json"


def _current() -> dict:
    spec = benchmark_app_spec(0, scale=0.05)
    return {
        "generator_version": GENERATOR_VERSION,
        "key_version": KEY_VERSION,
        "spec_fingerprint": spec_fingerprint(spec),
        "store_key": store_key(generate_app(spec).apk.disassembly),
    }


def test_recipe_renders_to_the_pinned_content_key():
    current = _current()
    if os.environ.get("REGENERATE_GOLDEN") == "1":
        PIN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    pin = json.loads(PIN_PATH.read_text())
    assert pin["key_version"] == KEY_VERSION, (
        "the pin was recorded under another KEY_VERSION: regenerate the "
        "pin (REGENERATE_GOLDEN=1)"
    )
    assert current == pin, (
        "generator/disassembler output changed: bump GENERATOR_VERSION "
        "and regenerate the pin (REGENERATE_GOLDEN=1)"
    )
