"""Golden pin for the rendered disassembly's structure.

The specmap pin (``tests/workload/test_specmap_pin.py``) hashes the
plaintext and the IR pin hashes the generator's output; neither sees
what the renderer builds *next to* the text.  This pin hashes three
views of each app's rendering:

* ``blocks`` — every method block's dex signature, line bounds and
  ``(line, statement index, instruction text)`` triples, which is what
  the slicer reads to map a search hit back to an IR statement;
* ``tokens`` — the absolute token stream ``(line, kind, text)`` that
  every index is folded from;
* ``shards`` — each library group's shard key (its text, layout and
  relative tokens), which is what the store publishes and dedups.

The restore-parity suite compares a restored disassembly against a
fresh render; this pin compares a fresh render against the recorded
one, so a layout drift shared by both sides still fails.  Regenerate
it only for an intended rendering change, together with a
``KEY_VERSION`` bump::

    REGENERATE_GOLDEN=1 PYTHONPATH=src \\
        python -m pytest tests/dex/test_render_pin.py -q
"""

import hashlib
import json
import os
from pathlib import Path

from repro.store import partition_disassembly, shard_key
from repro.workload.corpus import benchmark_app_spec, year_app_spec
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import (
    build_heyzap,
    build_lg_tv_plus,
    build_palcomp3,
)
from repro.workload.patterns import PatternSpec

from answer_parity import app_tokens

PIN_PATH = Path(__file__).parent / "golden_render_pin.json"

#: label -> a callable building the app.  The corpus apps and the
#: two-library app match the IR pin's recipes; the paper apps are
#: hand-built.
APPS = {
    "bench:0@0.05": lambda: generate_app(benchmark_app_spec(0, scale=0.05)).apk,
    "bench:1@0.2": lambda: generate_app(benchmark_app_spec(1, scale=0.2)).apk,
    "y2016:0@0.2": lambda: generate_app(year_app_spec(2016, 0, scale=0.2)).apk,
    "two-libraries": lambda: generate_app(AppSpec(
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
            LibrarySpec("org.shared.beta", seed=2, classes=5,
                        methods_per_class=3),
        ),
        size_mb=1.5,
    )).apk,
    "lg_tv_plus": build_lg_tv_plus,
    "heyzap": build_heyzap,
    "palcomp3": build_palcomp3,
}


def _sha(value) -> str:
    encoded = json.dumps(value, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def _digest(build) -> dict:
    disassembly = build().disassembly
    blocks = [
        [
            block.signature.to_dex(),
            block.start_line,
            block.end_line,
            [[i.line_no, i.stmt_index, i.text] for i in block.insns],
        ]
        for block in disassembly.blocks
    ]
    tokens = [list(token) for token in app_tokens(disassembly)]
    shards = [shard_key(group) for group in partition_disassembly(disassembly)]
    return {
        "lines": len(disassembly.lines),
        "blocks": {"count": len(blocks), "sha256": _sha(blocks)},
        "tokens": {"count": len(tokens), "sha256": _sha(tokens)},
        "shards": {"count": len(shards), "sha256": _sha(shards)},
    }


def test_rendered_structure_matches_the_pin():
    current = {label: _digest(build) for label, build in APPS.items()}
    if os.environ.get("REGENERATE_GOLDEN") == "1":
        PIN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    pin = json.loads(PIN_PATH.read_text())
    for label in APPS:
        assert current[label] == pin[label], (
            f"{label}: the rendered blocks, tokens or shard keys changed; "
            "an intended change regenerates this pin (REGENERATE_GOLDEN=1) "
            "and bumps KEY_VERSION"
        )
    assert sorted(current) == sorted(pin)
