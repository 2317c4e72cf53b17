"""Tests for the `repro.service` package's lazy exports."""

import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.service


def test_every_export_resolves_to_its_submodule():
    for name in repro.service.__all__:
        value = getattr(repro.service, name)
        owner = repro.service._EXPORTS[name]
        assert getattr(
            sys.modules[f"repro.service.{owner}"], name
        ) is value


def test_a_batch_never_loads_the_http_stack():
    # A fresh interpreter: this test session has loaded the server
    # already.  `backdroid batch` needs only the scheduler.
    code = (
        "import sys\n"
        "from repro.core import run_batch\n"
        "from repro.workload.corpus import benchmark_app_spec\n"
        "result = run_batch([benchmark_app_spec(0, scale=0.05)])\n"
        "assert not result.failures, result.failures\n"
        "print(sorted(m for m in ('asyncio', 'http.client', 'ssl')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
