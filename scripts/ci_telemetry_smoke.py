#!/usr/bin/env python
"""CI smoke for the telemetry subsystem, end to end over a real server.

Boots ``backdroid serve`` as a subprocess (JSON logs, ephemeral port),
pushes one warm and one cold job through it, then asserts the
telemetry surfaces:

* the warm job's ``?trace=1`` tree shows an outcome hit resolved
  through the specmap, with no ``app.generate`` or ``index.prepare``
  span and every span on the server's pid;
* a rescan of the same app under new rules restores its disassembly
  from the store (one ``disassemble`` span, ``via: store``, none
  rendering it), with every span on the server's pid;
* ``GET /v1/jobs/<id>?trace=1`` returns a single-trace span tree whose
  ``worker`` span ran in a *different process* than the server;
* ``GET /metrics`` serves Prometheus text carrying the expected
  instrument names;
* the server's stdout is parseable JSON log lines.

Exits nonzero on the first violated assertion, so CI can run it
directly::

    PYTHONPATH=src python scripts/ci_telemetry_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.core import BackDroidConfig, analyze_spec  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workload.corpus import benchmark_app_spec  # noqa: E402

#: Instruments the scrape must carry (names are the public contract).
EXPECTED_INSTRUMENTS = (
    "backdroid_jobs_submitted_total",
    "backdroid_jobs_completed_total",
    "backdroid_job_wait_seconds",
    "backdroid_job_service_seconds",
    "backdroid_lane_depth",
    "backdroid_warm_submissions_total",
    "backdroid_store_probe_total",
    "backdroid_store_counter",
    "backdroid_http_requests_total",
    "backdroid_event_loop_lag_seconds",
)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bdtelemetry-") as root:
        store = str(Path(root) / "store")
        # Pre-warm app 0 so the first submission rides the fast lane.
        config = BackDroidConfig(
            search_backend="indexed", store_dir=store, store_mode="full"
        )
        outcome = analyze_spec(benchmark_app_spec(0, scale=0.1), config)
        assert outcome.ok, outcome.error

        env = dict(os.environ)
        env["PYTHONPATH"] = str(_ROOT / "src")
        # -u: the banner must flush through the pipe before we read it.
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0", "--store", store, "--store-mode", "full",
                "--backend", "indexed", "--cold-workers", "1",
                "--log-format", "json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(_ROOT),
        )
        try:
            # The banner prints the bound ephemeral port.
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no address in serve banner: {line!r}"
            host, port = match.group(1), int(match.group(2))
            client = ServiceClient(host=host, port=port, timeout=60)
            deadline = time.monotonic() + 30
            while True:
                try:
                    assert client.health() == {"ok": True}
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)

            server_pid = proc.pid
            warm = client.submit({"app": "bench:0", "scale": 0.1})
            assert warm["warm"], warm
            warm_done = client.wait(warm["id"], timeout=120)
            assert warm_done["state"] == "done", warm_done

            # Surface 0: a warm outcome hit is served from the specmap,
            # with no generate/render CPU in the service interpreter.
            warm_spans = client.job(warm["id"], trace=True)["trace"]
            warm_names = {s["name"] for s in warm_spans}
            assert not {"app.generate", "index.prepare"} & warm_names, (
                warm_names
            )
            restore = next(
                s for s in warm_spans if s["name"] == "store.outcome_restore"
            )
            assert restore["attrs"]["hit"] is True, restore
            assert restore["attrs"]["via"] == "specmap", restore
            assert {s["pid"] for s in warm_spans} == {server_pid}, (
                "warm spans ran outside the service interpreter"
            )
            print(
                f"warm trace ok: {len(warm_spans)} spans, outcome hit via "
                f"the specmap, all on the server pid"
            )

            # Surface 0b: a rule-change rescan of the warm app is an
            # index hit: its plaintext comes from the store, not a render.
            rescan = client.submit(
                {"app": "bench:0", "scale": 0.1, "rules": ["open-port"]}
            )
            assert rescan["warm"], rescan
            rescan_done = client.wait(rescan["id"], timeout=120)
            assert rescan_done["state"] == "done", rescan_done
            rescan_spans = client.job(rescan["id"], trace=True)["trace"]
            disassembles = [
                s["attrs"] for s in rescan_spans if s["name"] == "disassemble"
            ]
            assert [a["via"] for a in disassembles] == ["store"], disassembles
            assert disassembles[0]["hit"] is True, disassembles
            assert {s["pid"] for s in rescan_spans} == {server_pid}, (
                "rescan spans ran outside the service interpreter"
            )
            print(
                f"rescan trace ok: {len(rescan_spans)} spans, disassembly "
                f"restored from the store, all on the server pid"
            )

            cold = client.submit({"app": "bench:90", "scale": 0.1})
            assert not cold["warm"], cold
            cold_done = client.wait(cold["id"], timeout=120)
            assert cold_done["state"] == "done", cold_done

            # Surface 1: the cross-process trace.
            traced = client.job(cold["id"], trace=True)
            spans = traced["trace"]
            assert spans, "cold job returned no trace"
            trace_ids = {s["trace_id"] for s in spans}
            assert trace_ids == {traced["trace_id"]}, trace_ids
            names = {s["name"] for s in spans}
            assert {"job", "queue", "dispatch", "worker"} <= names, names
            worker = next(s for s in spans if s["name"] == "worker")
            assert worker["pid"] not in (None, server_pid), (
                f"worker span pid {worker['pid']} is not a distinct "
                f"worker process (server pid {server_pid})"
            )
            print(
                f"trace ok: {len(spans)} spans, one trace, worker span "
                f"on pid {worker['pid']} (server pid {server_pid})"
            )

            # Surface 2: the Prometheus scrape.
            text = client.metrics()
            for name in EXPECTED_INSTRUMENTS:
                assert re.search(
                    rf"^{name}(_bucket|_sum|_count)?{{?", text, re.M
                ), f"instrument {name} missing from /metrics"
            assert 'le="+Inf"' in text, "histograms must end at +Inf"
            print(
                f"metrics ok: {len(EXPECTED_INSTRUMENTS)} instruments in "
                f"{len(text.splitlines())} exposition lines"
            )

            # /v1/stats embeds the same snapshot as JSON.
            stats = client.stats()
            assert stats["metrics"], "stats missing the metrics snapshot"
        finally:
            proc.terminate()
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()

        # Surface 3: structured logs — every stderr line the backdroid
        # logger tree emitted must parse as a JSON object.
        log_lines = [
            line for line in err.splitlines()
            if line.startswith("{")
        ]
        for line in log_lines:
            parsed = json.loads(line)
            assert "level" in parsed and "message" in parsed, parsed
        print(f"logs ok: {len(log_lines)} structured line(s)")
    print("telemetry smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
