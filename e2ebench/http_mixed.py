"""``http_mixed``: an open loop of HTTP submissions to ``backdroid serve``.

``serve`` runs as a subprocess: asyncio front end, one fast-lane
thread, one cold worker process, the default session cache, the indexed
backend, and a full-mode store pre-warmed in setup.  Submissions arrive
at one fixed rate in a fixed repeating mix:

* ``warm``: outcome hits, round-robin over a pre-warmed hot set six
  times the session cache, so the warm class stays one shape even if a
  later change starts caching sessions for outcome hits;
* ``cold``: apps the store has never seen (the cold worker process);
* ``rescan``: a rule change (``rules: [ssl-verifier]``) on an app whose
  cold job ran earlier in the window, so the store holds its shards but
  no outcome for the new rules: an index hit in the fast lane.

The rate keeps each lane well below half of its measured capacity, so
latency is service time, not queueing.  Each job is timed from its *due* send
time to the ``finished_at`` in its job record (same host clock), so the
poll interval never quantizes latency and a generator stall counts
against the jobs behind it.  The load generator uses two threads (send,
poll), each with one keep-alive connection.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

from apps import Corpus, Oracle, RunResult, check_planted_truths
from rescan import Q_HI, Q_LO
from stats import at_reference, machine_probe, median, quantile

#: Bulk-code scale of the HTTP apps: smaller than ``corpus_rescan``'s so
#: each lane stays well below half busy at 100+ samples per class.
SCALE = 0.6
#: Submissions per second, identical on every commit.
RATE = 8.5
#: One cycle of the mix; the cold share is 1/3, the warm share 1/3.
CYCLE = ("cold", "warm", "rescan")
#: A rescan targets the cold app of the cycle this many seconds back.
RESCAN_LAG_S = 3.0
#: The rule change: rescans analyze only the SSL rule family, so an
#: index hit costs about an outcome hit plus a lazy restore and the
#: fast lane stays well below half busy.
RESCAN_RULES = ("ssl-verifier",)
#: Warm apps: six times ``serve``'s default session cache (4); enough
#: distinct apps that the warm p50 does not hang on one app's size.
HOT_SET = 24
#: Latency limit for ``warm_slo_frac``.
WARM_SLO_S = 0.25
#: Time allowed after the last due send for in-flight jobs to finish;
#: anything still pending then is a growing backlog.
DRAIN_S = 10.0
TERMINAL = ("done", "failed", "cancelled")
SERVICE_METRICS = (
    "service.submit_rtt_s.p50",
    "service.submit_rtt_s.p90",
    "service.gen_lag_s.p90",
    "service.queue_wait_s.fast",
    "service.queue_wait_s.main",
    "service.exec_s.fast",
    "service.exec_s.main",
    "service.coalesced_frac",
    "service.fast_lane_frac",
    "service.session_hit_frac",
    "service.cold_worker_restarts",
    "service.backlog_end",
)
CLASS_OF = {"cold": "cold", "rescan": "index_hit", "warm": "outcome_hit"}


def unit_of(name: str) -> str:
    """The unit of one ``service.*`` metric."""
    if "_s." in name or name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class Http:
    """One keep-alive JSON connection to the service."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = None

    def request(self, method: str, path: str, body=None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if (response.getheader("Connection") or "").lower() == "close":
            self.close()
        return response.status, json.loads(raw) if raw else None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Service:
    """A ``backdroid serve`` subprocess and its cold worker."""

    def __init__(self, root: str, store: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--store", store, "--store-mode", "full",
                "--backend", "indexed",
                "--workers", "1", "--cold-workers", "1",
                "--fast-lane-workers", "1",
                "--retain-jobs", "8192", "--drain-timeout", "5",
            ],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=root,
            preexec_fn=_death_signal(),
        )
        self.log_path = log_path
        self.worker_pids: list[int] = []
        self.http = Http(0)
        try:
            self.port = self._wait_for_port()
            self.http = Http(self.port)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited early; see {self.log_path}")
            with open(self.log_path) as log:
                found = re.search(r"listening on http://[\d.]+:(\d+)", log.read())
            if found:
                return int(found.group(1))
            time.sleep(0.02)
        raise RuntimeError("serve did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                if self.http.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("serve never answered /healthz")

    def stats(self) -> dict:
        stats = self.http.request("GET", "/v1/stats")[1]
        self.worker_pids = list(stats["cold"]["worker_pids"])
        return stats

    def peak_rss_mb(self) -> float:
        total = 0
        for pid in [self.proc.pid] + self.worker_pids:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def stop(self) -> list[int]:
        """Drain and stop serve and its workers; returns surviving pids."""
        self.http.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._log.close()
        survivors = []
        for pid in self.worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                survivors.append(pid)
        return survivors


def _death_signal():
    """A ``preexec_fn`` asking Linux to SIGTERM the child when the
    benchmark process dies, so a killed run leaves no ``serve`` behind
    (its cold workers exit when their pipe to ``serve`` closes)."""
    try:
        prctl = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").prctl
    except (OSError, AttributeError):
        return None
    return lambda: prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _body(app, rules=None) -> dict:
    body = {"app": app.name, "scale": SCALE}
    if rules is not None:
        body["rules"] = list(rules)
    return body


def _run_one(service: Service, body: dict) -> dict:
    """Submit one job and wait for its terminal record (setup only)."""
    status, record = service.http.request("POST", "/v1/jobs", body)
    if status != 202:
        raise RuntimeError(f"warm-up submission refused: {status} {record}")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        record = service.http.request("GET", f"/v1/jobs/{record['id']}")[1]
        if record["state"] in TERMINAL:
            if record["state"] != "done":
                raise RuntimeError(f"warm-up job failed: {record['error']}")
            return record
        time.sleep(0.01)
    raise RuntimeError("warm-up job timed out")


class Setup:
    """Apps, pre-warmed store, a booted and warmed-up service."""

    def __init__(self, seed: int, seconds: float, root: str, work: str):
        from repro.core.backdroid import BackDroidConfig
        from repro.core.batch import analyze_spec

        self.cycles = int(seconds * RATE) // len(CYCLE)
        corpus = Corpus(seed, SCALE, Q_LO, Q_HI)
        warm_cold = corpus.take(1)[0]
        self.hot = corpus.take(HOT_SET)
        self.cold = corpus.take(self.cycles)
        check_planted_truths(warm_cold)
        store = os.path.join(work, "store")
        shutil.rmtree(store, ignore_errors=True)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=store, store_mode="full"
        )
        self.prewarm: dict[int, tuple] = {}
        for app in self.hot:
            outcome = analyze_spec(app.spec, config)
            if not outcome.ok:
                raise RuntimeError(f"pre-warm of {app.name} failed: {outcome.error}")
            self.prewarm[app.index] = outcome.findings
        self.service = Service(root, store, os.path.join(work, "serve.log"))
        try:
            # One job of each kind outside the measured set: the cold
            # worker, the fast lane and the lazy restore path build their
            # lazy module state here.
            _run_one(self.service, _body(warm_cold))
            _run_one(self.service, _body(warm_cold, RESCAN_RULES))
            _run_one(self.service, _body(self.hot[0]))
        except BaseException:
            self.service.stop()
            raise


def _schedule(setup: Setup) -> list[tuple[str, object, float]]:
    """``(kind, app, offset_s)`` per submission; idle rescan slots of the
    first cycles (nothing to rescan yet) are left out."""
    lag_cycles = -(-int(RESCAN_LAG_S * RATE) // len(CYCLE))
    plan = []
    warm_turn = 0
    for cycle in range(setup.cycles):
        for position, kind in enumerate(CYCLE):
            offset = (cycle * len(CYCLE) + position) / RATE
            if kind == "cold":
                plan.append((kind, setup.cold[cycle], offset))
            elif kind == "warm":
                plan.append((kind, setup.hot[warm_turn % len(setup.hot)], offset))
                warm_turn += 1
            elif cycle >= lag_cycles:
                plan.append((kind, setup.cold[cycle - lag_cycles], offset))
    return plan


def run_load(setup: Setup) -> dict:
    """Drive the open loop and collect every job record."""
    service = setup.service
    plan = _schedule(setup)
    lock = threading.Lock()
    pending: set[str] = set()
    records: dict[str, dict] = {}
    stop = threading.Event()
    drain_deadline = [float("inf")]

    def poll() -> None:
        conn = Http(service.port)
        try:
            while True:
                with lock:
                    ids = list(pending)
                if stop.is_set() and (not ids or time.monotonic() > drain_deadline[0]):
                    return
                for job_id in ids:
                    try:
                        record = conn.request("GET", f"/v1/jobs/{job_id}")[1]
                    except OSError:
                        continue
                    if record and record.get("state") in TERMINAL:
                        with lock:
                            records[job_id] = record
                            pending.discard(job_id)
                time.sleep(0.25)
        finally:
            conn.close()

    #: ``(offset_s, probe_s)``: machine probes taken in the send gaps.
    probes: list[tuple[float, float]] = []
    poller = threading.Thread(target=poll, name="e2ebench-poll", daemon=True)
    poller.start()
    sent = []
    try:
        start_mono = time.monotonic()
        start_wall = time.time()
        for kind, app, offset in plan:
            if start_mono + offset - time.monotonic() > 0.03:
                probes.append((time.monotonic() - start_mono, machine_probe()))
            delay = start_mono + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lag = time.monotonic() - (start_mono + offset)
            rules = RESCAN_RULES if kind == "rescan" else None
            entry = {"kind": kind, "app": app, "due": start_wall + offset,
                     "offset": offset, "lag": lag, "rtt": None, "job": None,
                     "lane": None}
            t0 = time.monotonic()
            try:
                status, record = service.http.request(
                    "POST", "/v1/jobs", _body(app, rules)
                )
            except OSError:
                status, record = None, None
            entry["rtt"] = time.monotonic() - t0
            if status == 202:
                entry["job"] = record["id"]
                entry["lane"] = record["lane"]
                with lock:
                    pending.add(record["id"])
            sent.append(entry)
    finally:
        drain_deadline[0] = time.monotonic() + DRAIN_S
        stop.set()
        poller.join(timeout=DRAIN_S + 30)
    with lock:
        backlog = len(pending)
    return {"sent": sent, "records": records, "backlog": backlog,
            "probes": probes,
            "stats": service.stats(), "peak_rss_mb": service.peak_rss_mb()}


def evaluate(setup: Setup, load: dict, oracle: Oracle) -> dict:
    """Per-class latencies (at the reference machine speed), counts and
    the open-loop health verdict."""
    probes = load["probes"]

    def probe_near(offset: float) -> float:
        """The machine probe around one due time (median within 1 s)."""
        nearby = [p for t, p in probes if abs(t - offset) <= 1.0]
        return median(nearby or [p for _, p in probes])

    latency = {cls: [] for cls in CLASS_OF.values()}
    exec_cold: list[float] = []
    wait = {"fast": [], "main": []}
    run = {"fast": [], "main": []}
    failed = 0
    coalesced = 0
    cold_findings: dict[int, list] = {}
    warm_total = warm_in_slo = 0
    invalid = []
    ordered = sorted(load["sent"], key=lambda e: e["kind"] != "cold")
    first_due = min(e["due"] for e in load["sent"])
    timeline: list = []
    for entry in ordered:
        kind, app = entry["kind"], entry["app"]
        record = load["records"].get(entry["job"]) if entry["job"] else None
        if kind == "warm":
            warm_total += 1
        if entry["job"] is not None and entry["lane"] != ("main" if kind == "cold" else "fast"):
            invalid.append(f"{kind} {app.name} went to the {entry['lane']} lane")
        if record is None or record["state"] != "done" or record["result"].get("error"):
            failed += 1
            continue
        result = record["result"]
        probe_s = probe_near(entry["offset"])
        job_s = at_reference(record["finished_at"] - entry["due"], probe_s)
        timeline.append((round(entry["due"] - first_due, 3), kind, round(job_s, 4),
                         round(record["started_at"] - record["submitted_at"], 4),
                         round(record["finished_at"] - record["started_at"], 4)))
        latency[CLASS_OF[kind]].append(job_s)
        if record["started_at"] is not None:
            wait[record["lane"]].append(record["started_at"] - record["submitted_at"])
            run[record["lane"]].append(record["finished_at"] - record["started_at"])
        coalesced += record["coalesced_into"] is not None
        if kind == "cold":
            exec_cold.append(at_reference(
                record["finished_at"] - record["started_at"], probe_s
            ))
            cold_findings[app.index] = result["findings"]
            oracle.verdicts(app, result["findings"])
            oracle.expect(not result["store_hit"] and (
                not result["index_restored"] or result["shards_patched"] > 0
            ), f"cold {app.name}: job did not run cold")
        elif kind == "warm":
            warm_in_slo += job_s <= WARM_SLO_S
            oracle.verdicts(app, result["findings"])
            oracle.expect(result["store_hit"], f"warm {app.name}: not an outcome hit")
            oracle.same("warm", app, result["findings"], setup.prewarm[app.index])
        else:
            oracle.verdicts(app, result["findings"], RESCAN_RULES)
            oracle.expect(result["index_restored"] and not result["store_hit"]
                          and result["shards_patched"] == 0,
                          f"rescan {app.name}: not an index hit")
            if app.index in cold_findings:
                want = [f for f in cold_findings[app.index] if f[0] in RESCAN_RULES]
                oracle.same("rescan", app, result["findings"], want)
    attempted = len(load["sent"])
    gap = 1.0 / RATE
    lag_p90 = quantile([e["lag"] for e in load["sent"]], 0.9)
    if lag_p90 > gap:
        invalid.append(f"generator p90 lateness {lag_p90:.3f}s exceeds the {gap:.3f}s gap")
    if load["backlog"]:
        invalid.append(f"{load['backlog']} submission(s) still pending {DRAIN_S:g}s after the last send")
    stats = load["stats"]
    sessions = stats.get("sessions") or {}
    lookups = sessions.get("hits", 0) + sessions.get("misses", 0)
    return {
        "latency": latency,
        "attempted": attempted,
        "failed": failed,
        "apps_per_s": len(exec_cold) / sum(exec_cold) if exec_cold else 0.0,
        "warm_slo_frac": warm_in_slo / warm_total if warm_total else 0.0,
        "invalid": invalid,
        "timeline": sorted(timeline),
        "service": {
            "service.submit_rtt_s.p50": median([e["rtt"] for e in load["sent"]]),
            "service.submit_rtt_s.p90": quantile([e["rtt"] for e in load["sent"]], 0.9),
            "service.gen_lag_s.p90": lag_p90,
            "service.queue_wait_s.fast": median(wait["fast"]) if wait["fast"] else 0.0,
            "service.queue_wait_s.main": median(wait["main"]) if wait["main"] else 0.0,
            "service.exec_s.fast": median(run["fast"]) if run["fast"] else 0.0,
            "service.exec_s.main": median(run["main"]) if run["main"] else 0.0,
            "service.coalesced_frac": coalesced / attempted,
            "service.fast_lane_frac": sum(e["lane"] == "fast" for e in load["sent"]) / attempted,
            "service.session_hit_frac": sessions.get("hits", 0) / lookups if lookups else 0.0,
            "service.cold_worker_restarts": float(stats["cold"]["workers_restarted"]),
            "service.backlog_end": float(load["backlog"]),
        },
    }


def measure(setup: Setup, setup_s: float, traced: bool) -> RunResult:
    """Run the open loop; end-to-end metrics, or with *traced* the
    ``service.*`` layer metrics."""
    oracle = Oracle()
    try:
        load = run_load(setup)
    finally:
        survivors = setup.service.stop()
    result = evaluate(setup, load, oracle)
    if survivors:
        result["invalid"].append(f"worker pid(s) {survivors} outlived serve")
    metrics: dict = {}
    if traced:
        for name, value in result["service"].items():
            metrics[name] = (value, unit_of(name))
        report = "\n".join(
            f"  {k:32} {v:.4f}" for k, v in result["service"].items()
        )
    else:
        metrics["setup_s"] = (setup_s, "s")
        for cls, values in result["latency"].items():
            metrics[f"{cls}_job_s.p50"] = (median(values) if values else 0.0, "s")
            metrics[f"{cls}_job_s.p90"] = (quantile(values, 0.9) if values else 0.0, "s")
        metrics["apps_per_s"] = (result["apps_per_s"], "1/s")
        metrics["warm_slo_frac"] = (result["warm_slo_frac"], "ratio")
        attempted = result["attempted"]
        metrics["ok_frac"] = ((attempted - result["failed"]) / attempted, "ratio")
        metrics["verdict_agreement"] = (oracle.agreement, "ratio")
        metrics["peak_rss_mb"] = (load["peak_rss_mb"], "MB")
        counts = {cls: len(v) for cls, v in result["latency"].items()}
        report = f"  samples per class: {counts}"
    return RunResult(
        metrics, result["attempted"], result["failed"], oracle,
        invalid=result["invalid"], report=report,
        record={"probe_s": median([p for _, p in load["probes"]]),
                "service": result["service"],
                "timeline": result["timeline"]},
    )
