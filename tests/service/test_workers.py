"""Tests for the process-isolated worker substrate (`repro.service.workers`)."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import BackDroidConfig
from repro.core.batch import analyze_spec, outcome_payload
from repro.service.workers import ProcessLane, run_analysis_payload
from repro.workload.corpus import benchmark_app_spec

SCALE = 0.05


def _running(pid):
    """Whether *pid* is a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _config(tmp_path=None):
    kwargs = {"search_backend": "indexed"}
    if tmp_path is not None:
        kwargs["store_dir"] = str(tmp_path / "store")
    return BackDroidConfig(**kwargs)


class TestWorkerEntryPoints:
    def test_run_analysis_payload_is_the_outcome_payload(self):
        spec = benchmark_app_spec(1, scale=SCALE)
        config = _config()
        payload = run_analysis_payload(spec, config)
        reference = outcome_payload(analyze_spec(spec, config))
        assert payload["package"] == reference["package"]
        assert payload["findings"] == reference["findings"]
        assert payload["schema_version"] == reference["schema_version"]
        assert payload["error"] is None


class TestProcessLane:
    def test_execute_runs_out_of_process_with_identical_results(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        config = _config()
        with ProcessLane(workers=1) as lane:
            result = lane.execute("job-1", spec, config, None)
            assert result.payload is not None
            assert not result.killed and not result.died
            assert result.pid != os.getpid()
            assert result.pid in lane.pids()
        reference = run_analysis_payload(spec, config)
        assert result.payload["package"] == reference["package"]
        assert result.payload["findings"] == reference["findings"]

    def test_lane_has_one_process_per_worker(self):
        with ProcessLane(workers=2) as lane:
            pids = lane.pids()
            assert len(pids) == 2
            assert os.getpid() not in pids

    def test_kill_running_reaps_worker_and_respawns(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        config = _config()
        with ProcessLane(workers=1) as lane:
            (original_pid,) = lane.pids()
            import threading

            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    lane.execute("job-1", spec, config, None, stall_seconds=30)
                )
            )
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not lane.kill("job-1"):
                time.sleep(0.01)
            thread.join(timeout=10)
            assert results, "execute never returned after kill"
            result = results[0]
            assert result.killed and not result.died
            assert result.payload is None
            assert result.pid == original_pid
            # Capacity is invariant: a replacement worker was forked.
            assert lane.workers_restarted == 1
            replacement = lane.pids()
            assert len(replacement) == 1
            assert replacement != [original_pid]
            # The replacement actually serves work.
            again = lane.execute("job-2", spec, config, None)
            assert again.payload is not None
            assert again.pid == replacement[0]

    def test_kill_before_dispatch_refuses_the_work(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        with ProcessLane(workers=1) as lane:
            assert lane.kill("job-1") is False  # not bound yet: remembered
            result = lane.execute("job-1", spec, _config(), None)
            assert result.killed and result.payload is None
            # The lane is unharmed for other tokens.
            ok = lane.execute("job-2", spec, _config(), None)
            assert ok.payload is not None

    def test_worker_crash_reports_died_and_respawns(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        with ProcessLane(workers=1) as lane:
            (pid,) = lane.pids()
            import threading

            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    lane.execute("job-1", spec, _config(), None,
                                 stall_seconds=30)
                )
            )
            thread.start()
            time.sleep(0.2)  # let the task land on the worker
            os.kill(pid, signal.SIGKILL)  # simulate an OOM-style death
            thread.join(timeout=10)
            assert results
            result = results[0]
            assert result.died and not result.killed
            assert result.payload is None
            assert lane.workers_restarted == 1
            assert len(lane.pids()) == 1

    def test_shutdown_stops_every_worker(self):
        lane = ProcessLane(workers=2)
        processes = [w.process for w in lane._all]
        lane.shutdown(wait=True)
        assert all(not p.is_alive() for p in processes)
        assert lane.pids() == []

    def _assert_workers_die_with_their_owner(self, owner_script, workers):
        """Run *owner_script* (which prints the pids of its lane's
        *workers* workers), SIGKILL it, and require every one of them
        gone within 5 s."""
        owner = subprocess.Popen(
            [sys.executable, "-c", owner_script],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == workers
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not any(map(_running, pids)), "workers outlived their owner"
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
            for pid in filter(_running, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_their_owner_is_sigkilled(self):
        # An owner killed with no chance to shut its lane down must not
        # leave idle workers behind: each one's pipe reads EOF once no
        # live process holds the parent end.
        self._assert_workers_die_with_their_owner(
            "import time\n"
            "from repro.service.workers import ProcessLane\n"
            "lane = ProcessLane(workers=2)\n"
            "print(*lane.pids(), flush=True)\n"
            "time.sleep(120)\n",
            workers=2,
        )

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_busy_workers_exit_when_their_owner_is_sigkilled(self):
        # A worker inside a task reads no pipe, so it must notice its
        # owner's death some other way, well before the task ends.
        self._assert_workers_die_with_their_owner(
            "import threading, time\n"
            "from repro.service.workers import ProcessLane\n"
            "from repro.workload.corpus import benchmark_app_spec\n"
            "lane = ProcessLane(workers=1)\n"
            "spec = benchmark_app_spec(0, scale=0.05)\n"
            "threading.Thread(target=lane.execute, daemon=True,\n"
            "                 args=('job-1', spec, None, None, 60)).start()\n"
            "while not lane._running:\n"
            "    time.sleep(0.01)\n"
            "time.sleep(0.5)  # the task is on the worker: it stalls\n"
            "print(*lane.pids(), flush=True)\n"
            "time.sleep(120)\n",
            workers=1,
        )

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessLane(workers=0)
