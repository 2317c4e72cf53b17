#!/usr/bin/env python3
"""End-to-end benchmark driver for the BackDroid reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload corpus_rescan --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload http_mixed --seed 1 --seconds 40 --trace 1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics (a per-layer
metric the workload does not exercise reads 0: ``corpus_rescan`` has no
service, and ``http_mixed`` reads layers only from the outside).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The process exits nonzero when a job's
findings disagree with an earlier path's findings for the same app or a
job took the wrong path, and when an ``http_mixed`` run is invalid
(generator late, backlog left, or a warm submission missed the fast
lane).  A run record with the git sha, ``nproc``, load average, seed
and workload constants is written under ``e2ebench/.work/records``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus_rescan", "http_mixed")
#: Setups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--baseline", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args, work):
    if args.workload == "corpus_rescan":
        import rescan

        return rescan.setup(args.seed, args.seconds, work)
    import http_mixed

    return http_mixed.Setup(args.seed, args.seconds, ROOT, work)


def _teardown(args, ctx) -> None:
    if args.workload == "http_mixed":
        ctx.service.stop()


def _child(args, flag: str, timeout: float) -> dict:
    """Run this script in a fresh interpreter; returns its JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), flag],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{flag} child failed:\n" + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    import http_mixed
    import layers
    import rescan

    units = {f"{cls}.{name}": rescan.unit_of(name) for cls in rescan.CLASSES
             for name in layers.LAYER_METRICS}
    units.update((name, http_mixed.unit_of(name))
                 for name in http_mixed.SERVICE_METRICS)
    return units


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    work = os.path.join(
        HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(work)
    load_before = os.getloadavg()
    try:
        if args.trace and args.workload == "corpus_rescan":
            # The overhead baseline: an untraced pass set in a fresh
            # interpreter, so neither side inherits the other's caches.
            untraced_p50 = _child(args, "--baseline", 170)["p50"]
        ctx = _setup(args, work)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_probe:
            _teardown(args, ctx)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.workload == "corpus_rescan":
            import rescan

            if args.baseline:
                results = rescan.run_passes(
                    ctx.apps, os.path.join(work, "store"), rescan.Oracle()
                )
                print(json.dumps({"p50": rescan.p50s(results)}))
                return 0
            if args.trace:
                result = rescan.measure_traced(ctx, untraced_p50)
            else:
                result = rescan.measure(ctx, setup_s)
        else:
            import http_mixed

            result = http_mixed.measure(ctx, setup_s, bool(args.trace))
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [
                _child(args, "--setup-probe", 150)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            setup_samples.sort()
            result.metrics["setup_s"] = (setup_samples[len(setup_samples) // 2], "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result.metrics
    if args.trace:
        for name, unit in _layer_units().items():
            metrics.setdefault(name, (0.0, unit))
    mismatches = result.oracle.mismatches
    correct = not mismatches and not result.invalid
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "constants": _constants(args.workload), "setup_samples": setup_samples,
        "correct": correct, "mismatches": mismatches[:20],
        "invalid": result.invalid, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: v[0] for k, v in metrics.items()},
        **result.record,
    }
    records = os.path.join(HERE, ".work", "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(
        records, f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}.json"
    ), "w") as out:
        json.dump(record, out, indent=1)
    if result.report:
        print(result.report)
    for problem in mismatches[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    for problem in result.invalid:
        print(f"INVALID: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


def _constants(workload: str) -> dict:
    import rescan

    constants = {"quantiles": [rescan.Q_LO, rescan.Q_HI]}
    if workload == "corpus_rescan":
        constants.update(scale=rescan.SCALE,
                         apps_per_second=rescan.APPS_PER_SECOND,
                         warm_slo_s=rescan.WARM_SLO_S)
    else:
        import http_mixed

        constants.update(
            scale=http_mixed.SCALE,
            rate=http_mixed.RATE, cycle=list(http_mixed.CYCLE),
            hot_set=http_mixed.HOT_SET, warm_slo_s=http_mixed.WARM_SLO_S,
            rescan_lag_s=http_mixed.RESCAN_LAG_S,
        )
    return constants


if __name__ == "__main__":
    sys.exit(main())
