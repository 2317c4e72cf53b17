#!/usr/bin/env python3
"""Append one parent/change comparison to ``BENCH_<workload>.json``.

A performance claim is measured as alternating pairs of
``e2ebench/run.py`` runs of one workload: one run of the parent commit,
one of the change, with the side that runs first alternating.  Save
each run's stdout to a file, then record the comparison from the root
of the repository::

    python3 scripts/bench_trajectory.py --workload corpus_rescan \\
        --label "ICC name search from the token index" \\
        --parent-sha <sha> --change-sha <sha> --seed 4242 --seconds 50 \\
        --parent parent-1.out parent-2.out ... \\
        --change change-1.out change-2.out ...

The i-th parent file and the i-th change file form pair i.  Each file's
last line is the run's JSON result.  The record names every end-to-end
metric ``BENCHMARK.json`` declares that the runs report: its unit, the
median and interquartile range of each side, and the number of pairs
the change won (ties count for neither side).  The record is appended
to ``BENCH_<workload>.json`` at the repository root, a JSON list that
keeps the repository's perf history.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_result(path: str) -> dict:
    """The JSON result on the last non-empty line of one run's stdout."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no output")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and interquartile range of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def compare(
    declared: list[dict], parent: list[dict], change: list[dict]
) -> dict:
    """Per-metric spreads and pair wins of the change over the parent.

    ``declared`` is ``BENCHMARK.json``'s ``end_to_end`` list; a metric
    missing from any run is left out.
    """
    if not parent or len(parent) != len(change):
        raise ValueError(
            f"need as many change runs as parent runs, and at least one "
            f"(got {len(parent)} parent, {len(change)} change)"
        )
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if not all(name in run["metrics"] for run in parent + change):
            continue
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        sign = 1 if spec["better"] == "higher" else -1
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": spread(before),
            "change": spread(after),
            "change_won": sum(
                sign * (new - old) > 0 for old, new in zip(before, after)
            ),
        }
    return metrics


def make_record(args, declared: list[dict]) -> dict:
    parent = [read_result(path) for path in args.parent]
    change = [read_result(path) for path in args.change]
    return {
        "label": args.label,
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": len(parent),
        "correct": all(run["correct"] for run in parent + change),
        "metrics": compare(declared, parent, change),
    }


def append_record(path: str, record: dict) -> None:
    """Append *record* to the JSON list at *path* (created if absent)."""
    history = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    history.append(record)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--parent", nargs="+", required=True,
                        help="the parent's run outputs, in pair order")
    parser.add_argument("--change", nargs="+", required=True,
                        help="the change's run outputs, in pair order")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["end_to_end"]
    try:
        record = make_record(args, declared)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    append_record(out, record)
    print(f"appended {args.label!r} ({record['pairs']} pairs) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
