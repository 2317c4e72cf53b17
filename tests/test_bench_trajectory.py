"""``scripts/bench_trajectory.py`` on synthetic run outputs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_trajectory  # noqa: E402

DECLARED = [
    {"name": "job_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "apps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "never_reported", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run_file(path, job_s, apps_per_s, correct=True):
    """A run's stdout: a report, then its JSON result as the last line."""
    result = {
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {
            "job_s.p50": {"value": job_s, "unit": "s"},
            "apps_per_s": {"value": apps_per_s, "unit": "1/s"},
            "unlisted_layer_s": {"value": 1.0, "unit": "s"},
        },
    }
    path.write_text("a report line\n" + json.dumps(result) + "\n\n")
    return str(path)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A repository root holding only a ``BENCHMARK.json``."""
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": DECLARED})
    )
    monkeypatch.setattr(bench_trajectory, "ROOT", str(tmp_path))
    return tmp_path


def _args(parent, change, label="first"):
    return [
        "--workload", "demo", "--label", label,
        "--parent-sha", "aaa", "--change-sha", "bbb",
        "--seed", "7", "--seconds", "50",
        "--parent", *parent, "--change", *change,
    ]


def test_appends_one_record_per_comparison(root):
    parent = [
        _run_file(root / f"p{i}.out", job_s, 2.0)
        for i, job_s in enumerate([0.010, 0.012, 0.011, 0.013])
    ]
    change = [
        _run_file(root / f"c{i}.out", job_s, apps)
        for i, (job_s, apps) in enumerate(
            [(0.009, 2.5), (0.012, 2.0), (0.010, 1.5), (0.011, 2.1)]
        )
    ]
    assert bench_trajectory.main(_args(parent, change)) == 0
    [record] = json.loads((root / "BENCH_demo.json").read_text())
    assert {k: record[k] for k in (
        "label", "parent_sha", "change_sha", "seed", "seconds", "pairs",
        "correct",
    )} == {
        "label": "first", "parent_sha": "aaa", "change_sha": "bbb",
        "seed": 7, "seconds": 50.0, "pairs": 4, "correct": True,
    }
    # Only declared metrics that every run reports.
    assert sorted(record["metrics"]) == ["apps_per_s", "job_s.p50"]
    job = record["metrics"]["job_s.p50"]
    assert job["unit"] == "s" and job["better"] == "lower"
    assert job["parent"]["median"] == pytest.approx(0.0115)
    assert job["parent"]["iqr"] == pytest.approx(0.0015)
    assert job["change"]["median"] == pytest.approx(0.0105)
    # Lower is better: pairs 0, 2 and 3 won, pair 1 tied.
    assert job["change_won"] == 3
    apps = record["metrics"]["apps_per_s"]
    # Higher is better: pairs 0 and 3 won, pair 1 tied, pair 2 lost.
    assert apps["change_won"] == 2

    again = [_run_file(root / "late.out", 0.020, 1.0, correct=False)]
    assert bench_trajectory.main(_args(again, again, label="second")) == 0
    history = json.loads((root / "BENCH_demo.json").read_text())
    assert [r["label"] for r in history] == ["first", "second"]
    assert history[1]["pairs"] == 1 and not history[1]["correct"]
    assert history[1]["metrics"]["job_s.p50"]["parent"] == {
        "median": 0.020, "iqr": 0.0,
    }
    assert history[1]["metrics"]["job_s.p50"]["change_won"] == 0


def test_unpaired_runs_are_refused(root, capsys):
    parent = [_run_file(root / f"p{i}.out", 0.01, 2.0) for i in range(2)]
    change = [_run_file(root / "c0.out", 0.01, 2.0)]
    assert bench_trajectory.main(_args(parent, change)) == 2
    assert "as many change runs as parent runs" in capsys.readouterr().err
    assert not (root / "BENCH_demo.json").exists()


def test_output_without_a_result_line_is_refused(root):
    (root / "bad.out").write_text("Traceback (most recent call last):\n")
    good = _run_file(root / "good.out", 0.01, 2.0)
    assert bench_trajectory.main(_args([str(root / "bad.out")], [good])) == 2
