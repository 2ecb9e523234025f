"""tools/bench_pairs.py on synthetic runs: quartiles, the verdicts per metric, and the entries it keeps."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_DECLARED = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    ]
}


def test_quartiles_are_inclusive_and_one_run_is_its_own_spread():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


@pytest.fixture
def checkouts(tmp_path):
    dirs = {}
    for side in bench_pairs.SIDES:
        src = tmp_path / side / "src" / "resp4d"
        src.mkdir(parents=True)
        (src / "a.py").write_text("x = 1\n" * (3 if side == "parent" else 2))
        dirs[side] = tmp_path / side
    # the change's BENCHMARK.json names the metrics and bounds that are judged
    (dirs["change"] / "BENCHMARK.json").write_text(json.dumps(_DECLARED))
    return dirs


def _fake_runs(calls, failing_call=None):
    """A run_once stand-in: the change runs 0.2 s faster, sets up 50 % slower and holds the same memory."""

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        if len(calls) == failing_call:
            raise subprocess.CalledProcessError(1, ["run.py"], stderr="boom")
        i = seed - 40
        change = checkout.name == "change"
        return {
            "attempted": 10,
            "failed": 1 if change and i == 3 else 0,
            "correct": True,
            "metrics": {
                "run_s": (0.8 if change else 1.0) + 0.01 * i,
                "setup_s": (0.3 if change else 0.2) + 0.001 * i,
                "peak_rss_mb": 50.0,
            },
        }

    return run_once


def test_main_alternates_sides_and_judges_each_declared_metric(checkouts, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_runs(calls))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"other_workload": {"workload": "other_workload", "kept": True}}))
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "w", "--pairs", "4", "--seed", "40", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # even pairs run the parent first, odd pairs the change first
    assert [(side, seed) for side, _, seed in calls] == [
        ("parent", 40), ("change", 40), ("change", 41), ("parent", 41),
        ("parent", 42), ("change", 42), ("change", 43), ("parent", 43),
    ]
    entries = json.loads(out.read_text())
    assert entries["other_workload"] == {"workload": "other_workload", "kept": True}
    entry = entries["w"]
    assert entry["complete"] and entry["all_correct"]
    assert entry["seeds"] == [40, 41, 42, 43] and len(entry["runs"]) == 8
    assert entry["src_lines"] == {"parent": 3, "change": 2}
    assert entry["operations"] == {"parent": {"attempted": 40, "failed": 0}, "change": {"attempted": 40, "failed": 1}}
    run_s = entry["summary"]["parent"]["run_s"]
    assert run_s["median"] == pytest.approx(1.015) and run_s["iqr"] == pytest.approx(0.015)
    wins = entry["wins"]
    assert wins["run_s"]["change_won"] == 4
    assert wins["run_s"]["median_gain"] == pytest.approx(0.2)
    assert wins["run_s"]["gain_exceeds_parent_iqr"] and not wins["run_s"]["worse_than_bound"]
    # 50 % slower set-up is past its 25 % bound; equal memory neither wins nor loses
    assert wins["setup_s"]["change_won"] == 0 and wins["setup_s"]["worse_than_bound"]
    assert not wins["setup_s"]["gain_exceeds_parent_iqr"]
    assert wins["peak_rss_mb"]["change_won"] == 0 and wins["peak_rss_mb"]["median_gain"] == 0.0
    assert not wins["peak_rss_mb"]["gain_exceeds_parent_iqr"] and not wins["peak_rss_mb"]["worse_than_bound"]

    # a second workload's run replaces only its own entry
    monkeypatch.setattr(bench_pairs, "run_once", _fake_runs([]))
    assert bench_pairs.main(argv[:5] + ["w2"] + argv[6:]) == 0
    assert set(json.loads(out.read_text())) == {"other_workload", "w", "w2"}


def test_a_failed_run_writes_an_incomplete_entry(checkouts, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_runs(calls, failing_call=3))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "w", "--pairs", "4", "--seed", "40", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "boom" in capsys.readouterr().err
    entry = json.loads(out.read_text())["w"]
    assert not entry["complete"] and len(entry["runs"]) == 2 and "wins" not in entry
