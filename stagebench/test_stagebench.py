"""The benchmark's own test: its checks reject corrupted outputs, and every
workload runs once at reduced size with every declared metric reported.

    python3 -m pytest -q stagebench/test_stagebench.py
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from checks import check_reconstruction, read_dataset_files, read_matches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reconstruction(tmp_path_factory):
    """One reduced baseline_bulk reconstruction that passes its checks."""
    workload = WORKLOADS["baseline_bulk"]
    root = tmp_path_factory.mktemp("recon")
    inputs = workload.setup(0, root / "input", smoke=True)
    workload.operation(inputs, root / "out")
    files = read_dataset_files(inputs.dataset_dir)
    problems, counts = workload.check(root / "out", inputs, files)
    assert problems == []
    assert counts.accepted > 0
    return root / "out", inputs, files


def _copy(out: Path, target: Path) -> Path:
    target.mkdir()
    for f in out.iterdir():
        (target / f.name).write_bytes(f.read_bytes())
    return target


def _rewrite_matches(path: Path, flip) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    index = next(i for i, row in enumerate(rows[1:], 1) if flip(row))
    rows[index][4] = "0" if rows[index][4] == "1" else "1"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("accepted", ["1", "0"])
def test_one_flipped_decision_is_rejected(reconstruction, tmp_path, accepted):
    out, inputs, files = reconstruction
    bad = _copy(out, tmp_path / "bad")
    # a rejected decision far above the threshold, or any accepted one
    _rewrite_matches(bad / "matches.csv", lambda row: row[4] == accepted and (accepted == "1" or float(row[3]) > 5))
    problems, _ = check_reconstruction(bad, files, inputs.oracle, 1.0)
    assert problems


def test_one_dropped_frame_is_rejected(reconstruction, tmp_path):
    out, inputs, files = reconstruction
    bins: dict[tuple[int, int], list[int]] = {}
    for (s, i, d), (acc, _) in read_matches(out / "matches.csv").items():
        if acc:
            bins.setdefault((s, i), []).append((d - 1) // 2)
    (s, i), ks = next((key, ks) for key, ks in sorted(bins.items()) if len(ks) >= 2)
    bad = _copy(out, tmp_path / "bad")
    h, w = files.frame_shape
    order = sorted(range(len(files.slice_mm)), key=lambda q: files.slice_mm[q])
    stack = np.fromfile(bad / f"t{i:04d}.u16le", dtype="<u2").reshape(len(order), h, w)
    kept = files.data_frames[s][ks[1:]].astype(np.float64)
    stack[order.index(s)] = np.rint(kept.mean(axis=0)).astype("<u2")
    stack.tofile(bad / f"t{i:04d}.u16le")
    problems, _ = check_reconstruction(bad, files, inputs.oracle, 1.0)
    assert any(f"t{i:04d}.u16le" in p for p in problems)


@pytest.mark.parametrize("cell", [("updating", "ccorr_normed", "0.5"), ("baseline", "ccoeff_normed", "2.0")])
def test_sweep_check_rejects_updating_not_ahead(tmp_path, cell):
    workload = WORKLOADS["sweep_split"]
    inputs = workload.setup(0, tmp_path / "input", smoke=True)
    workload.operation(inputs, tmp_path / "out")
    files = read_dataset_files(inputs.dataset_dir)
    assert workload.check(tmp_path / "out", inputs, files)[0] == []
    rates = tmp_path / "out" / "rates.csv"
    with open(rates, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if (row[1], row[2], row[3]) == cell:
            # updating drops to zero, or baseline jumps to a full volume
            row[4] = "0.0000" if cell[0] == "updating" else "100.0000"
    with open(rates, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems, _ = workload.check(tmp_path / "out", inputs, files)
    assert problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_reports_every_declared_metric(name):
    layered = run.run_workload(name, seed=0, seconds=0.0, trace=True, smoke=True)
    assert layered["correct"] and layered["failed"] == 0 and layered["attempted"] == 2
    assert set(layered["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    plain = run.run_workload(name, seed=0, seconds=0.0, trace=False, smoke=True)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
