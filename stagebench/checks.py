"""Output checks against ground truth, independent of the pipeline's arithmetic.

Everything here reads the documented files (the dataset directory and the
reconstruction or sweep outputs) with plain ``json``, ``csv`` and ``numpy``;
nothing calls into ``resp4d`` except ``phantom.oracle_matches``, which is
computed from the phantom's true vessel centres.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A decision may disagree with the truth oracle only when the oracle's total
# lies within this many pixels of the threshold.  The largest gap between the
# pipeline's and the oracle's displacement totals on the two reconstruction
# workloads was 0.053 px over seeds 0-19 (see the README); the band is about
# twice that.
ORACLE_BAND_PX = 0.1


@dataclass
class DatasetFiles:
    """Data frames of every interleaved sequence, read straight from disk."""

    frame_shape: tuple[int, int]
    reference_frames: int  # frames of the first reference sequence
    data_frames: list[np.ndarray]  # per sequence: (n_data, H, W) uint16, ordinal 2k + 1 at k
    slice_mm: list[float]  # per sequence: data slice position


def read_dataset_files(root: Path) -> DatasetFiles:
    meta = json.loads((root / "dataset.json").read_text())
    h, w = meta["frame_shape"]
    data_frames, slice_mm = [], []
    reference_frames = json.loads((root / meta["references"][0] / "seq.json").read_text())["frame_count"]
    for name in meta["sequences"]:
        if name in meta["references"]:
            continue
        seq = json.loads((root / name / "seq.json").read_text())
        stack = np.fromfile(root / name / "frames.u16le", dtype="<u2").reshape(seq["frame_count"], h, w)
        data = [k for k, kind in enumerate(seq["kinds"]) if kind == "data"]
        if data != list(range(1, seq["frame_count"], 2)):
            raise ValueError(f"{name}: data frames are not at the odd ordinals")
        data_frames.append(stack[1::2])
        slice_mm.append(float(seq["slice_positions_mm"][1]))
    return DatasetFiles((h, w), reference_frames, data_frames, slice_mm)


@dataclass
class OutputCounts:
    """Counts read back from one operation's outputs."""

    decisions: int
    accepted: int
    rate_pct: float


def read_matches(path: Path) -> dict[tuple[int, int, int], tuple[bool, float]]:
    """(sequence, timepoint, data frame ordinal) -> (accepted, total)."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["sequence_index"]), int(row["reference_timepoint"]), int(row["data_frame_index"]))
            out[key] = (row["accepted"] == "1", float(row["total"]))
    return out


def check_reconstruction(
    out_dir: Path,
    files: DatasetFiles,
    oracle: dict[tuple[int, int, int], tuple[bool, float]],
    threshold: float,
) -> tuple[list[str], OutputCounts]:
    """Check one reconstruction output directory against the oracle and the dataset files."""
    problems: list[str] = []
    matches = read_matches(out_dir / "matches.csv")
    if set(matches) != set(oracle):
        problems.append(f"matches.csv has {len(matches)} decisions, the oracle {len(oracle)}, keys differ")
    for key, (accepted, _) in matches.items():
        expected = oracle.get(key)
        if expected is None or expected[0] == accepted:
            continue
        gap = abs(expected[1] - threshold)
        if gap > ORACLE_BAND_PX:
            problems.append(
                f"decision {key} accepted={accepted} disagrees with the oracle "
                f"{gap:.4f} px from the threshold (band {ORACLE_BAND_PX} px)"
            )

    manifest = json.loads((out_dir / "volume4d.json").read_text())
    report = json.loads((out_dir / "report.json").read_text())
    timepoints = sorted({key[1] for key in oracle})
    order = sorted(range(len(files.slice_mm)), key=lambda s: files.slice_mm[s])
    if manifest["timepoints"] != timepoints:
        problems.append(f"volume4d.json timepoints {manifest['timepoints'][:3]}... differ from {timepoints[:3]}...")
    if manifest["slice_positions_mm"] != [files.slice_mm[s] for s in order]:
        problems.append("volume4d.json slice positions are not the data slices in ascending order")
    if manifest["stacks"] != [f"t{i:04d}.u16le" for i in timepoints]:
        problems.append("volume4d.json stacks do not name one file per timepoint")

    per_sequence = {str(s): 0 for s in range(len(files.slice_mm))}
    accepted_frames: dict[tuple[int, int], list[int]] = {}  # (sequence, timepoint) -> data frame k
    for (s, i, d), (accepted, _) in sorted(matches.items()):
        if accepted:
            per_sequence[str(s)] += 1
            accepted_frames.setdefault((s, i), []).append((d - 1) // 2)
    if report["per_sequence_matches"] != per_sequence:
        problems.append(f"report.json per_sequence_matches {report['per_sequence_matches']} != {per_sequence}")

    h, w = files.frame_shape
    completeness, missing = [], {}
    for i in timepoints:
        row = []
        stack_path = out_dir / f"t{i:04d}.u16le"
        saved = np.fromfile(stack_path, dtype="<u2")
        if saved.size != len(order) * h * w:
            problems.append(f"{stack_path.name}: {saved.size} voxels, expected {len(order) * h * w}")
            continue
        saved = saved.reshape(len(order), h, w)
        for si, s in enumerate(order):
            ks = accepted_frames.get((s, i), [])
            if ks:
                expected = np.rint(files.data_frames[s][ks].astype(np.float64).sum(axis=0) / len(ks))
            else:
                expected = np.zeros((h, w))
                missing.setdefault(str(i), []).append(files.slice_mm[s])
            row.append(bool(ks))
            if not np.array_equal(saved[si], expected):
                bad = int(np.count_nonzero(saved[si] != expected))
                problems.append(
                    f"{stack_path.name} slice {si}: {bad} voxels differ from the mean of the "
                    f"{len(ks)} accepted frames"
                )
        completeness.append(row)
    if manifest["completeness"] != completeness:
        problems.append("volume4d.json completeness does not match the accepted rows of matches.csv")
    if report["missing"] != missing:
        problems.append("report.json missing does not match the empty cells")
    cells = len(timepoints) * len(order)
    filled = sum(map(sum, completeness))
    rate = 100.0 * filled / cells if cells else 0.0
    if not math.isclose(report["reconstruction_rate"], rate, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"report.json rate {report['reconstruction_rate']} != {rate} from matches.csv")

    counts = OutputCounts(len(matches), sum(acc for acc, _ in matches.values()), rate)
    return problems, counts


def check_sweep(
    rates_csv: Path, files: DatasetFiles, thresholds, methods, measures
) -> tuple[list[str], OutputCounts]:
    """Rates rise with the threshold, and updating beats baseline everywhere.

    The decision count is computed from the dataset layout: every cell decides
    each eligible reference timepoint against each data frame.
    """
    problems: list[str] = []
    rates, accepted = {}, 0
    with open(rates_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], row["measure"], float(row["threshold_px"]))
            rates[key] = float(row["rate_percent"])
            accepted += int(row["matches"])
    decisions = len(rates) * (files.reference_frames - 2) * sum(len(d) for d in files.data_frames)
    expected = {(m, q, float(t)) for m in methods for q in measures for t in thresholds}
    if set(rates) != expected:
        problems.append(f"rates.csv has cells {sorted(rates)}, expected {sorted(expected)}")
        return problems, OutputCounts(decisions, accepted, 0.0)
    ordered = sorted(float(t) for t in thresholds)
    for measure in measures:
        for method in methods:
            series = [rates[(method, measure, t)] for t in ordered]
            if series != sorted(series):
                problems.append(f"{method}/{measure}: rates {series} fall as the threshold rises")
        for t in ordered:
            upd, base = rates[("updating", measure, t)], rates[("baseline", measure, t)]
            if not upd > base:
                problems.append(f"{measure} at {t} px: updating {upd}% does not beat baseline {base}%")
    # the rate reported is the cell with the CLI defaults: updating, ccoeff, 1 px
    return problems, OutputCounts(decisions, accepted, rates[("updating", "ccoeff_normed", 1.0)])
