"""Sort matched data frames into a time-resolved (4D) volume.

For every eligible reference timepoint (all but the boundary frames) each
interleaved sequence contributes the data frames whose enclosing navigators
agree with the timepoint's breathing state.  Matched frames are averaged
pixelwise per slice position, slices are stacked in ascending position order,
and empty bins are recorded in a completeness map and stored black.

Which templates face the interleaved navigators depends on the method: the
updating method localizes with the template set of the specific reference
frame being compared (so template appearance is state-aligned on both sides),
the baseline uses the frame-0 set everywhere.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .criterion import AGGREGATIONS, AGG_SUM, decide
from .errors import ValidationError
from .imgcore import Dataset, InterleavedSequence, quantize_u16
from .matcher import MEASURES, CCOEFF_NORMED
from .tracker import (
    DEFAULT_MIN_SCORE,
    DEFAULT_SEARCH_RADIUS,
    FIXED,
    UPDATING,
    RoiSpec,
    locate_in_navigator,
    track_reference,
)

BASELINE_METHOD = "baseline"
UPDATING_METHOD = "updating"
METHODS = (BASELINE_METHOD, UPDATING_METHOD)


@dataclass
class ReconstructionConfig:
    reference: int = 1
    method: str = UPDATING_METHOD
    measure: str = CCOEFF_NORMED
    threshold_px: float = 1.0
    search_radius: int | None = DEFAULT_SEARCH_RADIUS  # None searches the full frame
    min_score: float = DEFAULT_MIN_SCORE
    aggregation: str = AGG_SUM
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.reference not in (1, 2):
            raise ValidationError(f"reference must be 1 or 2, got {self.reference!r}")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.measure not in MEASURES:
            raise ValidationError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not (math.isfinite(self.threshold_px) and self.threshold_px >= 0):
            raise ValidationError(f"threshold must be finite and non-negative, got {self.threshold_px}")
        if not math.isfinite(self.min_score):
            raise ValidationError(f"min score must be finite, got {self.min_score}")
        if self.search_radius is not None and self.search_radius < 1:
            raise ValidationError(f"search radius must be >= 1 or None, got {self.search_radius}")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class Volume4D:
    timepoints: list[int]
    slice_positions_mm: list[float]
    voxels: np.ndarray  # (n_timepoints, n_slices, H, W) float64
    completeness: np.ndarray  # (n_timepoints, n_slices) bool
    voxel_spacing_mm: tuple[float, float, float]  # (row, column, slice step)


@dataclass
class ReconstructionReport:
    reconstruction_rate: float  # percent of (eligible timepoint, slice) cells filled
    per_sequence_matches: dict[int, int]
    sequence_slice_mm: dict[int, float]  # acquisition index -> slice position
    missing: dict[int, list[float]]  # timepoint -> slice positions left empty
    widened_count: int
    seconds: float
    config: ReconstructionConfig
    # one (n_timepoints, n_data_frames) array per acquisition index: row i - 1
    # is timepoint i, column k the data frame at ordinal 2k + 1 (criterion.decide)
    totals: list[np.ndarray]  # float64 summed displacement
    accepted: list[np.ndarray]  # bool


def average_bin(frames) -> np.ndarray:
    """Pixelwise double-precision mean of a non-empty list of frames."""
    if not frames:
        raise ValueError("cannot average an empty bin")
    arrays = [np.asarray(getattr(f, "pixels", f), dtype=np.float64) for f in frames]
    return np.mean(np.stack(arrays), axis=0)


def _locate_chain(
    seq: InterleavedSequence,
    templates: list,
    measure: str,
    radius: int | None,
    min_score: float,
) -> tuple[np.ndarray, int]:
    """Localize every navigator of a sequence, chaining priors nav to nav."""
    navs = seq.navigators()
    pos = np.zeros((len(navs), len(templates), 2))
    widened = 0
    prior = None
    for n, nav in enumerate(navs):
        results = locate_in_navigator(nav, templates, prior, measure, radius, min_score)
        for v, res in enumerate(results):
            pos[n, v] = res.position
            widened += int(res.widened)
        prior = [res.position for res in results]
    return pos, widened


def displacement_tables(
    dataset: Dataset, rois: RoiSpec, config: ReconstructionConfig
) -> tuple[list[np.ndarray], int]:
    """Track the reference, localize every navigator, and measure displacements.

    Returns one table ``D[r, n, v]`` per interleaved sequence, the distance of
    vessel ``v`` between reference navigator ``r`` and the sequence's
    navigator ``n``, plus the number of widened searches.  The threshold and
    aggregation play no part here, so one set of tables serves every
    threshold.
    """
    ref = dataset.reference(config.reference)
    if len(ref.frames) < 3:
        raise ValidationError("reference sequence too short: no eligible timepoints")

    mode = UPDATING if config.method == UPDATING_METHOD else FIXED
    radius = None if config.method == BASELINE_METHOD else config.search_radius
    trace, sets = track_reference(ref, rois, config.measure, radius, mode, config.min_score)

    # updating tracking yields one template set per reference frame, fixed
    # tracking only the frame-0 set; each set localizes every sequence
    seqs = dataset.interleaved
    tasks = [(r, s) for r in range(len(sets)) for s in range(len(seqs))]

    def run(task):
        r, s = task
        return _locate_chain(seqs[s], sets[r].templates, config.measure, config.search_radius, config.min_score)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(run, tasks))
    else:
        outcomes = [run(t) for t in tasks]
    widened = int(trace.widened.sum()) + sum(wid for _, wid in outcomes)
    tables = []
    for s in range(len(seqs)):
        located = np.stack([outcomes[r * len(seqs) + s][0] for r in range(len(sets))])  # (sets, n, v, 2)
        # trace (r, v, 2) against navigators (sets, n, v, 2) -> (r, n, v)
        d = trace.positions[:, None] - located
        tables.append(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))
    return tables, widened


def decide_all(
    dataset: Dataset, tables: list[np.ndarray], widened: int, config: ReconstructionConfig
) -> ReconstructionReport:
    """Apply the acceptance rule to every sequence's table; voxels are not built."""
    totals, accepted = zip(*(decide(t, config.threshold_px, config.aggregation) for t in tables))
    filled = np.stack([a.any(axis=1) for a in accepted], axis=1)  # (timepoint, sequence)
    slice_mm = {s: float(seq.data_slice_position_mm) for s, seq in enumerate(dataset.interleaved)}
    missing = {
        i: sorted(slice_mm[s] for s in np.nonzero(~row)[0])
        for i, row in enumerate(filled, start=1)
        if not row.all()
    }
    return ReconstructionReport(
        reconstruction_rate=100.0 * filled.sum() / filled.size,
        per_sequence_matches={s: int(a.sum()) for s, a in enumerate(accepted)},
        sequence_slice_mm=slice_mm,
        missing=missing,
        widened_count=widened,
        seconds=0.0,
        config=config,
        totals=list(totals),
        accepted=list(accepted),
    )


def reconstruct(
    dataset: Dataset, rois: RoiSpec, config: ReconstructionConfig | None = None
) -> tuple[Volume4D, ReconstructionReport]:
    """Run the full pipeline on an in-memory dataset."""
    config = config or ReconstructionConfig()
    t0 = time.perf_counter()
    tables, widened = displacement_tables(dataset, rois, config)
    report = decide_all(dataset, tables, widened, config)

    seqs = dataset.interleaved
    order = sorted(range(len(seqs)), key=report.sequence_slice_mm.__getitem__)
    completeness = np.stack([report.accepted[s].any(axis=1) for s in order], axis=1)
    voxels = np.zeros(completeness.shape + dataset.frame_shape)
    for idx_i, si in zip(*np.nonzero(completeness)):
        s = order[si]
        ks = np.nonzero(report.accepted[s][idx_i])[0]
        voxels[idx_i, si] = average_bin([seqs[s].frames[2 * k + 1].pixels for k in ks])

    volume = Volume4D(
        timepoints=list(range(1, len(completeness) + 1)),
        slice_positions_mm=[report.sequence_slice_mm[s] for s in order],
        voxels=voxels,
        completeness=completeness,
        voxel_spacing_mm=(
            dataset.in_plane_spacing_mm[0],
            dataset.in_plane_spacing_mm[1],
            dataset.slice_gap_mm,
        ),
    )
    report.seconds = time.perf_counter() - t0
    return volume, report


# --- persistence ------------------------------------------------------------


def save_reconstruction(volume: Volume4D, report: ReconstructionReport, out_dir: Path | str) -> Path:
    """Write the output directory: manifest, per-timepoint stacks, report, audits.

    Wall-clock timing is deliberately not serialized so identical runs produce
    bit-identical directories; it stays available on the in-memory report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    stack_names = []
    for idx_i, i in enumerate(volume.timepoints):
        name = f"t{i:04d}.u16le"
        stack_names.append(name)
        (out / name).write_bytes(quantize_u16(volume.voxels[idx_i]).astype("<u2").tobytes())

    h, w = volume.voxels.shape[2:]
    manifest = {
        "timepoints": volume.timepoints,
        "slice_positions_mm": volume.slice_positions_mm,
        "frame_shape": [h, w],
        "voxel_spacing_mm": list(volume.voxel_spacing_mm),
        "completeness": volume.completeness.tolist(),
        "stacks": stack_names,
        "config": asdict(report.config),
    }
    (out / "volume4d.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    report_obj = {
        "reconstruction_rate": report.reconstruction_rate,
        "per_sequence_matches": {str(k): v for k, v in report.per_sequence_matches.items()},
        "missing": {str(k): v for k, v in report.missing.items()},
        "widened_count": report.widened_count,
        "config": asdict(report.config),
    }
    (out / "report.json").write_text(json.dumps(report_obj, indent=2, sort_keys=True) + "\n")

    with open(out / "matches.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reference_timepoint", "sequence_index", "data_frame_index", "total", "accepted"])
        for s, (totals, accepted) in enumerate(zip(report.totals, report.accepted)):
            for i, (row_totals, row_accepted) in enumerate(zip(totals.tolist(), accepted.tolist()), start=1):
                for k, (total, ok) in enumerate(zip(row_totals, row_accepted)):
                    writer.writerow([i, s, 2 * k + 1, f"{total:.6f}", int(ok)])

    with open(out / "acquisition_correlation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["acquisition_index", "slice_position_mm", "matches"])
        for s in sorted(report.per_sequence_matches):
            writer.writerow(
                [s, f"{report.sequence_slice_mm[s]:.3f}", report.per_sequence_matches[s]]
            )
    return out
