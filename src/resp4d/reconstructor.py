"""Sort matched data frames into a time-resolved (4D) volume.

For every eligible reference timepoint (all but the boundary frames) each
interleaved sequence contributes the data frames whose enclosing navigators
agree with the timepoint's breathing state.  Matched frames are averaged
pixelwise per slice position, slices are stacked in ascending position order,
and empty bins are recorded in a completeness map and stored black.  Each
timepoint's stack is averaged only when it is saved, one timepoint at a time.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .criterion import AGGREGATIONS, AGG_SUM, decide
from .errors import ValidationError
from .imgcore import Dataset, quantize_u16
from .matcher import MEASURES, CCOEFF_NORMED, Template
from .tracker import (
    DEFAULT_MIN_SCORE,
    DEFAULT_SEARCH_RADIUS,
    FIXED,
    UPDATING,
    RoiSpec,
    TrackTrace,
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


@dataclass
class Volume4D:
    timepoints: list[int]
    slice_positions_mm: list[float]
    completeness: np.ndarray  # (n_timepoints, n_slices) bool
    voxel_spacing_mm: tuple[float, float, float]  # (row, column, slice step)
    frame_shape: tuple[int, int]
    # per slice in ascending position: the sequence's data frame pixels (column
    # k is ordinal 2k + 1) and its accepted (n_timepoints, n_data_frames) mask
    data_frames: list[list[np.ndarray]]
    accepted: list[np.ndarray]

    def stack(self, ti: int) -> np.ndarray:
        """(n_slices, H, W) float64 averages of timepoint index ``ti``; zero where a bin is empty."""
        out = np.zeros((len(self.data_frames),) + self.frame_shape)
        for si, (frames, accepted) in enumerate(zip(self.data_frames, self.accepted)):
            ks = np.nonzero(accepted[ti])[0]
            if ks.size:
                out[si] = average_bin([frames[k] for k in ks])
        return out


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


def track_configured(
    dataset: Dataset, rois: RoiSpec, config: ReconstructionConfig
) -> tuple[TrackTrace, list[list[Template]]]:
    """Track ``config``'s reference sequence the way ``config.method`` does.

    The updating method tracks with template updating inside the search
    radius; the baseline matches its frame-0 templates over the full frame.
    """
    mode = UPDATING if config.method == UPDATING_METHOD else FIXED
    radius = None if config.method == BASELINE_METHOD else config.search_radius
    ref = dataset.reference(config.reference)
    return track_reference(ref, rois, config.measure, radius, mode, config.min_score)


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
    if len(dataset.reference(config.reference).frames) < 3:
        raise ValidationError("reference sequence too short: no eligible timepoints")
    trace, sets = track_configured(dataset, rois, config)

    # updating tracking yields one template set per reference frame, fixed
    # tracking only the frame-0 set; each set is one chain of priors through
    # every sequence, and one call localizes all chains in navigator ordinal
    # n of every sequence that still has one
    widened = int(trace.widened.sum())
    navs = [seq.navigators() for seq in dataset.interleaved]
    located = [np.zeros((len(sets), len(nv), len(rois), 2)) for nv in navs]
    for n in range(max(map(len, navs))):
        live = [s for s, nv in enumerate(navs) if n < len(nv)]
        priors = np.stack([located[s][:, n - 1] for s in live]) if n else None
        found, _, wid = locate_in_navigator(
            [navs[s][n] for s in live], sets, priors, config.measure, config.search_radius, config.min_score
        )
        for s, pos in zip(live, found):
            located[s][:, n] = pos
        widened += int(wid.sum())
    # trace (r, v, 2) against navigators (sets, n, v, 2) -> (r, n, v)
    diffs = (trace.positions[:, None] - pos for pos in located)
    return [np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) for d in diffs], widened


def decide_all(
    dataset: Dataset, tables: list[np.ndarray], widened: int, config: ReconstructionConfig
) -> ReconstructionReport:
    """Apply the acceptance rule to every sequence's table; nothing is averaged."""
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
    volume = Volume4D(
        timepoints=list(range(1, len(completeness) + 1)),
        slice_positions_mm=[report.sequence_slice_mm[s] for s in order],
        completeness=completeness,
        voxel_spacing_mm=(
            dataset.in_plane_spacing_mm[0],
            dataset.in_plane_spacing_mm[1],
            dataset.slice_gap_mm,
        ),
        frame_shape=dataset.frame_shape,
        data_frames=[[f.pixels for f in seqs[s].frames[1::2]] for s in order],
        accepted=[report.accepted[s] for s in order],
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
        (out / name).write_bytes(quantize_u16(volume.stack(idx_i)).astype("<u2").tobytes())

    manifest = {
        "timepoints": volume.timepoints,
        "slice_positions_mm": volume.slice_positions_mm,
        "frame_shape": list(volume.frame_shape),
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

    # one formatting pass per sequence, in csv.writer's layout and line ends
    with open(out / "matches.csv", "w", newline="") as fh:
        fh.write("reference_timepoint,sequence_index,data_frame_index,total,accepted\r\n")
        for s, (totals, accepted) in enumerate(zip(report.totals, report.accepted)):
            rows, cols = np.indices(totals.shape)
            columns = (rows.ravel() + 1, 2 * cols.ravel() + 1, totals.ravel(), accepted.ravel().astype(np.int8))
            fh.write("".join(map(f"{{}},{s},{{}},{{:.6f}},{{}}\r\n".format, *(c.tolist() for c in columns))))

    with open(out / "acquisition_correlation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["acquisition_index", "slice_position_mm", "matches"])
        for s in sorted(report.per_sequence_matches):
            writer.writerow(
                [s, f"{report.sequence_slice_mm[s]:.3f}", report.per_sequence_matches[s]]
            )
    return out
