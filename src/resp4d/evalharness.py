"""Parameter sweeps and search-strategy timing comparisons."""

from __future__ import annotations

import csv
import itertools
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .imgcore import Dataset
from .matcher import CCOEFF_NORMED, CCORR_NORMED
from .reconstructor import (
    BASELINE_METHOD,
    UPDATING_METHOD,
    ReconstructionConfig,
    decide_all,
    displacement_tables,
    reconstruct,
)
from .tracker import RoiSpec

DEFAULT_THRESHOLDS = (0.5, 1.0, 2.0)
DEFAULT_MEASURES = (CCORR_NORMED, CCOEFF_NORMED)
DEFAULT_REFERENCES = (1, 2)
DEFAULT_METHODS = (BASELINE_METHOD, UPDATING_METHOD)


@dataclass
class SweepCell:
    reference: int
    method: str
    measure: str
    threshold_px: float
    rate: float
    matches: int
    widened: int


def sweep(
    dataset: Dataset,
    rois: RoiSpec,
    thresholds=DEFAULT_THRESHOLDS,
    measures=DEFAULT_MEASURES,
    references=DEFAULT_REFERENCES,
    methods=DEFAULT_METHODS,
    base_config: ReconstructionConfig | None = None,
) -> list[SweepCell]:
    """Reconstruction rate for every grid cell, without building voxels.

    The grid is the full cross of references x methods x measures x
    thresholds, in that nesting order.  Displacement tables are computed once
    per (reference, method, measure) and every threshold re-cuts them, so
    each cell equals a ``reconstruct`` run with that cell's config.
    """
    base = base_config or ReconstructionConfig()
    for threshold in thresholds:
        replace(base, threshold_px=threshold)  # reject a bad threshold before any tracking
    cells = []
    for reference, method, measure in itertools.product(references, methods, measures):
        config = replace(base, reference=reference, method=method, measure=measure)
        tables, widened = displacement_tables(dataset, rois, config)
        for threshold in thresholds:
            report = decide_all(dataset, tables, widened, replace(config, threshold_px=threshold))
            cells.append(
                SweepCell(
                    reference=reference,
                    method=method,
                    measure=measure,
                    threshold_px=threshold,
                    rate=report.reconstruction_rate,
                    matches=sum(report.per_sequence_matches.values()),
                    widened=report.widened_count,
                )
            )
    return cells


def write_rates_csv(cells: list[SweepCell], path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["reference", "method", "measure", "threshold_px", "rate_percent", "matches", "widened"]
        )
        for c in cells:
            writer.writerow(
                [c.reference, c.method, c.measure, c.threshold_px, f"{c.rate:.4f}", c.matches, c.widened]
            )


@dataclass
class TimingComparison:
    full_seconds: float  # median over runs
    region_seconds: float
    speedup: float
    decisions_identical: bool
    widened_region: int
    full_runs: list[float]
    region_runs: list[float]


def compare_timing(
    dataset: Dataset,
    rois: RoiSpec,
    config: ReconstructionConfig | None = None,
    runs: int = 3,
) -> TimingComparison:
    """Time region-restricted search against full-frame search.

    Both variants run the same method on the same in-memory dataset (load time
    is excluded by construction); per-variant time is the median of ``runs``
    repeats.  Decisions are compared so callers can confirm the region
    restriction changed nothing but speed.
    """
    base = config or ReconstructionConfig()
    region_config = base
    full_config = replace(base, search_radius=None)

    def run(cfg):
        times = []
        last = None
        for _ in range(runs):
            _, report = reconstruct(dataset, rois, cfg)
            times.append(report.seconds)
            last = report
        return statistics.median(times), times, last

    full_med, full_times, full_rep = run(full_config)
    region_med, region_times, region_rep = run(region_config)

    identical = all(map(np.array_equal, full_rep.accepted, region_rep.accepted))
    return TimingComparison(
        full_seconds=full_med,
        region_seconds=region_med,
        speedup=full_med / region_med,
        decisions_identical=identical,
        widened_region=region_rep.widened_count,
        full_runs=full_times,
        region_runs=region_times,
    )


def write_timing_csv(comparison: TimingComparison, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "run", "seconds", "median_seconds", "speedup"])
        for variant, times, median in (
            ("full_frame", comparison.full_runs, comparison.full_seconds),
            ("region", comparison.region_runs, comparison.region_seconds),
        ):
            for i, t in enumerate(times):
                writer.writerow([variant, i, f"{t:.4f}", f"{median:.4f}", f"{comparison.speedup:.3f}"])
