"""The three phantom workloads and the operation each one repeats.

Every workload renders its session from ``--seed`` with ``generate_phantom``
and drives the library the way ``resp4d reconstruct`` and ``resp4d sweep``
do: ``load_dataset`` -> ``reconstruct``/``sweep`` ->
``save_reconstruction``/``write_rates_csv``.  ``ReconstructionConfig`` fields
a workload does not need stay at their library defaults; ``jobs`` in
particular stays 1, the plain single-threaded case.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from checks import DatasetFiles, OutputCounts, check_reconstruction, check_sweep
from resp4d.evalharness import sweep, write_rates_csv
from resp4d.imgcore import load_dataset, write_dataset
from resp4d.matcher import CCOEFF_NORMED, CCORR_NORMED
from resp4d.phantom import (
    BreathingSignal,
    PhantomSpec,
    VesselSpec,
    generate_phantom,
    oracle_matches,
    suggested_rois,
)
from resp4d.reconstructor import (
    BASELINE_METHOD,
    UPDATING_METHOD,
    ReconstructionConfig,
    reconstruct,
    save_reconstruction,
)
from resp4d.tracker import rois_from_obj, rois_to_obj

SWEEP_THRESHOLDS = (0.5, 1.0, 2.0)
SWEEP_MEASURES = (CCORR_NORMED, CCOEFF_NORMED)
SWEEP_METHODS = (BASELINE_METHOD, UPDATING_METHOD)

# one breathing component: a 3800 ms period is 19 frames, so breathing states
# recur and many data frames match; per-sequence jitter and pixel noise keep
# the recurrences inexact
_BREATHING = BreathingSignal(amplitude_px=6.0, seed=13)
_JITTER = dict(noise_std=3.0, sequence_phase_jitter_ms=40.0, sequence_amp_jitter=0.03)

UPDATING_REGION = PhantomSpec(
    signal=_BREATHING,
    reference_frames=40,
    sequences=3,
    data_frames_per_sequence=12,
    **_JITTER,
)

BASELINE_BULK = PhantomSpec(
    frame_height=96,
    frame_width=96,
    vessels=(
        VesselSpec(x=36.0, y=36.0, radius_px=2.5, peak_intensity=1200.0),
        VesselSpec(x=76.0, y=70.0, radius_px=3.0, peak_intensity=900.0),
    ),
    signal=_BREATHING,
    reference_frames=100,
    sequences=16,
    data_frames_per_sequence=25,
    **_JITTER,
)

# the split-pair phantom of the method-comparison tests, shortened so one
# sweep takes a few seconds.  At this size the comparison needs a wider split
# gain, a smaller breathing amplitude and less phase jitter than the tests
# use, or baseline ties or beats updating in a low-threshold cell on some
# seeds; with these, updating led in every cell on every seed tried.
SWEEP_SPLIT = PhantomSpec(
    frame_height=80,
    frame_width=96,
    vessels=(
        VesselSpec(
            x=48.0,
            y=40.0,
            radius_px=1.0,
            peak_intensity=1200.0,
            modulation_depth=0.97,
            split_rest_px=3.0,
            split_gain_px=7.0,
        ),
    ),
    background=10.0,
    noise_std=4.0,
    signal=BreathingSignal(amplitude_px=8.0, seed=19),
    reference_frames=30,
    sequences=4,
    data_frames_per_sequence=10,
    sequence_phase_jitter_ms=20.0,
    sequence_amp_jitter=0.03,
)


@dataclass
class Inputs:
    """One rendered session on disk plus the truth to check outputs against."""

    dataset_dir: Path
    rois_path: Path
    oracle: dict | None  # truth-oracle decisions at the workload's threshold


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass(frozen=True)
class Workload:
    name: str
    spec: PhantomSpec
    smoke_spec: PhantomSpec  # reduced size for the benchmark's own test
    method: str | None  # reconstruct with this method; None runs the sweep grid

    def setup(self, seed: int, target: Path, tracer=None, smoke: bool = False) -> Inputs:
        """Render the session, write it to ``target`` and write ``rois.json``."""
        spec = self.smoke_spec if smoke else self.spec
        with _span(tracer, "phantom.generate_phantom"):
            dataset, truth = generate_phantom(spec, seed=seed)
        with _span(tracer, "imgcore.write_dataset"):
            write_dataset(dataset, target / "dataset")
        rois_path = target / "rois.json"
        rois = suggested_rois(spec, truth)
        rois_path.write_text(json.dumps(rois_to_obj(rois), indent=2, sort_keys=True) + "\n")
        oracle = None
        if self.method is not None:
            oracle = oracle_matches(truth, ReconstructionConfig().threshold_px)
        return Inputs(target / "dataset", rois_path, oracle)

    def operation(self, inputs: Inputs, out: Path, tracer=None) -> None:
        """One reconstruction, or one sweep grid, from disk to ``out``."""
        with _span(tracer, "imgcore.load_dataset"):
            dataset = load_dataset(inputs.dataset_dir)
        rois = rois_from_obj(json.loads(inputs.rois_path.read_text()))
        if self.method is not None:
            with _span(tracer, "reconstructor.reconstruct"):
                volume, report = reconstruct(dataset, rois, ReconstructionConfig(method=self.method))
            with _span(tracer, "reconstructor.save_reconstruction"):
                save_reconstruction(volume, report, out)
            return
        out.mkdir(parents=True, exist_ok=True)
        with _span(tracer, "evalharness.sweep"):
            cells = sweep(
                dataset,
                rois,
                thresholds=SWEEP_THRESHOLDS,
                measures=SWEEP_MEASURES,
                references=(1,),
                methods=SWEEP_METHODS,
            )
        with _span(tracer, "evalharness.write_rates_csv"):
            write_rates_csv(cells, out / "rates.csv")

    def check(self, out: Path, inputs: Inputs, files: DatasetFiles) -> tuple[list[str], OutputCounts]:
        """Problems found in the outputs of one operation, and their counts."""
        if self.method is not None:
            return check_reconstruction(out, files, inputs.oracle, ReconstructionConfig().threshold_px)
        return check_sweep(out / "rates.csv", files, SWEEP_THRESHOLDS, SWEEP_METHODS, SWEEP_MEASURES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "updating_region",
            UPDATING_REGION,
            replace(UPDATING_REGION, reference_frames=12, sequences=2, data_frames_per_sequence=6),
            UPDATING_METHOD,
        ),
        Workload(
            "baseline_bulk",
            BASELINE_BULK,
            replace(BASELINE_BULK, reference_frames=12, sequences=2, data_frames_per_sequence=24),
            BASELINE_METHOD,
        ),
        Workload(
            "sweep_split",
            SWEEP_SPLIT,
            replace(SWEEP_SPLIT, reference_frames=20, sequences=2, data_frames_per_sequence=12),
            None,
        ),
    )
}
