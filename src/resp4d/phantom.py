"""Synthetic breathing phantom with analytic ground truth.

Gaussian "vessels" ride vertically on a shared breathing signal.  Appearance
can be modulated with the breathing state, standing in for out-of-plane
motion: contrast drop, radius growth, satellite blobs fading in at fixed
offsets (structures entering the imaging plane), and — the interesting one —
a vessel can render as a blob pair whose separation widens with the state.
A template remembered from the rest state then sees two mirror-image ways to
align with the widened pair, giving two response lobes that tie exactly up
to image noise; its locks jump half a separation left or right from frame to
frame.  A template cut at the current state carries the current separation
and matches in only one place.  That is exactly the failure mode template
updating guards against.

Ground truth records the exact continuous vessel centre for every navigator
frame, so expected matching decisions can be brute-forced independently of
the tracking pipeline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .imgcore import (
    DATA,
    NAVIGATOR,
    Dataset,
    Frame,
    InterleavedSequence,
    ReferenceSequence,
    check_positive,
    from_obj,
    quantize_u16,
    read_json,
    to_obj,
    write_json,
)
from .tracker import Roi, RoiSpec

# satellite geometry: each satellite reuses the vessel's rest-state sigma, so
# under a rest-state template all satellites and the rest-state core score the
# same; amplitude is scaled by (modulation depth x breathing state) so
# satellites are invisible at the template-cutting state
_SATELLITE_AMP = 0.9
_CONTRAST_GAIN = 0.6
_RADIUS_GAIN = 0.8

# sub-stream tags so phases, per-sequence jitter and per-frame noise draw from
# unrelated generators
_TAG_JITTER = 23
_TAG_NOISE = 29


@dataclass(frozen=True)
class SignalComponent:
    period_ms: float
    weight: float


@dataclass(frozen=True)
class BreathingSignal:
    """Sum of sinusoids plus a slow linear drift, in pixels of displacement."""

    amplitude_px: float = 6.0
    components: tuple[SignalComponent, ...] = (SignalComponent(3800.0, 1.0),)
    drift_px_per_min: float = 0.0
    seed: int = 0  # variability seed for the component phases

    def phases(self) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 17])
        return rng.uniform(0.0, 2.0 * math.pi, size=len(self.components))

    def oscillation(self, t_ms, time_offset_ms: float = 0.0) -> np.ndarray:
        """Normalized oscillatory part in [-1, 1]."""
        t = np.asarray(t_ms, dtype=np.float64) + time_offset_ms
        phases = self.phases()
        total = np.zeros_like(t)
        weight_sum = sum(abs(c.weight) for c in self.components)
        for comp, phase in zip(self.components, phases):
            total += comp.weight * np.sin(2.0 * math.pi * t / comp.period_ms + phase)
        return total / weight_sum

    def value(self, t_ms, time_offset_ms: float = 0.0, amp_factor: float = 1.0) -> np.ndarray:
        """Displacement in pixels at session time ``t_ms``."""
        t = np.asarray(t_ms, dtype=np.float64)
        osc = self.amplitude_px * amp_factor * self.oscillation(t_ms, time_offset_ms)
        return osc + self.drift_px_per_min * t / 60000.0

    def state(self, t_ms, time_offset_ms: float = 0.0, amp_factor: float = 1.0) -> np.ndarray:
        """Appearance state in [0, 1] derived from the oscillation."""
        osc = amp_factor * self.oscillation(t_ms, time_offset_ms)
        return np.clip((osc + 1.0) / 2.0, 0.0, 1.0)


@dataclass(frozen=True)
class VesselSpec:
    x: float
    y: float
    radius_px: float = 2.5
    peak_intensity: float = 1200.0
    modulation_depth: float = 0.0
    # a vessel with split_rest_px > 0 renders as a horizontal blob pair whose
    # separation grows with (depth x state); keeping x at an integer makes the
    # two response lobes of a stale narrow-pair template mirror-exact ties
    split_rest_px: float = 0.0
    split_gain_px: float = 0.0
    # integer offsets keep all satellites on the same subpixel lattice phase as
    # the vessel, so their rendered shapes tie exactly
    satellite_offsets: tuple[tuple[float, float], ...] = ()
    satellite_amplitude: float = _SATELLITE_AMP  # relative to peak_intensity, before state scaling

    def split_at(self, state: float) -> float:
        return self.split_rest_px + self.split_gain_px * self.modulation_depth * state


@dataclass(frozen=True)
class PhantomSpec:
    frame_height: int = 64
    frame_width: int = 80
    vessels: tuple[VesselSpec, ...] = (
        VesselSpec(x=24.0, y=20.0, radius_px=2.5, peak_intensity=1200.0),
        VesselSpec(x=56.0, y=38.0, radius_px=3.0, peak_intensity=900.0),
    )
    background: float = 100.0
    noise_std: float = 0.0
    signal: BreathingSignal = BreathingSignal()
    reference_frames: int = 60
    sequences: int = 4
    data_frames_per_sequence: int = 12
    frame_period_ms: float = 200.0
    sequence_phase_jitter_ms: float = 0.0  # std of per-sequence time offset
    sequence_amp_jitter: float = 0.0  # std of per-sequence amplitude factor
    sequence_offsets_px: tuple[tuple[int, float], ...] = ()  # forced constant shifts
    navigator_slice_mm: float = 0.0
    first_data_slice_mm: float = 10.0
    slice_gap_mm: float = 4.0
    in_plane_spacing_mm: tuple[float, float] = (1.82, 1.82)


@dataclass
class GroundTruth:
    """True vessel centres and breathing state for every navigator frame."""

    labels: list[str]
    interleaved_names: list[str]
    nav_positions: dict[str, np.ndarray]  # name -> (n_navs, n_vessels, 2) of (x, y)
    nav_states: dict[str, np.ndarray]  # name -> (n_navs,) displacement px


def _session_layout(spec: PhantomSpec):
    """Frame counts per sequence in acquisition order."""
    il_len = 2 * spec.data_frames_per_sequence + 1
    names = ["ref1"] + [f"il{s:03d}" for s in range(spec.sequences)] + ["ref2"]
    counts = [spec.reference_frames] + [il_len] * spec.sequences + [spec.reference_frames]
    return names, counts


def _sequence_jitter(spec: PhantomSpec, seed: int, s: int) -> tuple[float, float]:
    offset, amp = 0.0, 1.0
    if spec.sequence_phase_jitter_ms > 0 or spec.sequence_amp_jitter > 0:
        rng = np.random.default_rng([seed, _TAG_JITTER, s])
        if spec.sequence_phase_jitter_ms > 0:
            offset = float(rng.normal(0.0, spec.sequence_phase_jitter_ms))
        if spec.sequence_amp_jitter > 0:
            amp = float(max(0.1, 1.0 + rng.normal(0.0, spec.sequence_amp_jitter)))
    return offset, amp


def _non_negative(key: str, value) -> None:
    if not value >= 0:  # NaN too
        raise ValidationError(f"{key} must be non-negative, got {value}")


def _validate(spec: PhantomSpec, seed: int) -> None:
    if not spec.vessels:
        raise ValidationError("phantom needs at least one vessel")
    components = spec.signal.components
    for j, comp in enumerate(components):
        check_positive(f"signal.components[{j}].period_ms", comp.period_ms)
        _non_negative(f"signal.components[{j}].weight", comp.weight)
    if not any(comp.weight > 0 for comp in components):
        raise ValidationError("signal.components: the breathing signal needs a component of positive weight")
    # before rendering: the period times every frame, the gap places every data frame
    check_positive("frame_period_ms", spec.frame_period_ms)
    check_positive("slice_gap_mm", spec.slice_gap_mm)
    for key in ("noise_std", "sequence_phase_jitter_ms", "sequence_amp_jitter"):
        _non_negative(key, getattr(spec, key))
    _non_negative("seed", seed)  # numpy seeds only from non-negative integers
    _non_negative("signal.seed", spec.signal.seed)
    if spec.reference_frames < 3:
        raise ValidationError("reference needs at least 3 frames for enclosing navigators")
    if spec.sequences < 1 or spec.data_frames_per_sequence < 1:
        raise ValidationError("phantom needs at least one interleaved sequence with data frames")
    for i, vessel in enumerate(spec.vessels):
        check_positive(f"vessels[{i}].radius_px", vessel.radius_px)
        for key in ("split_rest_px", "satellite_amplitude"):
            _non_negative(f"vessels[{i}].{key}", getattr(vessel, key))


def _check_in_frame(spec: PhantomSpec, name: str, disps: list[float]) -> None:
    """Refuse sequence ``name`` if its displacements ``disps`` would carry a blob out of the frame."""
    low, high = np.min(disps), np.max(disps)  # NaN anywhere reads as NaN, and is refused
    for i, vessel in enumerate(spec.vessels):
        sigma_max = vessel.radius_px * (1.0 + _RADIUS_GAIN * vessel.modulation_depth)
        margin = 3.0 * sigma_max + 1.0 + 0.5 * max(abs(vessel.split_at(0.0)), abs(vessel.split_at(1.0)))
        for dx, dy in [(0.0, 0.0), *vessel.satellite_offsets]:
            cx, cy = vessel.x + dx, vessel.y + dy
            if not (margin <= cx <= spec.frame_width - 1 - margin):
                raise ValidationError(f"vessel v{i}: x={cx} leaves the frame horizontally")
            if not (margin <= cy + low and cy + high <= spec.frame_height - 1 - margin):
                raise ValidationError(f"vessel v{i}: y={cy} leaves the frame in {name}, displaced {low:.2f} to {high:.2f} px")


def render_frame(
    shape: tuple[int, int],
    blobs: list[tuple[float, float, float, float, float]],
    background: float = 100.0,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render (cx, cy, sigma_x, sigma_y, amplitude) Gaussian blobs to uint16."""
    h, w = shape
    img = np.full(shape, float(background))  # first, so a shape too large to hold fails before the grids
    yy, xx = np.ogrid[0:h, 0:w]  # x terms on a (1, w) row, y terms on an (h, 1) column
    for cx, cy, sx, sy, amp in blobs:
        img += amp * np.exp(-(((xx - cx) ** 2) / (2.0 * sx * sx) + ((yy - cy) ** 2) / (2.0 * sy * sy)))
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("noise_std > 0 needs an RNG")
        img += rng.normal(0.0, noise_std, size=shape)
    return quantize_u16(img)


def _vessel_blobs(spec: PhantomSpec, disp: float, state: float):
    blobs = []
    centres = []
    for vessel in spec.vessels:
        depth = vessel.modulation_depth
        sigma = vessel.radius_px * (1.0 + _RADIUS_GAIN * depth * state)
        amp = vessel.peak_intensity * (1.0 - _CONTRAST_GAIN * depth * state)
        cx, cy = vessel.x, vessel.y + disp
        if vessel.split_rest_px > 0.0:
            half_sep = 0.5 * vessel.split_at(state)
            blobs.append((cx - half_sep, cy, sigma, sigma, amp))
            blobs.append((cx + half_sep, cy, sigma, sigma, amp))
        else:
            blobs.append((cx, cy, sigma, sigma, amp))
        centres.append((cx, cy))
        sat_amp = vessel.peak_intensity * vessel.satellite_amplitude * depth * state
        if sat_amp > 0.0:
            for dx, dy in vessel.satellite_offsets:
                blobs.append(
                    (cx + dx, cy + dy, vessel.radius_px, vessel.radius_px, sat_amp)
                )
    return blobs, centres


def generate_phantom(spec: PhantomSpec, seed: int = 0) -> tuple[Dataset, GroundTruth]:
    """Render a full session (reference 1, interleaved stack, reference 2)."""
    _validate(spec, seed)
    names, counts = _session_layout(spec)
    period = spec.frame_period_ms
    shape = (spec.frame_height, spec.frame_width)
    forced = dict(spec.sequence_offsets_px)

    nav_positions: dict[str, np.ndarray] = {}
    nav_states: dict[str, np.ndarray] = {}
    sequences: dict[str, list[Frame]] = {}
    g = 0  # session-wide frame ordinal, also the timestamp base and noise stream key
    for name, count in zip(names, counts):
        is_reference = name.startswith("ref")
        if is_reference:
            time_offset, amp_factor, const_px = 0.0, 1.0, 0.0
        else:
            s = int(name[2:])
            time_offset, amp_factor = _sequence_jitter(spec, seed, s)
            const_px = forced.get(s, 0.0)
            data_mm = spec.first_data_slice_mm + s * spec.slice_gap_mm
        frames = []
        pos_rows, state_rows = [], []
        times = (g + np.arange(count)) * period
        disps = (spec.signal.value(times, time_offset, amp_factor) + const_px).tolist()
        _check_in_frame(spec, name, disps)
        states = spec.signal.state(times, time_offset, amp_factor).tolist()
        for i, (t, disp, state) in enumerate(zip(times.tolist(), disps, states)):
            blobs, centres = _vessel_blobs(spec, disp, state)
            rng = np.random.default_rng([seed, _TAG_NOISE, g]) if spec.noise_std > 0.0 else None
            pixels = render_frame(shape, blobs, background=spec.background, noise_std=spec.noise_std, rng=rng)
            kind = NAVIGATOR if (is_reference or i % 2 == 0) else DATA
            if kind == NAVIGATOR:
                slice_mm = spec.navigator_slice_mm
                pos_rows.append(centres)
                state_rows.append(disp)
            else:
                slice_mm = data_mm
            frames.append(Frame(pixels=pixels, kind=kind, timestamp_ms=t, slice_position_mm=slice_mm))
            g += 1
        sequences[name] = frames
        nav_positions[name] = np.asarray(pos_rows, dtype=np.float64)
        nav_states[name] = np.asarray(state_rows, dtype=np.float64)

    dataset = Dataset(
        reference_1=ReferenceSequence(frames=sequences["ref1"], frame_period_ms=period),
        reference_2=ReferenceSequence(frames=sequences["ref2"], frame_period_ms=period),
        interleaved=[InterleavedSequence(frames=sequences[f"il{s:03d}"]) for s in range(spec.sequences)],
        in_plane_spacing_mm=spec.in_plane_spacing_mm,
        slice_gap_mm=spec.slice_gap_mm,
    )
    truth = GroundTruth(
        labels=[f"v{i}" for i in range(len(spec.vessels))],
        interleaved_names=[f"il{s:03d}" for s in range(spec.sequences)],
        nav_positions=nav_positions,
        nav_states=nav_states,
    )
    return dataset, truth


def suggested_rois(spec: PhantomSpec, truth: GroundTruth) -> RoiSpec:
    """Odd square ROIs centred on each vessel in frame 0 of reference 1."""
    rois = []
    for v, vessel in enumerate(spec.vessels):
        hh = max(5, math.ceil(2.4 * vessel.radius_px + 0.5 * vessel.split_at(1.0)))
        cx, cy = truth.nav_positions["ref1"][0, v]
        x = int(round(cx)) - hh
        y = int(round(cy)) - hh
        side = 2 * hh + 1
        x = min(max(x, 0), spec.frame_width - side)
        y = min(max(y, 0), spec.frame_height - side)
        rois.append(Roi(label=truth.labels[v], x=x, y=y, width=side, height=side))
    return rois


def oracle_matches(
    truth: GroundTruth,
    threshold: float,
) -> dict[tuple[int, int, int], tuple[bool, float]]:
    """Brute-force expected decisions against reference 1 from true positions.

    Keys are (sequence_index, reference_timepoint, data_frame_ordinal) with
    the ordinal counted inside the interleaved sequence; values are
    (accepted, total displacement).  Deliberately plain Python, a loop of
    ``math.hypot`` over Python floats, so it shares no arithmetic with the
    pipeline.
    """
    ref = truth.nav_positions["ref1"].tolist()
    n_ref = len(ref)
    n_vessels = len(ref[0])
    out: dict[tuple[int, int, int], tuple[bool, float]] = {}
    for s, name in enumerate(truth.interleaved_names):
        nav = truth.nav_positions[name].tolist()
        n_navs = len(nav)
        for i in range(1, n_ref - 1):
            for k in range(n_navs - 1):
                total = 0.0
                for v in range(n_vessels):
                    total += math.hypot(
                        ref[i - 1][v][0] - nav[k][v][0], ref[i - 1][v][1] - nav[k][v][1]
                    )
                    total += math.hypot(
                        ref[i + 1][v][0] - nav[k + 1][v][0], ref[i + 1][v][1] - nav[k + 1][v][1]
                    )
                out[(s, i, 2 * k + 1)] = (total < threshold, total)
    return out


def write_ground_truth_csv(truth: GroundTruth, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "frame", "vessel", "x", "y", "state_px"])
        for name in ["ref1"] + truth.interleaved_names + ["ref2"]:
            pos = truth.nav_positions[name]
            states = truth.nav_states[name]
            step = 1 if name.startswith("ref") else 2
            for n in range(pos.shape[0]):
                for v, label in enumerate(truth.labels):
                    writer.writerow(
                        [
                            name,
                            n * step,
                            label,
                            f"{pos[n, v, 0]:.6f}",
                            f"{pos[n, v, 1]:.6f}",
                            f"{states[n]:.6f}",
                        ]
                    )


# --- phantom_spec.json -------------------------------------------------------


def load_spec(path: Path | str) -> PhantomSpec:
    return read_json(path, lambda obj: from_obj(PhantomSpec, obj))


def save_spec(spec: PhantomSpec, path: Path | str) -> None:
    write_json(path, to_obj(spec))
