"""Phantom generator: determinism, truth bookkeeping, and the decision oracle."""

import csv
import json
import math

import numpy as np
import pytest

from resp4d import phantom
from resp4d.errors import ValidationError
from resp4d.imgcore import (
    DATA,
    NAVIGATOR,
    _DatasetMeta,
    _SequenceMeta,
    from_obj,
    quantize_u16,
    read_json,
    to_obj,
    write_dataset,
)
from resp4d.phantom import (
    BreathingSignal,
    GroundTruth,
    PhantomSpec,
    SignalComponent,
    VesselSpec,
    generate_phantom,
    oracle_matches,
    render_frame,
    save_spec,
    load_spec,
    suggested_rois,
    write_ground_truth_csv,
)

from conftest import replay_spec, split_vessel_spec


def _all_frames(dataset):
    yield from dataset.reference_1.frames
    for seq in dataset.interleaved:
        yield from seq.frames
    yield from dataset.reference_2.frames


def test_generation_is_bitwise_deterministic():
    spec = replay_spec(noise_std=4.0)
    a_data, a_truth = generate_phantom(spec, seed=11)
    b_data, b_truth = generate_phantom(spec, seed=11)
    for fa, fb in zip(_all_frames(a_data), _all_frames(b_data)):
        assert fa.pixels.dtype == np.uint16
        assert np.array_equal(fa.pixels, fb.pixels)
    for name in a_truth.nav_positions:
        assert np.array_equal(a_truth.nav_positions[name], b_truth.nav_positions[name])
        assert np.array_equal(a_truth.nav_states[name], b_truth.nav_states[name])


# Every input the renderer reads: pixel noise, two breathing components, drift,
# per-sequence phase and amplitude jitter, a forced offset, a modulated vessel
# with satellites, and a split vessel.
RICH_SPEC = PhantomSpec(
    frame_height=72,
    frame_width=88,
    vessels=(
        VesselSpec(
            x=24.0,
            y=30.0,
            radius_px=2.0,
            peak_intensity=1100.0,
            modulation_depth=0.6,
            satellite_offsets=((-9.0, 0.0), (9.0, 0.0)),
        ),
        VesselSpec(
            x=60.0,
            y=36.0,
            radius_px=1.2,
            peak_intensity=1000.0,
            modulation_depth=0.9,
            split_rest_px=3.0,
            split_gain_px=4.0,
        ),
    ),
    noise_std=5.0,
    signal=BreathingSignal(
        amplitude_px=4.0,
        components=(SignalComponent(3800.0, 1.0), SignalComponent(1300.0, 0.3)),
        drift_px_per_min=3.0,
        seed=7,
    ),
    reference_frames=20,
    sequences=3,
    data_frames_per_sequence=6,
    sequence_phase_jitter_ms=50.0,
    sequence_amp_jitter=0.05,
    sequence_offsets_px=((1, 1.5),),
)


def _per_frame_reference(spec, seed):
    """(sequence, timestamp, pixels, centres, displacement) of every frame.

    Built the way the renderer first did it, one frame at a time: a scalar
    signal evaluation per timestamp, a full ``np.mgrid`` coordinate grid, and
    the per-frame noise generator.
    """
    h, w = spec.frame_height, spec.frame_width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    forced = dict(spec.sequence_offsets_px)
    names, counts = phantom._session_layout(spec)
    out = []
    g = 0
    for name, count in zip(names, counts):
        if name.startswith("ref"):
            time_offset, amp_factor, const_px = 0.0, 1.0, 0.0
        else:
            s = int(name[2:])
            time_offset, amp_factor = phantom._sequence_jitter(spec, seed, s)
            const_px = forced.get(s, 0.0)
        for _ in range(count):
            t = g * spec.frame_period_ms
            disp = float(spec.signal.value(t, time_offset, amp_factor)) + const_px
            state = float(spec.signal.state(t, time_offset, amp_factor))
            blobs, centres = phantom._vessel_blobs(spec, disp, state)
            img = np.full((h, w), float(spec.background))
            for cx, cy, sx, sy, amp in blobs:
                img += amp * np.exp(-(((xx - cx) ** 2) / (2.0 * sx * sx) + ((yy - cy) ** 2) / (2.0 * sy * sy)))
            if spec.noise_std > 0.0:
                rng = np.random.default_rng([seed, phantom._TAG_NOISE, g])
                img += rng.normal(0.0, spec.noise_std, size=(h, w))
            out.append((name, t, quantize_u16(img), centres, disp))
            g += 1
    return out


def _indexed_oracle(truth, threshold):
    """``oracle_matches`` as first written, indexing the numpy truth arrays."""
    ref = truth.nav_positions["ref1"]
    n_vessels = ref.shape[1]
    out = {}
    for s, name in enumerate(truth.interleaved_names):
        nav = truth.nav_positions[name]
        for i in range(1, ref.shape[0] - 1):
            for k in range(nav.shape[0] - 1):
                total = 0.0
                for v in range(n_vessels):
                    total += math.hypot(ref[i - 1, v, 0] - nav[k, v, 0], ref[i - 1, v, 1] - nav[k, v, 1])
                    total += math.hypot(
                        ref[i + 1, v, 0] - nav[k + 1, v, 0], ref[i + 1, v, 1] - nav[k + 1, v, 1]
                    )
                out[(s, i, 2 * k + 1)] = (total < threshold, total)
    return out


def test_renderer_reproduces_the_per_frame_arithmetic_bit_for_bit():
    seed = 3
    dataset, truth = generate_phantom(RICH_SPEC, seed=seed)
    expected = _per_frame_reference(RICH_SPEC, seed)
    got = [("ref1", f) for f in dataset.reference_1.frames]
    got += [(f"il{s:03d}", f) for s, seq in enumerate(dataset.interleaved) for f in seq.frames]
    got += [("ref2", f) for f in dataset.reference_2.frames]
    assert [name for name, _ in got] == [row[0] for row in expected]
    for (_, frame), (_, t, pixels, _, _) in zip(got, expected):
        assert type(frame.timestamp_ms) is float and frame.timestamp_ms == t
        assert frame.pixels.dtype == np.uint16
        assert np.array_equal(frame.pixels, pixels)
    for name in truth.nav_positions:
        navs = [row for (seq, f), row in zip(got, expected) if seq == name and f.kind == NAVIGATOR]
        assert np.array_equal(truth.nav_positions[name], np.asarray([row[3] for row in navs]))
        assert np.array_equal(truth.nav_states[name], np.asarray([row[4] for row in navs]))
    for threshold in (1.0, 2.0, 4.0):
        oracle = oracle_matches(truth, threshold)
        assert oracle == _indexed_oracle(truth, threshold)
        assert 0 < sum(accepted for accepted, _ in oracle.values()) < len(oracle)


def test_different_seed_changes_the_noise():
    spec = replay_spec(noise_std=4.0)
    a_data, _ = generate_phantom(spec, seed=11)
    b_data, _ = generate_phantom(spec, seed=12)
    first_a = a_data.reference_1.frames[0].pixels
    first_b = b_data.reference_1.frames[0].pixels
    assert not np.array_equal(first_a, first_b)


def test_zero_amplitude_zero_noise_freezes_the_scene():
    spec = replay_spec(signal=BreathingSignal(amplitude_px=0.0))
    dataset, truth = generate_phantom(spec, seed=0)
    frames = list(_all_frames(dataset))
    for frame in frames[1:]:
        assert np.array_equal(frame.pixels, frames[0].pixels)
    for name, pos in truth.nav_positions.items():
        assert np.allclose(pos, pos[0])
        assert np.all(truth.nav_states[name] == 0.0)


def test_truth_positions_follow_the_signal():
    # Recompute every navigator centre from the frame timestamps and the
    # signal alone; no jitter, so the published signal is the whole story.
    spec = replay_spec()
    dataset, truth = generate_phantom(spec, seed=2)
    sequences = (
        [("ref1", dataset.reference_1.frames)]
        + [(f"il{s:03d}", seq.frames) for s, seq in enumerate(dataset.interleaved)]
        + [("ref2", dataset.reference_2.frames)]
    )
    for name, frames in sequences:
        navs = [f for f in frames if f.kind == NAVIGATOR]
        assert truth.nav_positions[name].shape == (len(navs), len(spec.vessels), 2)
        for n, frame in enumerate(navs):
            disp = float(spec.signal.value(frame.timestamp_ms))
            assert truth.nav_states[name][n] == pytest.approx(disp, abs=1e-12)
            for v, vessel in enumerate(spec.vessels):
                assert truth.nav_positions[name][n, v, 0] == pytest.approx(vessel.x, abs=1e-12)
                assert truth.nav_positions[name][n, v, 1] == pytest.approx(
                    vessel.y + disp, abs=1e-12
                )


def test_linear_drift_separates_the_references():
    spec = replay_spec(
        signal=BreathingSignal(amplitude_px=0.0, drift_px_per_min=3.0),
    )
    _, truth = generate_phantom(spec, seed=0)
    t_first = 0.0
    # ref2 starts after ref1 plus all interleaved sequences
    frames_before_ref2 = spec.reference_frames + spec.sequences * (
        2 * spec.data_frames_per_sequence + 1
    )
    t_ref2 = frames_before_ref2 * spec.frame_period_ms
    expected = 3.0 * (t_ref2 - t_first) / 60000.0
    got = truth.nav_positions["ref2"][0, 0, 1] - truth.nav_positions["ref1"][0, 0, 1]
    assert got == pytest.approx(expected, abs=1e-9)


def test_forced_sequence_offset_shifts_one_sequence_only():
    spec = replay_spec(
        vessels=(VesselSpec(x=24.0, y=64.0, radius_px=2.5),),
        signal=BreathingSignal(amplitude_px=0.0),
        sequence_offsets_px=((1, 25.0),),
        frame_height=128,
    )
    _, truth = generate_phantom(spec, seed=0)
    assert np.allclose(
        truth.nav_positions["il001"][:, :, 1],
        truth.nav_positions["il000"][:, :, 1] + 25.0,
    )
    assert np.allclose(
        truth.nav_positions["il000"][:, :, 1], truth.nav_positions["ref1"][0, :, 1]
    )


def test_session_layout_and_slice_positions(replay_seed0):
    spec, dataset, _ = replay_seed0
    assert len(dataset.reference_1.frames) == spec.reference_frames
    assert len(dataset.reference_2.frames) == spec.reference_frames
    assert len(dataset.interleaved) == spec.sequences
    timestamps = [f.timestamp_ms for f in _all_frames(dataset)]
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == len(timestamps)
    for s, seq in enumerate(dataset.interleaved):
        assert len(seq.frames) == 2 * spec.data_frames_per_sequence + 1
        assert seq.data_slice_position_mm == spec.first_data_slice_mm + s * spec.slice_gap_mm
        for i, frame in enumerate(seq.frames):
            if i % 2 == 0:
                assert frame.kind == NAVIGATOR
                assert frame.slice_position_mm == spec.navigator_slice_mm
            else:
                assert frame.kind == DATA
                assert frame.slice_position_mm == seq.data_slice_position_mm


def test_vessel_leaving_the_frame_is_rejected():
    # a negative amplitude moves the vessel as far, in mirror image
    for amplitude in (8.0, -8.0):
        spec = replay_spec(
            vessels=(VesselSpec(x=24.0, y=10.0, radius_px=2.5),),
            signal=BreathingSignal(amplitude_px=amplitude),
        )
        with pytest.raises(ValidationError, match="leaves the frame"):
            generate_phantom(spec, seed=0)


@pytest.mark.parametrize("spacing", [(math.inf, 1.0), (1.0, math.nan)], ids=["infinite", "nan"])
def test_non_finite_spacing_is_rejected(spacing):
    # a JSON spec cannot carry these; a spec built in Python can
    with pytest.raises(ValidationError) as exc:
        generate_phantom(replay_spec(in_plane_spacing_mm=spacing), seed=0)
    assert str(exc.value) == f"in_plane_spacing_mm must be positive, got {spacing}"


@pytest.mark.parametrize("key", ["frame_period_ms", "slice_gap_mm"])
def test_nan_timing_and_gap_are_rejected(key, monkeypatch):
    # a JSON spec cannot carry NaN; a spec built in Python can.  Both are
    # refused before a single frame is rendered: the frame period times every
    # frame, and the gap places the data frames, whose slice position must be
    # finite
    monkeypatch.setattr(phantom, "render_frame", None)
    with pytest.raises(ValidationError) as exc:
        generate_phantom(replay_spec(**{key: math.nan}), seed=0)
    assert str(exc.value) == f"{key} must be positive, got nan"


def test_split_width_counts_toward_the_margin():
    # The same vessel fits without the split and is rejected with it.
    base = dict(x=12.0, y=32.0, radius_px=2.0)
    ok = replay_spec(vessels=(VesselSpec(**base),), signal=BreathingSignal(amplitude_px=2.0))
    generate_phantom(ok, seed=0)
    # a negative gain narrows the pair, crosses it over and widens it again
    for gain in (20.0, -20.0):
        wide = replay_spec(
            vessels=(VesselSpec(**base, modulation_depth=1.0, split_rest_px=3.0, split_gain_px=gain),),
            signal=BreathingSignal(amplitude_px=2.0),
        )
        with pytest.raises(ValidationError, match="horizontally"):
            generate_phantom(wide, seed=0)


def test_appearance_modulation_without_motion(pinned_split):
    # state is driven by the normalized oscillation, so frames change shape
    # even when the displacement amplitude is zero.
    _, dataset, truth = pinned_split
    assert np.allclose(truth.nav_positions["ref1"], truth.nav_positions["ref1"][0])
    frames = dataset.reference_1.frames
    assert not all(np.array_equal(f.pixels, frames[0].pixels) for f in frames[1:])


def test_split_vessel_renders_a_widening_pair(pinned_split):
    spec, dataset, _ = pinned_split
    vessel = spec.vessels[0]
    frames = dataset.reference_1.frames
    states = [float(spec.signal.state(f.timestamp_ms)) for f in frames]
    deep = int(np.argmax(states))
    row = dataset.reference_1.frames[deep].pixels[int(vessel.y), :].astype(np.float64)
    peaks = [
        x
        for x in range(1, len(row) - 1)
        if row[x] > row[x - 1] and row[x] >= row[x + 1] and row[x] > spec.background + 50
    ]
    assert len(peaks) == 2
    sep = vessel.split_at(states[deep])
    assert peaks[0] == pytest.approx(vessel.x - sep / 2.0, abs=1.0)
    assert peaks[1] == pytest.approx(vessel.x + sep / 2.0, abs=1.0)


def test_suggested_rois_are_odd_squares_centred_on_frame0(replay_seed0):
    spec, _, truth = replay_seed0
    rois = suggested_rois(spec, truth)
    assert [r.label for r in rois] == truth.labels
    for roi, vessel in zip(rois, spec.vessels):
        assert roi.width == roi.height
        assert roi.width % 2 == 1
        assert roi.x >= 0 and roi.y >= 0
        assert roi.x + roi.width <= spec.frame_width
        assert roi.y + roi.height <= spec.frame_height
        half = roi.width // 2
        assert roi.x + half == round(vessel.x)


def test_suggested_rois_cover_the_widest_split():
    spec = split_vessel_spec()
    _, truth = generate_phantom(spec, seed=0)
    (roi,) = suggested_rois(spec, truth)
    vessel = spec.vessels[0]
    needed = 2 * math.ceil(2.4 * vessel.radius_px + 0.5 * vessel.split_at(1.0)) + 1
    assert roi.width >= needed


def test_oracle_matches_handcrafted_geometry():
    # Single vessel, four reference navigators, one sequence with three
    # navigators (two data frames).  A data frame pairs the navigator before
    # it with ref[i-1] and the one after it with ref[i+1], so the aligned nav
    # ramp advances two reference steps per row; aligned offsets are (3, 4)
    # triangles and every total is exact in float.
    ref = np.zeros((4, 1, 2))
    ref[:, 0] = [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)]
    nav = np.zeros((3, 1, 2))
    nav[:, 0] = [(13.0, 14.0), (33.0, 34.0), (53.0, 54.0)]
    truth = GroundTruth(
        labels=["v0"],
        interleaved_names=["il000"],
        nav_positions={"ref1": ref, "il000": nav},
        nav_states={"ref1": np.zeros(4), "il000": np.zeros(3)},
    )
    out = oracle_matches(truth, threshold=10.5)
    assert set(out) == {(0, 1, 1), (0, 1, 3), (0, 2, 1), (0, 2, 3)}
    assert out[(0, 1, 1)] == (True, 10.0)
    assert out[(0, 2, 1)] == (False, pytest.approx(2 * math.hypot(7, 6), abs=1e-12))
    assert out[(0, 2, 3)] == (False, pytest.approx(2 * math.hypot(13, 14), abs=1e-12))
    assert out[(0, 1, 3)] == (False, pytest.approx(2 * math.hypot(23, 24), abs=1e-12))
    # strict inequality at the boundary
    at_limit = oracle_matches(truth, threshold=10.0)
    assert at_limit[(0, 1, 1)] == (False, 10.0)


def test_ground_truth_csv_lists_every_navigator(replay, tmp_path):
    spec, _, truth, _ = replay
    path = tmp_path / "truth.csv"
    write_ground_truth_csv(truth, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    navs_per_il = spec.data_frames_per_sequence + 1
    expected = len(truth.labels) * (2 * spec.reference_frames + spec.sequences * navs_per_il)
    assert len(rows) == expected
    assert rows[0].keys() == {"sequence", "frame", "vessel", "x", "y", "state_px"}
    first = rows[0]
    assert first["sequence"] == "ref1"
    assert first["frame"] == "0"
    assert float(first["y"]) == pytest.approx(truth.nav_positions["ref1"][0, 0, 1], abs=1e-6)
    # interleaved navigators sit at even in-sequence indices
    il_rows = [r for r in rows if r["sequence"] == "il000"]
    assert sorted({int(r["frame"]) for r in il_rows}) == list(range(0, 2 * navs_per_il - 1, 2))


def test_spec_survives_json_round_trip(tmp_path):
    spec = PhantomSpec(
        frame_height=96,
        frame_width=112,
        vessels=(
            VesselSpec(x=30.0, y=40.0, radius_px=2.0, peak_intensity=800.0),
            VesselSpec(
                x=70.0,
                y=50.0,
                radius_px=1.5,
                peak_intensity=1000.0,
                modulation_depth=0.9,
                split_rest_px=3.0,
                split_gain_px=5.0,
                satellite_offsets=((9.0, 0.0), (-9.0, 4.0)),
                satellite_amplitude=0.7,
            ),
        ),
        background=12.0,
        noise_std=3.5,
        signal=BreathingSignal(
            amplitude_px=9.0,
            components=(SignalComponent(3800.0, 1.0), SignalComponent(7400.0, 0.3)),
            drift_px_per_min=0.2,
            seed=5,
        ),
        reference_frames=30,
        sequences=3,
        data_frames_per_sequence=7,
        sequence_phase_jitter_ms=25.0,
        sequence_amp_jitter=0.05,
        sequence_offsets_px=((2, 30.0),),
        in_plane_spacing_mm=(1.5, 1.5),
    )
    path = tmp_path / "phantom.json"
    save_spec(spec, path)
    assert load_spec(path) == spec
    # and via plain dicts, after a JSON round trip
    assert from_obj(PhantomSpec, json.loads(json.dumps(to_obj(spec)))) == spec


def test_spec_obj_defaults_apply_when_keys_are_missing():
    spec = from_obj(PhantomSpec, {"frame_height": 48})
    assert spec.frame_height == 48
    assert spec.frame_width == PhantomSpec().frame_width
    assert spec.vessels == PhantomSpec().vessels


def test_spec_obj_mirrors_the_dataclasses(tmp_path):
    obj = to_obj(PhantomSpec())
    assert obj["signal"]["components"] == [{"period_ms": 3800.0, "weight": 1.0}]
    assert obj["in_plane_spacing_mm"] == [1.82, 1.82]
    assert set(obj["vessels"][0]) == set(VesselSpec.__dataclass_fields__)
    # every JSON input the program writes reads back as the value it was written from
    dataset, truth = generate_phantom(PhantomSpec(), seed=0)
    rois = suggested_rois(PhantomSpec(), truth)
    assert set(to_obj(rois[0])) == {"label", "x", "y", "w", "h"}
    root = write_dataset(dataset, tmp_path / "dataset")
    metas = [read_json(root / "dataset.json", lambda obj: from_obj(_DatasetMeta, obj))]
    metas += [read_json(path, lambda obj: from_obj(_SequenceMeta, obj)) for path in sorted(root.glob("*/seq.json"))]
    assert len(metas) == 1 + len(dataset.interleaved) + 2
    for value in [PhantomSpec(), *rois, *metas]:
        assert from_obj(type(value), json.loads(json.dumps(to_obj(value)))) == value


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"frame_height": 48.0}, "key 'frame_height' must be an integer"),
        ({"noise_std": True}, "key 'noise_std' must be a finite number"),
        ({"background": float("nan")}, "key 'background' must be a finite number"),
        ({"in_plane_spacing_mm": 1.5}, "key 'in_plane_spacing_mm' must be a list of 2"),
        (
            {"vessels": [{"x": 24.0, "y": 20.0, "satellite_offsets": [[1.0, 2.0, 3.0]]}]},
            "key 'vessels[0].satellite_offsets[0]' must be a list of 2",
        ),
        ({"signal": {"seed": 1, "phase": 0.5}}, "unknown key 'signal.phase'"),
        ([1], "expected an object, got [1]"),
    ],
    ids=["float-for-int", "bool", "nan", "scalar-spacing", "offset-triple", "unknown-nested", "not-object"],
)
def test_spec_obj_errors_name_the_key_path(obj, message):
    with pytest.raises(ValidationError) as exc:
        from_obj(PhantomSpec, obj)
    assert str(exc.value).startswith(message)


def test_render_frame_needs_an_rng_for_noise():
    with pytest.raises(ValueError, match="RNG"):
        render_frame((8, 8), [], background=10.0, noise_std=2.0, rng=None)


def test_render_frame_clips_to_u16():
    hot = render_frame((8, 8), [(4.0, 4.0, 1.5, 1.5, 1e6)], background=100.0)
    assert hot.dtype == np.uint16
    assert hot.max() == 65535
    flat = render_frame((8, 8), [], background=100.0)
    assert np.all(flat == 100)
