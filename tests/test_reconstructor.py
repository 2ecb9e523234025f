"""End-to-end binning pipeline on phantoms with analytically known matches."""

import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from resp4d import matcher, reconstructor, tracker
from resp4d.errors import ValidationError
from resp4d.imgcore import DATA, NAVIGATOR, Dataset, Frame, InterleavedSequence, ReferenceSequence, quantize_u16
from resp4d.matcher import CCOEFF_NORMED, CCORR_NORMED, SearchRegion, match_template
from resp4d.phantom import (
    BreathingSignal,
    PhantomSpec,
    SignalComponent,
    VesselSpec,
    generate_phantom,
    oracle_matches,
    render_frame,
    suggested_rois,
)
from resp4d.reconstructor import (
    BASELINE_METHOD,
    UPDATING_METHOD,
    ReconstructionConfig,
    average_bin,
    decide_all,
    displacement_tables,
    reconstruct,
    save_reconstruction,
)
from resp4d.tracker import FIXED, UPDATING, Roi, locate_in_navigator, track_reference, vessel_banks

from conftest import replay_spec, split_vessel_spec


def _voxels(volume):
    """Every timepoint's stack, as (n_timepoints, n_slices, H, W)."""
    return np.stack([volume.stack(ti) for ti in range(len(volume.timepoints))])


def _decisions(report):
    """(sequence, timepoint, data frame ordinal) -> (accepted, total), as in matches.csv."""
    out = {}
    for s, (totals, accepted) in enumerate(zip(report.totals, report.accepted)):
        for (row, k), total in np.ndenumerate(totals):
            out[(s, row + 1, 2 * k + 1)] = (bool(accepted[row, k]), float(total))
    return out


@pytest.mark.parametrize("method", [UPDATING_METHOD, BASELINE_METHOD])
def test_replay_phantom_reconstructs_fully(replay, method):
    # Breathing period an exact odd multiple of the frame period: every
    # eligible timepoint recurs exactly in each interleaved sequence, so both
    # methods fill every (timepoint, slice) cell.
    spec, dataset, truth, rois = replay
    config = ReconstructionConfig(method=method)
    volume, report = reconstruct(dataset, rois, config)

    assert report.reconstruction_rate == 100.0
    assert report.missing == {}
    assert report.widened_count == 0
    assert volume.completeness.all()
    assert volume.timepoints == list(range(1, spec.reference_frames - 1))
    assert volume.slice_positions_mm == sorted(volume.slice_positions_mm)
    assert _voxels(volume).shape == (
        spec.reference_frames - 2,
        spec.sequences,
        spec.frame_height,
        spec.frame_width,
    )
    assert all(count > 0 for count in report.per_sequence_matches.values())

    # tracked decisions agree with decisions brute-forced from true centres
    oracle = oracle_matches(truth, threshold=config.threshold_px)
    got = _decisions(report)
    assert set(got) == set(oracle)
    for key, (accepted, total) in oracle.items():
        assert got[key][0] == accepted
        assert got[key][1] == pytest.approx(total, abs=0.5)


def test_zero_threshold_rejects_everything(replay):
    spec, dataset, _, rois = replay
    volume, report = reconstruct(dataset, rois, ReconstructionConfig(threshold_px=0.0))
    assert report.reconstruction_rate == 0.0
    assert not volume.completeness.any()
    assert np.all(_voxels(volume) == 0.0)
    assert report.per_sequence_matches == {0: 0, 1: 0}
    assert set(report.missing) == set(range(1, spec.reference_frames - 1))
    assert all(len(v) == spec.sequences for v in report.missing.values())
    assert not any(a.any() for a in report.accepted)


def test_shifted_sequence_contributes_nothing():
    spec = replay_spec(
        vessels=(VesselSpec(x=24.0, y=64.0, radius_px=2.5),),
        frame_height=128,
        sequence_offsets_px=((1, 30.0),),
    )
    dataset, truth = generate_phantom(spec, seed=3)
    rois = suggested_rois(spec, truth)
    volume, report = reconstruct(dataset, rois, ReconstructionConfig())
    assert report.per_sequence_matches[1] == 0
    assert report.per_sequence_matches[0] > 0
    shifted_mm = report.sequence_slice_mm[1]
    for tp in range(1, spec.reference_frames - 1):
        assert tp in report.missing
        assert shifted_mm in report.missing[tp]
    assert report.reconstruction_rate == 50.0


def test_bins_are_consistent_with_completeness_and_voxels(replay):
    _, dataset, _, rois = replay
    volume, report = reconstruct(dataset, rois, ReconstructionConfig())
    n_slices = len(volume.slice_positions_mm)
    assert volume.completeness.shape == (len(volume.timepoints), n_slices)
    assert len(report.accepted) == n_slices
    for ti, i in enumerate(volume.timepoints):
        stack = volume.stack(ti)
        assert stack.shape == (n_slices,) + dataset.frame_shape
        for si, slice_mm in enumerate(volume.slice_positions_mm):
            (s,) = [s for s, mm in report.sequence_slice_mm.items() if mm == slice_mm]
            seq = dataset.interleaved[s]
            assert seq.data_slice_position_mm == slice_mm
            indices = [2 * int(k) + 1 for k in np.nonzero(report.accepted[s][i - 1])[0]]
            assert all(seq.frames[d].kind == DATA for d in indices)
            assert volume.completeness[ti, si] == bool(indices)
            if indices:
                expected = quantize_u16(average_bin([seq.frames[d].pixels for d in indices]))
                assert np.array_equal(stack[si], expected)
            else:
                assert np.all(stack[si] == 0)


def test_reconstruction_is_deterministic(replay):
    _, dataset, _, rois = replay
    va, ra = reconstruct(dataset, rois, ReconstructionConfig())
    vb, rb = reconstruct(dataset, rois, ReconstructionConfig())
    assert np.array_equal(_voxels(va), _voxels(vb))
    assert np.array_equal(va.completeness, vb.completeness)
    assert _decisions(ra) == _decisions(rb)


def _per_call_tables(dataset, rois, config):
    """Reference localization: one match_template call per (set, navigator, vessel), priors chained per set."""
    mode, radius = (FIXED, None) if config.method == BASELINE_METHOD else (UPDATING, config.search_radius)
    ref = dataset.reference(config.reference)
    trace, sets = track_reference(ref, rois, config.measure, radius, mode, config.min_score)
    chains = []
    for seq in dataset.interleaved:
        navs = seq.navigators()
        pos = np.zeros((len(sets), len(navs), len(rois), 2))
        score, wid = np.zeros(pos.shape[:3]), np.zeros(pos.shape[:3], dtype=bool)
        for r, n, v in np.ndindex(len(sets), len(navs), len(rois)):
            region = None
            if n > 0 and config.search_radius is not None:
                region = SearchRegion(tuple(pos[r, n - 1, v]), config.search_radius)
            res = match_template(navs[n].pixels, sets[r][v], config.measure, region, config.min_score)
            pos[r, n, v], score[r, n, v], wid[r, n, v] = res.position, res.score, res.widened
        chains.append((pos, score, wid))
    tables = [np.hypot(*np.moveaxis(trace.positions[:, None] - pos, -1, 0)) for pos, _, _ in chains]
    return sets, tables, chains, int(trace.widened.sum()) + int(sum(w.sum() for _, _, w in chains))


@pytest.fixture(scope="module")
def split_session():
    """The c4 split-vessel phantom, shortened so the per-call reference stays quick."""
    spec = replace(split_vessel_spec(), reference_frames=24, sequences=2)
    dataset, truth = generate_phantom(spec, seed=5)
    return spec, dataset, truth, suggested_rois(spec, truth)


def _ragged(replay):
    """The replay phantom with its first sequence cut short: 8 navigators against 20."""
    _, dataset, _, rois = replay
    first, *rest = dataset.interleaved
    return replace(dataset, interleaved=[replace(first, frames=first.frames[:15]), *rest]), rois


@pytest.mark.parametrize("search_radius", [10, None])
@pytest.mark.parametrize("measure", [CCOEFF_NORMED, CCORR_NORMED])
@pytest.mark.parametrize("phantom", ["replay", "split", "ragged"])
def test_batched_localization_matches_per_call_path(replay, split_session, monkeypatch, phantom, measure, search_radius):
    if phantom == "ragged":
        dataset, rois = _ragged(replay)
    else:
        _, dataset, _, rois = replay if phantom == "replay" else split_session
    # updating localizes R > 1 chains per sequence; the baseline's one chain
    # per sequence is scored as a stack of every sequence's region
    for method in (UPDATING_METHOD, BASELINE_METHOD):
        config = ReconstructionConfig(method=method, measure=measure, search_radius=search_radius)
        _assert_matches_per_call_path(dataset, rois, config, monkeypatch)


def _assert_matches_per_call_path(dataset, rois, config, monkeypatch):
    measure, search_radius = config.measure, config.search_radius
    sets, want_tables, chains, want_widened = _per_call_tables(dataset, rois, config)
    # navigator ordinal n of every sequence that has one, given the reference's
    # own priors, scores and places every chain alike
    navs = [seq.navigators() for seq in dataset.interleaved]
    banks = vessel_banks(sets, measure)
    for n in range(max(map(len, navs))):
        live = [s for s, nv in enumerate(navs) if n < len(nv)]
        priors = np.stack([chains[s][0][:, n - 1] for s in live]) if n else None
        got = locate_in_navigator([navs[s][n] for s in live], banks, priors, search_radius, config.min_score)
        for i, s in enumerate(live):
            pos, score, wid = chains[s]
            np.testing.assert_allclose(got[0][i], pos[:, n], rtol=0, atol=1e-9)
            np.testing.assert_allclose(got[1][i], score[:, n], rtol=0, atol=1e-9)
            assert np.array_equal(got[2][i], wid[:, n])
    tables, widened = displacement_tables(dataset, rois, config)
    assert widened == want_widened
    for got, want in zip(tables, want_tables, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # the same pipeline fed the per-call tables bins the same frames
    volume, report = reconstruct(dataset, rois, config)
    with monkeypatch.context() as patched:
        patched.setattr(reconstructor, "displacement_tables", lambda *args: (want_tables, want_widened))
        want_volume, want_report = reconstruct(dataset, rois, config)
    assert report.widened_count == want_report.widened_count == want_widened
    for s, want_accepted in enumerate(want_report.accepted):
        assert np.array_equal(report.accepted[s], want_accepted)
        np.testing.assert_allclose(report.totals[s], want_report.totals[s], rtol=0, atol=1e-9)
    assert np.array_equal(_voxels(volume), _voxels(want_volume))


def test_localization_is_one_call_per_navigator(replay, monkeypatch):
    # one call per navigator ordinal covers every sequence still running:
    # the longest sequence's 20 navigators, not 20 + 8
    spec = replay[0]
    dataset, rois = _ragged(replay)
    calls = {"locate": 0, "match": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reconstructor, "locate_in_navigator", counting("locate", reconstructor.locate_in_navigator))
    monkeypatch.setattr(tracker, "match_template", counting("match", tracker.match_template))
    reconstruct(dataset, rois, ReconstructionConfig(method=UPDATING_METHOD))
    assert calls["locate"] == max(len(seq.navigators()) for seq in dataset.interleaved) == 20
    # reference tracking only: every navigator ordinal's S x R x V matches go through batched calls
    assert calls["match"] == (spec.reference_frames - 1) * len(rois)


# the four equivalence phantoms: the default, c6's oracle phantom, and
# stagebench's baseline_bulk and the split vessel, the last two shortened so
# that the full search they are compared with stays quick
_TWO_VESSELS = (
    VesselSpec(x=24.0, y=20.0, radius_px=2.5, peak_intensity=1200.0),
    VesselSpec(x=56.0, y=38.0, radius_px=3.0, peak_intensity=900.0),
)
_JITTER = dict(sequence_phase_jitter_ms=40.0, sequence_amp_jitter=0.03)
EQUIVALENCE_PHANTOMS = {
    "default": (PhantomSpec(), 0),
    "c6": (
        PhantomSpec(
            frame_height=64, frame_width=80, vessels=_TWO_VESSELS, background=100.0, noise_std=0.0,
            signal=BreathingSignal(
                amplitude_px=6.0,
                components=(SignalComponent(3800.0, 1.0), SignalComponent(6100.0, 0.35)),
                seed=13,
            ),
            reference_frames=40, sequences=4, data_frames_per_sequence=15, **_JITTER,
        ),
        8,
    ),
    "baseline_bulk": (
        PhantomSpec(
            frame_height=96, frame_width=96,
            vessels=(
                VesselSpec(x=36.0, y=36.0, radius_px=2.5, peak_intensity=1200.0),
                VesselSpec(x=76.0, y=70.0, radius_px=3.0, peak_intensity=900.0),
            ),
            signal=BreathingSignal(amplitude_px=6.0, seed=13),
            reference_frames=16, sequences=2, data_frames_per_sequence=12, noise_std=3.0, **_JITTER,
        ),
        3,
    ),
    "split": (replace(split_vessel_spec(), reference_frames=24, sequences=2), 5),
}


@pytest.mark.parametrize("name", list(EQUIVALENCE_PHANTOMS))
def test_bounded_localization_decides_as_the_full_search(monkeypatch, name):
    """The updating method's tables, decisions and widened counts, with the bounded search and with the full one."""
    spec, seed = EQUIVALENCE_PHANTOMS[name]
    dataset, truth = generate_phantom(spec, seed=seed)
    rois = suggested_rois(spec, truth)
    searches, full_products = [], []
    bounded, scores_at = matcher._bounded_peaks, matcher._scores_at

    def recording_bounded(frame, crop, s1, s2, bank, boxes):
        # images stacked, placements in the stack, placements scored exactly
        searches.append([len(s2), s2.size, 0])
        return bounded(frame, crop, s1, s2, bank, boxes)

    def counted_scores_at(windows, s1, s2, bank, flat):
        searches[-1][2] += flat.size
        return scores_at(windows, s1, s2, bank, flat)

    def full_search(frame, crop, s1, s2, bank, boxes):
        # every R > 1 search, stacked or not, as a full search: every chain
        # at every placement of its own image, then its peak in its own box
        full_products.append(len(s2))
        scores = matcher._every_score(crop, s1, s2, bank)
        found = [
            [matcher.find_peak_subpixel(scores[s, r, y0 : y1 + 1, x0 : x1 + 1]) for r, (x0, x1, y0, y1) in enumerate(box.tolist())]
            for s, box in enumerate(boxes)
        ]
        return (np.array([[peak.position for peak in row] for row in found]),
                np.array([[peak.score for peak in row] for row in found]))

    monkeypatch.setattr(matcher, "_bounded_peaks", recording_bounded)
    monkeypatch.setattr(matcher, "_scores_at", counted_scores_at)
    for measure in (CCOEFF_NORMED, CCORR_NORMED):
        for search_radius in (10, None):
            config = ReconstructionConfig(measure=measure, search_radius=search_radius)
            searches.clear()
            tables, widened = displacement_tables(dataset, rois, config)
            # every R > 1 search, the split vessel's included, leaves placements
            # unscored, and the regional ones search all sequences as one stack
            assert searches and all(scored < placements for _, placements, scored in searches)
            assert max(stacked for stacked, _, _ in searches) == (len(dataset.interleaved) if search_radius else 1)
            full_products.clear()
            with monkeypatch.context() as forced:
                forced.setattr(matcher, "_bounded_peaks", full_search)
                want_tables, want_widened = displacement_tables(dataset, rois, config)
            # the forced run scores every chain everywhere, in every search the bounded run made
            assert full_products == [stacked for stacked, _, _ in searches]
            assert widened == want_widened
            for got, want in zip(tables, want_tables, strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            report, want_report = (decide_all(dataset, t, w, config) for t, w in ((tables, widened), (want_tables, want_widened)))
            for got, want in zip(report.accepted, want_report.accepted, strict=True):
                assert np.array_equal(got, want)


def test_reference_two_works_as_well(replay):
    _, dataset, _, rois = replay
    _, report = reconstruct(dataset, rois, ReconstructionConfig(reference=2))
    assert report.reconstruction_rate == 100.0


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(reference=3), "reference"),
        (dict(method="adaptive"), "method"),
        (dict(measure="ssd"), "measure"),
        (dict(threshold_px=-0.5), "threshold"),
        (dict(search_radius=0), "search radius"),
        (dict(measure="ccoeff"), "measure"),  # the CLI's short name is not a measure
        (dict(threshold_px=float("nan")), "threshold"),
        (dict(search_radius=-3), "search radius"),
        (dict(threshold_px=float("inf")), "threshold"),
        (dict(threshold_px=float("-inf")), "threshold"),
        (dict(min_score=float("nan")), "min score"),
        (dict(min_score=float("inf")), "min score"),
        (dict(min_score=float("-inf")), "min score"),
    ],
)
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        ReconstructionConfig(**kwargs)


def test_too_short_reference_is_rejected():
    blob = render_frame((32, 32), [(16.0, 16.0, 2.0, 2.0, 900.0)], background=50.0)

    def frame(i, kind, slice_mm):
        return Frame(pixels=blob, kind=kind, timestamp_ms=200.0 * i, slice_position_mm=slice_mm)

    ref = ReferenceSequence(frames=[frame(0, NAVIGATOR, 0.0), frame(1, NAVIGATOR, 0.0)], frame_period_ms=200.0)
    seq = InterleavedSequence(
        frames=[frame(2, NAVIGATOR, 0.0), frame(3, DATA, 10.0), frame(4, NAVIGATOR, 0.0)],
    )
    dataset = Dataset(
        reference_1=ref,
        reference_2=ref,
        interleaved=[seq],
        in_plane_spacing_mm=(1.82, 1.82),
        slice_gap_mm=4.0,
    )
    rois = [Roi("v0", 10, 10, 13, 13)]
    with pytest.raises(ValidationError, match="too short"):
        reconstruct(dataset, rois, ReconstructionConfig())


def test_average_bin_arithmetic():
    with pytest.raises(ValueError, match="empty"):
        average_bin([])
    one = np.full((4, 4), 37, dtype=np.uint16)
    out = average_bin([one])
    assert out.dtype == np.float64
    assert np.array_equal(out, np.full((4, 4), 37.0))
    a = np.full((4, 4), 100, dtype=np.uint16)
    b = np.full((4, 4), 200, dtype=np.uint16)
    assert np.array_equal(average_bin([a, b]), np.full((4, 4), 150.0))


def test_average_bin_equals_the_stacked_mean_bit_for_bit():
    rng = np.random.default_rng(47)
    for case in range(300):
        dtype = (np.float64, np.float32, np.uint16)[case % 3]
        shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
        scale = 10.0 ** rng.uniform(-3, 4) if dtype != np.uint16 else 2**16
        frames = [(rng.random(shape) * scale).astype(dtype) for _ in range(int(rng.integers(1, 7)))]
        kept = [f.copy() for f in frames]
        got = average_bin(frames)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.mean(np.stack(frames), axis=0, dtype=np.float64))
        assert all(np.array_equal(f, k) for f, k in zip(frames, kept))  # the inputs stay as they were


def test_stack_copies_lone_frames_and_quantizes_averages(tmp_path):
    # slice 0 holds flat frames of 1, 2, 3, 65535, 65535; slice 1 two ramps
    flat = [np.full((2, 3), v, dtype=np.uint16) for v in (1, 2, 3, 65535, 65535)]
    ramp = np.arange(6, dtype=np.uint16).reshape(2, 3) * 13107  # 0 .. 65535
    ramps = [ramp, ramp[::-1].copy()]
    accepted = [
        np.array([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]], dtype=bool),
        np.array([[0, 0], [1, 0], [0, 1]], dtype=bool),
    ]
    volume = reconstructor.Volume4D([0.0, 4.0], (1.82, 1.82, 4.0), [flat, ramps], accepted)
    report = reconstructor.ReconstructionReport(
        ReconstructionConfig(), {0: 0.0, 1: 4.0}, [np.zeros(a.shape) for a in accepted], accepted, 0
    )
    save_reconstruction(volume, report, tmp_path)

    # (1+2)/2 and (2+3)/2 round half to even to 2; slice 1 is empty, then a lone ramp each
    want = [
        [np.full((2, 3), 2), np.zeros((2, 3))],
        [np.full((2, 3), 2), ramp],
        [np.full((2, 3), 65535), ramp[::-1]],
    ]
    for ti, i in enumerate(volume.timepoints):
        stack = volume.stack(ti)
        assert stack.dtype == np.uint16
        assert np.array_equal(stack, np.stack(want[ti]))
        for si, (bin_frames, mask) in enumerate(zip((flat, ramps), accepted)):
            chosen = [f for f, ok in zip(bin_frames, mask[ti]) if ok]
            assert np.array_equal(stack[si], quantize_u16(average_bin(chosen)) if chosen else np.zeros_like(stack[si]))
        assert (tmp_path / f"t{i:04d}.u16le").read_bytes() == stack.astype("<u2").tobytes()


def test_save_reconstruction_layout(tmp_path, replay):
    spec, dataset, _, rois = replay
    volume, report = reconstruct(dataset, rois, ReconstructionConfig())
    out = save_reconstruction(volume, report, tmp_path / "out")

    manifest = json.loads((out / "volume4d.json").read_text())
    assert manifest["timepoints"] == volume.timepoints
    assert manifest["frame_shape"] == [spec.frame_height, spec.frame_width]
    assert manifest["stacks"] == [f"t{i:04d}.u16le" for i in volume.timepoints]
    assert manifest["voxel_spacing_mm"] == [1.82, 1.82, spec.slice_gap_mm]
    stack_bytes = spec.sequences * spec.frame_height * spec.frame_width * 2
    for name in manifest["stacks"]:
        assert (out / name).stat().st_size == stack_bytes

    # the first stack file holds the first timepoint's uint16 stack
    raw = np.frombuffer((out / manifest["stacks"][0]).read_bytes(), dtype="<u2")
    expected = volume.stack(0)
    assert np.array_equal(raw.reshape(expected.shape), expected)

    report_obj = json.loads((out / "report.json").read_text())
    assert "seconds" not in report_obj
    assert report_obj["reconstruction_rate"] == report.reconstruction_rate
    assert report_obj["config"]["method"] == "updating"

    with open(out / "matches.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(a.size for a in report.accepted)
    assert [int(r["accepted"]) for r in rows] == [
        int(x) for a in report.accepted for x in a.ravel()
    ]
    assert rows[0].keys() == {
        "reference_timepoint",
        "sequence_index",
        "data_frame_index",
        "total",
        "accepted",
    }

    with open(out / "acquisition_correlation.csv", newline="") as fh:
        corr = list(csv.DictReader(fh))
    assert [int(r["acquisition_index"]) for r in corr] == sorted(report.per_sequence_matches)
    assert [int(r["matches"]) for r in corr] == [
        report.per_sequence_matches[s] for s in sorted(report.per_sequence_matches)
    ]


@pytest.mark.parametrize("method", [UPDATING_METHOD, BASELINE_METHOD])
def test_reconstruct_and_save_never_hold_the_whole_volume(tmp_path, split_vessel, method):
    # stacks are built one timepoint at a time while they are saved, so
    # the traced peak stays below even a uint16 copy of the float64 volume
    _, dataset, _, rois = split_vessel
    tracemalloc.start()
    try:
        volume, report = reconstruct(dataset, rois, ReconstructionConfig(method=method))
        save_reconstruction(volume, report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    volume_bytes = volume.completeness.size * np.prod(dataset.frame_shape) * 8
    assert volume.completeness.shape == (64, 10) and volume_bytes > 39e6
    assert peak < volume_bytes / 4


def test_saved_directories_are_bit_identical(tmp_path, replay):
    _, dataset, _, rois = replay
    for run in ("a", "b"):
        volume, report = reconstruct(dataset, rois, ReconstructionConfig())
        save_reconstruction(volume, report, tmp_path / run)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_matches_csv_is_what_csv_writer_writes(tmp_path, replay):
    _, dataset, _, rois = replay
    volume, report = reconstruct(dataset, rois, ReconstructionConfig())
    # totals on the edges of %.6f rounding, exact zeros and both decisions
    edges = [0.0000005, 2.5e-7, 1234.5678905, 0.0, 0.0, 0.0000015, 2.0000005, 1e-7, 0.1234565, 99999.9999995]
    report.totals[0].flat[: len(edges)] = edges
    report.totals[1].flat[-len(edges) :] = edges[::-1]
    report.accepted[0][1:] = False  # sequence 0 now matches at timepoint 1 only
    report.accepted[0].flat[:4] = [True, False, True, False]
    assert {x for a in report.accepted for x in a.ravel().tolist()} == {True, False}
    save_reconstruction(volume, report, tmp_path)

    # the per-row csv.writer loop that wrote matches.csv before one-pass formatting
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reference_timepoint", "sequence_index", "data_frame_index", "total", "accepted"])
        for s, (totals, accepted) in enumerate(zip(report.totals, report.accepted)):
            for i, (row_totals, row_accepted) in enumerate(zip(totals.tolist(), accepted.tolist()), start=1):
                for k, (total, ok) in enumerate(zip(row_totals, row_accepted)):
                    writer.writerow([i, s, 2 * k + 1, f"{total:.6f}", int(ok)])
    assert (tmp_path / "matches.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # every summary and every stack follows the edited masks that matches.csv records
    slice_mm = report.sequence_slice_mm
    matches = {s: 0 for s in slice_mm}
    bins = {}  # (timepoint, sequence) -> accepted data frame ordinals
    with open(tmp_path / "matches.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["accepted"] == "1":
                s, i = int(row["sequence_index"]), int(row["reference_timepoint"])
                matches[s] += 1
                bins.setdefault((i, s), []).append(int(row["data_frame_index"]))
    manifest = json.loads((tmp_path / "volume4d.json").read_text())
    saved = json.loads((tmp_path / "report.json").read_text())
    order = sorted(slice_mm, key=slice_mm.__getitem__)
    timepoints = manifest["timepoints"]
    empty = {str(i): sorted(slice_mm[s] for s in order if (i, s) not in bins) for i in timepoints}
    assert manifest["completeness"] == [[(i, s) in bins for s in order] for i in timepoints]
    assert saved["per_sequence_matches"] == {str(s): n for s, n in matches.items()}
    assert saved["missing"] == {i: mm for i, mm in empty.items() if mm}
    assert saved["reconstruction_rate"] == 100.0 * len(bins) / (len(timepoints) * len(order))
    with open(tmp_path / "acquisition_correlation.csv", newline="") as fh:
        assert {int(r["acquisition_index"]): int(r["matches"]) for r in csv.DictReader(fh)} == matches
    for i, name in zip(timepoints, manifest["stacks"]):
        stack = np.frombuffer((tmp_path / name).read_bytes(), dtype="<u2").reshape(len(order), *dataset.frame_shape)
        for si, s in enumerate(order):
            frames = [dataset.interleaved[s].frames[d].pixels for d in bins.get((i, s), [])]
            assert np.array_equal(stack[si], quantize_u16(average_bin(frames)) if frames else np.zeros_like(stack[si]))
