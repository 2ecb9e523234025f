"""End-to-end binning pipeline on phantoms with analytically known matches."""

import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from resp4d import reconstructor, tracker
from resp4d.errors import ValidationError
from resp4d.imgcore import DATA, NAVIGATOR, Dataset, Frame, InterleavedSequence, ReferenceSequence
from resp4d.matcher import CCOEFF_NORMED, CCORR_NORMED, SearchRegion, match_template
from resp4d.phantom import BreathingSignal, VesselSpec, generate_phantom, oracle_matches, render_frame, suggested_rois
from resp4d.reconstructor import (
    BASELINE_METHOD,
    UPDATING_METHOD,
    ReconstructionConfig,
    average_bin,
    displacement_tables,
    reconstruct,
    save_reconstruction,
)
from resp4d.tracker import FIXED, UPDATING, Roi, locate_in_navigator, track_reference

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
                expected = average_bin([seq.frames[d].pixels for d in indices])
                assert np.array_equal(stack[si], expected)
            else:
                assert np.all(stack[si] == 0.0)


def test_mean_aggregation_matches_scaled_sum_threshold(replay):
    _, dataset, _, rois = replay
    n_vessels = len(rois)
    _, by_sum = reconstruct(dataset, rois, ReconstructionConfig(threshold_px=1.0))
    _, by_mean = reconstruct(
        dataset, rois, ReconstructionConfig(threshold_px=1.0 / (2 * n_vessels), aggregation="mean")
    )
    for sum_flags, mean_flags in zip(by_sum.accepted, by_mean.accepted, strict=True):
        assert np.array_equal(sum_flags, mean_flags)
    assert np.array_equal(np.concatenate(by_sum.totals), np.concatenate(by_mean.totals))
    assert by_sum.reconstruction_rate == by_mean.reconstruction_rate


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
    for n in range(max(map(len, navs))):
        live = [s for s, nv in enumerate(navs) if n < len(nv)]
        priors = np.stack([chains[s][0][:, n - 1] for s in live]) if n else None
        got = locate_in_navigator([navs[s][n] for s in live], sets, priors, measure, search_radius, config.min_score)
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
        (dict(aggregation="median"), "aggregation"),
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
        data_slice_position_mm=10.0,
        sequence_index=0,
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

    # the first stack holds the quantized voxels of the first timepoint
    raw = np.frombuffer((out / manifest["stacks"][0]).read_bytes(), dtype="<u2")
    expected = np.rint(np.clip(volume.stack(0), 0, 65535)).astype(np.uint16)
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
    # stacks are averaged one timepoint at a time while they are saved, so
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
