"""Tracking through reference sequences: drift, ramps, and template updates."""

import csv
import math

import numpy as np
import pytest

from resp4d import tracker
from resp4d.errors import TrackingError, ValidationError
from resp4d.imgcore import NAVIGATOR, Frame, ReferenceSequence
from resp4d.matcher import CCOEFF_NORMED, CCORR_NORMED, SearchRegion, cut_template, match_template
from resp4d.phantom import PhantomSpec, generate_phantom, render_frame, suggested_rois
from resp4d.tracker import (
    FIXED,
    UPDATING,
    Roi,
    locate_in_navigator,
    rois_from_obj,
    rois_to_obj,
    track_reference,
    write_trace_csv,
)


def _sequence(centres, shape=(48, 48), radius=2.0, peak=900.0, background=50.0):
    """Noise-free single-blob navigator sequence with the blob at ``centres``."""
    frames = [
        Frame(
            pixels=render_frame(shape, [(cx, cy, radius, radius, peak)], background=background),
            kind=NAVIGATOR,
            timestamp_ms=200.0 * i,
            slice_position_mm=0.0,
        )
        for i, (cx, cy) in enumerate(centres)
    ]
    return ReferenceSequence(frames=frames, frame_period_ms=200.0)


_ROI = [Roi(label="v0", x=18, y=18, width=13, height=13)]  # centred on (24, 24)


@pytest.mark.parametrize("mode", [FIXED, UPDATING])
@pytest.mark.parametrize("measure", [CCOEFF_NORMED, CCORR_NORMED])
def test_static_scene_drifts_exactly_zero(mode, measure):
    ref = _sequence([(24.0, 24.0)] * 60)
    trace, _ = track_reference(ref, _ROI, measure=measure, mode=mode)
    assert np.all(trace.positions == np.array([18.0, 18.0]))
    assert np.all(trace.scores == 1.0)
    assert not trace.widened.any()


@pytest.mark.parametrize("mode", [FIXED, UPDATING])
def test_integer_ramp_is_tracked_exactly(mode):
    centres = [(24.0, 12.0 + i) for i in range(25)]
    ref = _sequence(centres, shape=(48, 48))
    rois = [Roi(label="v0", x=18, y=6, width=13, height=13)]
    trace, _ = track_reference(ref, rois, mode=mode)
    expected = np.array([[[18.0, 6.0 + i]] for i in range(25)])
    assert np.array_equal(trace.positions, expected)
    assert not trace.widened.any()


@pytest.mark.parametrize("mode", [FIXED, UPDATING])
def test_subpixel_sinusoid_stays_within_quarter_pixel(mode):
    centres = [(24.0, 24.0 + 3.0 * math.sin(2.0 * math.pi * i / 20.0)) for i in range(41)]
    ref = _sequence(centres)
    trace, _ = track_reference(ref, _ROI, mode=mode)
    half = _ROI[0].width // 2
    tracked = trace.positions[:, 0, :] + half
    truth = np.asarray(centres)
    err = np.hypot(*(tracked - truth).T)
    assert err.max() <= 0.25


def test_modes_agree_on_rigid_motion():
    centres = [(24.0 + 1.5 * math.cos(0.4 * i), 24.0 + 2.5 * math.sin(0.3 * i)) for i in range(30)]
    ref = _sequence(centres)
    upd, _ = track_reference(ref, _ROI, mode=UPDATING)
    fix, _ = track_reference(ref, _ROI, mode=FIXED)
    gap = np.hypot(*(upd.positions - fix.positions)[:, 0, :].T)
    assert gap.max() <= 0.3


def test_shape_change_defeats_fixed_templates(split_vessel):
    # The split vessel widens with the breathing state.  Updated templates
    # follow the pair; the frame-0 template sees two mirror alignments and
    # keeps locking half a separation off centre.
    _, dataset, truth, rois = split_vessel
    half = rois[0].width // 2
    centres = truth.nav_positions["ref1"]

    errors = {}
    for mode in (UPDATING, FIXED):
        trace, _ = track_reference(dataset.reference_1, rois, mode=mode)
        tracked = trace.positions + half
        errors[mode] = float(np.mean(np.hypot(*(tracked - centres).transpose(2, 0, 1))))
    assert errors[UPDATING] <= 0.5
    assert errors[FIXED] > 2.0 * errors[UPDATING]
    assert errors[FIXED] > 0.5


def test_updating_returns_one_template_set_per_frame(split_vessel):
    _, dataset, _, rois = split_vessel
    trace, sets = track_reference(dataset.reference_1, rois, mode=UPDATING)
    assert len(sets) == trace.n_frames
    for i, ts in enumerate(sets):
        assert len(ts) == len(rois)
        for tpl, roi, (x, y) in zip(ts, rois, trace.positions[i].tolist()):
            assert (tpl.width, tpl.height) == (roi.width, roi.height)
            # set i is cut in frame i at the position tracked there
            want = cut_template(dataset.reference_1.frames[i].pixels, x, y, roi.width, roi.height)
            assert np.array_equal(tpl.pixels, want.pixels)


def test_fixed_returns_only_the_initial_set():
    ref = _sequence([(24.0, 24.0)] * 5)
    _, sets = track_reference(ref, _ROI, mode=FIXED)
    assert len(sets) == 1
    assert np.array_equal(sets[0][0].pixels, ref.frames[0].pixels[18:31, 18:31])


def test_only_fixed_templates_keep_their_whole_frame_spectrum():
    spec = PhantomSpec()
    dataset, truth = generate_phantom(spec, seed=0)
    rois = suggested_rois(spec, truth)
    _, updating = track_reference(dataset.reference_1, rois, search_radius=None, mode=UPDATING)
    assert sum(a.nbytes for s in updating for t in s for a in t._spectra.values()) == 0
    _, fixed = track_reference(dataset.reference_1, rois, mode=FIXED)
    assert [len(t._spectra) for t in fixed[0]] == [1] * len(rois)


def test_degenerate_initial_roi_is_rejected():
    ref = _sequence([(24.0, 24.0)] * 3)
    corner = [Roi(label="v0", x=0, y=0, width=5, height=5)]  # flat background
    with pytest.raises(TrackingError, match="frame 0"):
        track_reference(ref, corner, mode=UPDATING)


def test_degenerate_updated_template_names_vessel_and_frame():
    blob = render_frame((48, 48), [(24.0, 24.0, 2.0, 2.0, 900.0)], background=50.0)
    flat = render_frame((48, 48), [], background=50.0)
    frames = [
        Frame(pixels=p, kind=NAVIGATOR, timestamp_ms=200.0 * i, slice_position_mm=0.0)
        for i, p in enumerate([blob, flat])
    ]
    ref = ReferenceSequence(frames=frames, frame_period_ms=200.0)
    with pytest.raises(TrackingError, match=r"vessel 'v0' at frame 1"):
        track_reference(ref, _ROI, mode=UPDATING)


def test_roi_outside_frame_is_rejected():
    ref = _sequence([(24.0, 24.0)] * 3)
    bad = [Roi(label="v0", x=40, y=40, width=13, height=13)]
    with pytest.raises(ValidationError, match="does not fit"):
        track_reference(ref, bad, mode=FIXED)


def test_unknown_mode_and_measure_are_rejected():
    ref = _sequence([(24.0, 24.0)] * 3)
    with pytest.raises(ValueError, match="mode"):
        track_reference(ref, _ROI, mode="adaptive")
    with pytest.raises(ValueError, match="measure"):
        track_reference(ref, _ROI, measure="ssd")
    with pytest.raises(ValidationError, match="no ROIs"):
        track_reference(ref, [], mode=FIXED)


def test_fixed_tracking_is_one_whole_frame_call_per_frame_and_vessel(monkeypatch):
    # every fixed-mode search goes through tracker.match_template, which the
    # benchmark's tracer hooks to count kernel work
    calls = []

    def counted(image, template, measure, region=None, min_score=0.5):
        calls.append(region)
        return match_template(image, template, measure, region=region, min_score=min_score)

    monkeypatch.setattr(tracker, "match_template", counted)
    ref = _sequence([(24.0, 24.0 + math.sin(i)) for i in range(9)])
    rois = [_ROI[0], Roi(label="v1", x=20, y=19, width=9, height=9)]
    trace, sets = track_reference(ref, rois, mode=FIXED)
    assert len(calls) == (9 - 1) * 2
    assert all(region is None for region in calls)
    assert len(sets) == 1 and trace.positions.shape == (9, 2, 2)


def test_locate_in_same_frame_is_exact():
    ref = _sequence([(24.0, 24.0)] * 2)
    _, sets = track_reference(ref, _ROI, mode=FIXED)
    positions, scores, widened = locate_in_navigator([ref.frames[0]], sets, priors=[[[(18.0, 18.0)]]])
    assert positions.shape == (1, 1, 1, 2) and scores.shape == widened.shape == (1, 1, 1)
    assert tuple(positions[0, 0, 0]) == (18.0, 18.0)
    assert scores[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
    assert not widened.any()


def test_locate_follows_a_shift_within_the_region():
    ref = _sequence([(24.0, 24.0)])
    shifted = _sequence([(24.0, 27.0)])
    _, sets = track_reference(ref, _ROI, mode=FIXED)
    positions, _, widened = locate_in_navigator([shifted.frames[0]], sets, priors=[[[(18.0, 18.0)]]], search_radius=5)
    assert tuple(positions[0, 0, 0]) == (18.0, 21.0)
    assert not widened.any()


def test_locate_widens_when_the_prior_is_wrong():
    ref = _sequence([(24.0, 24.0)])
    _, sets = track_reference(ref, _ROI, mode=FIXED)
    positions, _, widened = locate_in_navigator([ref.frames[0]], sets, priors=[[[(2.0, 2.0)]]], search_radius=3)
    assert widened[0, 0, 0]
    assert tuple(positions[0, 0, 0]) == (18.0, 18.0)


def test_locate_rejects_mismatched_priors():
    ref = _sequence([(24.0, 24.0)])
    _, sets = track_reference(ref, _ROI, mode=FIXED)
    with pytest.raises(ValueError, match="priors"):
        locate_in_navigator([ref.frames[0]], sets, priors=[[[(0.0, 0.0), (1.0, 1.0)]]])
    with pytest.raises(ValueError, match="priors"):
        locate_in_navigator([ref.frames[0]], sets * 2, priors=[[[(0.0, 0.0)]]])
    with pytest.raises(ValueError, match="priors"):
        locate_in_navigator([ref.frames[0]] * 2, sets, priors=[[[(0.0, 0.0)]]])


@pytest.mark.parametrize("min_score, widened", [(-1.0, [False, False, False]), (0.5, [True, False, False])])
def test_locate_batches_chains_as_separate_calls_would(min_score, widened):
    # three template sets of a blob moving down; chain 0's prior sits by the
    # corner, so its region is clipped by the frame while the union of the
    # three regions reaches the blob
    _, sets = track_reference(_sequence([(24.0, 24.0 + i) for i in range(3)]), _ROI, mode=UPDATING)
    nav = _sequence([(24.0, 25.0)]).frames[0]
    priors = np.array([[(1.0, 1.5)], [(18.0, 19.0)], [(17.0, 18.0)]])
    positions, scores, flags = (out[0] for out in locate_in_navigator([nav], sets, priors[None], search_radius=3, min_score=min_score))
    assert math.ceil(priors[0, 0, 0] - 3) < 0
    assert flags[:, 0].tolist() == widened
    for r, tset in enumerate(sets):
        region = SearchRegion(tuple(priors[r, 0]), 3)
        want = match_template(nav.pixels, tset[0], region=region, min_score=min_score)
        assert want.widened == flags[r, 0]
        np.testing.assert_allclose(positions[r, 0], want.position, rtol=0, atol=1e-9)
        assert scores[r, 0] == pytest.approx(want.score, abs=1e-9)
    if not widened[0]:
        assert positions[0, 0, 0] <= 4.0 and positions[0, 0, 1] <= 4.5  # stayed inside its own clipped region


@pytest.mark.parametrize("search_radius", [10, None])
@pytest.mark.parametrize("measure", [CCOEFF_NORMED, CCORR_NORMED])
@pytest.mark.parametrize("mode", [FIXED, UPDATING])
def test_lockstep_locate_matches_per_chain_calls(mode, measure, search_radius):
    # three sequences' navigators, the blob by the top-left corner, by the
    # bottom-right corner and in the middle; their chains' regions clip at
    # different borders, so the regions (one set) or unions (three sets)
    # differ in size and are grown and clamped.  Chain 0 of the middle
    # sequence looks 16 px below the blob and is the one weak region, so a
    # min score just above it widens that chain alone.
    _, sets = track_reference(_sequence([(24.0, 24.0 + i) for i in range(3)]), _ROI, mode=mode)
    navs = [_sequence([centre]).frames[0] for centre in [(7.0, 8.0), (41.0, 40.0), (24.0, 25.0)]]
    priors = np.array(
        [
            [[(1.5, 2.0)], [(0.0, 1.0)], [(2.0, 3.5)]],
            [[(34.0, 33.5)], [(35.0, 35.0)], [(33.0, 32.0)]],
            [[(18.0, 35.0)], [(18.5, 19.0)], [(17.0, 18.0)]],
        ]
    )[:, : len(sets)]
    n_sets = len(sets)

    def per_chain(min_score):
        out = np.empty((3, n_sets), dtype=object)
        for s, r in np.ndindex(3, n_sets):
            region = None if search_radius is None else SearchRegion(tuple(priors[s, r, 0]), search_radius)
            out[s, r] = match_template(navs[s].pixels, sets[r][0], measure, region, min_score)
        return out

    regional = sorted(res.score for res in per_chain(-np.inf).flat)
    # one weak chain widens, then (above any score) every chain of every sequence
    for min_score, n_widened in [((regional[0] + regional[1]) / 2, 1), (2.0, 3 * n_sets)]:
        want = per_chain(min_score)
        positions, scores, flags = locate_in_navigator(navs, sets, priors, measure, search_radius, min_score)
        assert positions.shape == (3, n_sets, 1, 2) and scores.shape == flags.shape == (3, n_sets, 1)
        assert flags[..., 0].tolist() == [[res.widened for res in row] for row in want]
        assert flags.sum() == (n_widened if search_radius else 0)
        assert flags[2, 0, 0] == bool(search_radius)
        for s, r in np.ndindex(3, n_sets):
            np.testing.assert_allclose(positions[s, r, 0], want[s, r].position, rtol=0, atol=1e-9)
            assert scores[s, r, 0] == pytest.approx(want[s, r].score, abs=1e-9)


def test_empty_roi_rectangle_is_rejected():
    with pytest.raises(ValidationError, match="empty"):
        Roi(label="v0", x=0, y=0, width=0, height=5)


def test_rois_json_round_trip_and_validation():
    rois = [Roi("a", 1, 2, 5, 7), Roi("b", 10, 12, 9, 9)]
    assert rois_from_obj(rois_to_obj(rois)) == rois
    with pytest.raises(ValidationError, match="duplicate"):
        rois_from_obj(rois_to_obj([Roi("a", 1, 2, 5, 7), Roi("a", 3, 4, 5, 7)]))
    with pytest.raises(ValidationError, match="non-empty"):
        rois_from_obj([])
    with pytest.raises(ValidationError, match="bad ROI entry"):
        rois_from_obj([{"label": "a", "x": 1, "y": 2, "w": 5}])


def test_trace_csv_layout(tmp_path):
    centres = [(24.0, 24.0 + i) for i in range(4)]
    ref = _sequence(centres)
    trace, _ = track_reference(ref, _ROI, mode=UPDATING)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"vessel", "frame", "x", "y", "score", "widened"}
    assert len(rows) == 4
    assert [r["frame"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["vessel"] == "v0" for r in rows)
    assert float(rows[2]["y"]) == pytest.approx(trace.positions[2, 0, 1], abs=1e-6)
    assert {r["widened"] for r in rows} <= {"0", "1"}
