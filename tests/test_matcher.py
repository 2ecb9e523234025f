import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resp4d.errors import DegenerateTemplateError
from resp4d.matcher import (
    CCOEFF_NORMED,
    CCORR_NORMED,
    MEASURES,
    MatchResult,
    SearchRegion,
    Template,
    cut_template,
    find_peak_subpixel,
    match_scores,
    match_template,
    match_templates,
    pick_peaks,
    placement_bounds,
    placement_boxes,
    response_map,
)


def _rng_image(seed, shape=(40, 48), lo=0, hi=1000):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=shape).astype(np.float64)


def _brute_force_response(img, tpl, measure):
    """Independent double-loop oracle for the dense response."""
    th, tw = tpl.pixels.shape
    ih, iw = img.shape
    out = np.zeros((ih - th + 1, iw - tw + 1))
    t = tpl.pixels
    tz = t - t.mean()
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            p = img[y : y + th, x : x + tw]
            if measure == CCOEFF_NORMED:
                pz = p - p.mean()
                denom = np.sqrt((tz * tz).sum() * (pz * pz).sum())
                out[y, x] = 0.0 if denom == 0.0 else (tz * pz).sum() / denom
            else:
                denom = np.sqrt((t * t).sum() * (p * p).sum())
                out[y, x] = 0.0 if denom == 0.0 else (t * p).sum() / denom
    return out


@pytest.mark.parametrize("measure", MEASURES)
def test_response_matches_brute_force(measure):
    img = _rng_image(11, shape=(24, 30))
    tpl = cut_template(img, 9, 7, 8, 6)
    got = response_map(img, tpl, measure)
    want = _brute_force_response(img, tpl, measure)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("measure", MEASURES)
def test_stacked_scores_match_brute_force(measure):
    # 35 rows of 41 placements span several bands of the im2col product; the
    # constant rows give zero-energy patches
    img = _rng_image(12)
    img[:8, :20] = 300.0
    templates = [cut_template(img, x, y, 8, 6) for x, y in ((9, 7), (20, 15), (3.5, 20.25))]
    full = placement_bounds(img.shape, (6, 8))
    got = match_scores(img, templates, measure, full)
    assert got.shape == (3, 35, 41)
    for tpl, scores in zip(templates, got):
        assert np.max(np.abs(scores - _brute_force_response(img, tpl, measure))) < 1e-9
    x0, x1, y0, y1 = box = (4, 30, 2, 33)
    boxed = match_scores(img, templates, measure, box)
    np.testing.assert_allclose(boxed, got[:, y0 : y1 + 1, x0 : x1 + 1], rtol=0, atol=1e-12)


# --- whole-frame single-template search (frequency-domain cross term) --------


@pytest.fixture
def spectral_calls(monkeypatch):
    """Count forward real FFTs, which only the whole-frame single-template kernel takes."""
    calls = []
    rfft2 = np.fft.rfft2

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counted)
    return calls


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize(
    "shape, cut",
    [
        ((47, 53), (9.0, 7.0, 11, 9)),  # odd frame, odd template
        ((47, 53), (30.5, 20.25, 8, 6)),  # interpolated template, even size
        ((16, 21), (0.0, 0.0, 21, 16)),  # template the size of the frame
        ((31, 40), (0.0, 23.0, 7, 8)),  # template cut at a frame corner
    ],
)
def test_whole_frame_scores_match_brute_force(measure, shape, cut, spectral_calls):
    img = _rng_image(21, shape=shape)
    img[:12, :] = 300.0  # zero-energy patches along the top border
    tpl = cut_template(img, *cut)
    got = response_map(img, tpl, measure)
    assert spectral_calls, "whole-frame search did not take the frequency-domain kernel"
    want = _brute_force_response(img, tpl, measure)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-9
    if measure == CCOEFF_NORMED and shape != (16, 21):
        assert np.all(got[: 12 - tpl.height + 1] == 0.0)  # flat patches score exactly 0


@pytest.mark.parametrize("measure", MEASURES)
def test_whole_frame_self_match_is_exact(measure, spectral_calls):
    img = _rng_image(22, shape=(47, 53))
    for x, y in ((0, 0), (53 - 9, 47 - 11), (17, 30), (0, 20)):  # corners, interior, border
        res = match_template(img, cut_template(img, x, y, 9, 11), measure)
        assert res.position == (float(x), float(y))
        assert res.score == 1.0
    assert spectral_calls


@pytest.mark.parametrize("measure", MEASURES)
def test_region_search_keeps_the_spatial_kernel(measure, spectral_calls):
    img = _rng_image(23, shape=(40, 48))
    tpl = cut_template(img, 20, 15, 8, 6)
    full = response_map(img, tpl, measure)
    spectral_calls.clear()
    region = response_map(img, tpl, measure, SearchRegion(center=(20.0, 15.0), radius=5))
    assert not spectral_calls
    np.testing.assert_allclose(region, full[10:21, 15:26], rtol=0, atol=1e-12)


# --- one template over a region (Toeplitz product cross term) ----------------


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("width, height", [(8, 6), (5, 9), (7, 7)])
def test_region_scores_match_brute_force(measure, width, height, spectral_calls):
    stack = np.stack([_rng_image(31 + s, shape=(30, 36)) for s in range(3)])
    stack[:, :10, :] = 300.0  # flat patches along the top border
    tpl = cut_template(stack[1], 12, 14, width, height)
    ymax, xmax = 30 - height, 36 - width
    regions = [
        SearchRegion(center=(xmax - 2.0, ymax - 1.0), radius=5),  # clipped right and bottom
        SearchRegion(center=(10.0, 1.0), radius=4),  # clipped at the top, over the flat rows
        SearchRegion(center=(15.5, 12.25), radius=3),  # interior, fractional centre
    ]
    boxes = [placement_bounds((30, 36), (height, width), region) for region in regions]
    assert (boxes[0][1], boxes[0][3], boxes[1][2]) == (xmax, ymax, 0)
    for box in boxes:
        x0, x1, y0, y1 = box
        got = match_scores(stack, [tpl], measure, box)[:, 0]
        assert got.shape == (3, y1 - y0 + 1, x1 - x0 + 1)
        for img, scores in zip(stack, got):
            want = _brute_force_response(img, tpl, measure)[y0 : y1 + 1, x0 : x1 + 1]
            assert np.max(np.abs(scores - want)) < 1e-9
            assert np.array_equal(match_scores(img, [tpl], measure, box)[0], scores)
        if measure == CCOEFF_NORMED:
            flat = max(0, 10 - height + 1 - y0)  # placements wholly inside the flat rows
            assert np.all(got[:, :flat] == 0.0)
    assert not spectral_calls


@pytest.mark.parametrize("measure", MEASURES)
def test_region_self_match_is_exact(measure, spectral_calls):
    img = _rng_image(32, shape=(47, 53))
    for x, y in ((17, 30), (53 - 9, 47 - 11), (0, 0), (40, 3)):  # interior, corners, border
        tpl = cut_template(img, x, y, 9, 11)
        res = match_template(img, tpl, measure, SearchRegion(center=(x + 1.5, y - 2.0), radius=6))
        assert (res.position, res.score, res.widened) == ((float(x), float(y)), 1.0, False)
        centres = np.array([[[x + 1.5, y - 2.0]], [[x - 3.0, y + 4.0]]])
        positions, scores, widened = match_templates([img, img], [tpl], measure, centers=centres, radius=6)
        assert positions.tolist() == [[[x, y]]] * 2 and scores.tolist() == [[1.0]] * 2 and not widened.any()
    assert not spectral_calls


def test_template_spectrum_is_kept_per_frame_shape_and_measure():
    tpl = cut_template(_rng_image(24), 9, 7, 8, 6)
    for shape in ((40, 48), (33, 35)):
        for measure in MEASURES:
            img = _rng_image(25, shape=shape)
            first = response_map(img, tpl, measure)
            assert (shape, measure) in tpl._spectra
            again = response_map(img, tpl, measure)  # from the kept spectrum
            assert np.array_equal(first, again)
            fresh = cut_template(_rng_image(24), 9, 7, 8, 6)
            assert np.array_equal(response_map(img, fresh, measure), first)
    assert len(tpl._spectra) == 4


@pytest.mark.parametrize("measure", MEASURES)
def test_whole_frame_search_rejects_degenerate_templates(measure):
    img = _rng_image(26, shape=(30, 30))
    tpl = Template(pixels=np.full((7, 7), 42.0 if measure == CCOEFF_NORMED else 0.0))
    with pytest.raises(DegenerateTemplateError):
        response_map(img, tpl, measure)
    with pytest.raises(DegenerateTemplateError):
        match_template(img, tpl, measure)


def test_match_templates_rejects_centres_of_the_wrong_shape():
    imgs = [_rng_image(27), _rng_image(28)]
    tpls = [cut_template(imgs[0], x, 5, 8, 6) for x in (3, 20, 30)]
    centres = np.full((2, 3, 2), 12.0)
    match_templates(imgs, tpls, centers=centres, radius=4)
    # (R, S, 2) instead of (S, R, 2) would reshape silently onto the wrong chains
    for bad in (centres.transpose(1, 0, 2), centres[:, :2], centres.reshape(-1, 2)):
        with pytest.raises(ValueError, match=r"centres must have shape \(2, 3, 2\)"):
            match_templates(imgs, tpls, centers=bad, radius=4)


def test_match_scores_takes_a_stack_for_one_template_only():
    stack = np.stack([_rng_image(29), _rng_image(30)])
    tpl = cut_template(stack[0], 4, 4, 8, 6)
    bounds = (2, 9, 1, 7)
    scores = match_scores(stack, [tpl], CCOEFF_NORMED, bounds)
    assert scores.shape == (2, 1, 7, 8)
    for s in range(2):
        assert np.array_equal(scores[s], match_scores(stack[s], [tpl], CCOEFF_NORMED, bounds))
    with pytest.raises(ValueError, match="non-empty 2D array"):
        match_scores(stack, [tpl, tpl], CCOEFF_NORMED, bounds)
    with pytest.raises(ValueError, match="non-empty 2D array"):
        response_map(stack, tpl)


def test_self_match_is_unity():
    img = _rng_image(3, shape=(15, 15))
    tpl = Template(pixels=img.copy())
    resp = response_map(img, tpl, CCOEFF_NORMED)
    assert resp.shape == (1, 1)
    assert abs(resp[0, 0] - 1.0) < 1e-9


def test_constant_template_is_degenerate_for_ccoeff():
    img = _rng_image(4)
    tpl = Template(pixels=np.full((7, 7), 42.0))
    with pytest.raises(DegenerateTemplateError):
        response_map(img, tpl, CCOEFF_NORMED)


def test_flat_patch_scores_zero():
    img = _rng_image(5, shape=(20, 20))
    img[:10, :] = 300.0  # constant band: zero-variance patches
    tpl = cut_template(img, 4, 12, 5, 5)
    resp = response_map(img, tpl, CCOEFF_NORMED)
    assert resp[0, 0] == 0.0  # placement fully inside the constant band


def test_cut_patch_argmax_recovery():
    img = _rng_image(6, shape=(50, 60))
    rng = np.random.default_rng(7)
    for _ in range(25):
        ix = int(rng.integers(0, 60 - 9))
        iy = int(rng.integers(0, 50 - 9))
        tpl = cut_template(img, ix, iy, 9, 9)
        resp = response_map(img, tpl, CCOEFF_NORMED)
        ay, ax = np.unravel_index(int(np.argmax(resp)), resp.shape)
        assert (ax, ay) == (ix, iy)


# --- template cutting -------------------------------------------------------


def test_cut_integer_is_exact_copy():
    img = _rng_image(8)
    tpl = cut_template(img, 5, 3, 7, 6)
    assert np.array_equal(tpl.pixels, img[3:9, 5:12])
    assert (tpl.width, tpl.height) == (7, 6)


def test_cut_fractional_is_bilinear():
    img = _rng_image(9)
    tpl = cut_template(img, 5.25, 3.5, 4, 4)
    a = img[3:7, 5:9]
    b = img[3:7, 6:10]
    c = img[4:8, 5:9]
    d = img[4:8, 6:10]
    want = 0.5 * (0.75 * a + 0.25 * b) + 0.5 * (0.75 * c + 0.25 * d)
    assert np.allclose(tpl.pixels, want, atol=1e-12)


def test_cut_out_of_bounds_raises():
    img = _rng_image(10, shape=(20, 20))
    with pytest.raises(ValueError, match="leaves the"):
        cut_template(img, 17.5, 0, 5, 5)
    with pytest.raises(ValueError, match="leaves the"):
        cut_template(img, -0.1, 0, 5, 5)


# --- subpixel refinement ----------------------------------------------------


def _resp_with_peak(a, b, c):
    """3x3 response with a horizontal triple (a, b, c) through the centre."""
    resp = np.zeros((3, 3))
    resp[1, 0], resp[1, 1], resp[1, 2] = a, b, c
    resp[0, 1] = resp[2, 1] = min(a, c) / 2
    return resp


def test_symmetric_triple_refines_to_zero_offset():
    res = find_peak_subpixel(_resp_with_peak(0.5, 1.0, 0.5))
    assert res.position[0] == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_triple_matches_parabola_vertex():
    # cross-check the closed form against an independent quadratic fit
    a, b, c = 0.6, 1.0, 0.8
    coeffs = np.polyfit([-1.0, 0.0, 1.0], [a, b, c], 2)
    vertex = -coeffs[1] / (2.0 * coeffs[0])
    assert vertex == pytest.approx(1.0 / 6.0, abs=1e-12)
    res = find_peak_subpixel(_resp_with_peak(a, b, c))
    assert res.position[0] == pytest.approx(1.0 + vertex, abs=1e-12)
    assert res.score == pytest.approx(1.0)


def test_tie_breaks_to_smallest_row_major_index():
    resp = np.zeros((4, 4))
    resp[2, 3] = resp[1, 1] = 0.9  # (1, 1) comes first in row-major order
    res = find_peak_subpixel(resp)
    assert (round(res.position[0]), round(res.position[1])) == (1, 1)


def test_border_peak_keeps_integer_coordinate():
    resp = np.zeros((3, 5))
    resp[0, 2] = 1.0
    resp[1, 2] = 0.4
    resp[0, 1] = 0.5
    resp[0, 3] = 0.2
    res = find_peak_subpixel(resp)
    assert res.position[1] == 0.0  # y at border: no refinement
    assert res.position[0] != 2.0  # x interior: refined


def test_single_entry_response():
    res = find_peak_subpixel(np.array([[0.7]]))
    assert res.position == (0.0, 0.0)
    assert res.score == pytest.approx(0.7)


def test_degenerate_parabola_keeps_integer():
    # flat triple: zero second difference
    resp = np.zeros((3, 3))
    resp[1, :] = 1.0
    res = find_peak_subpixel(resp)
    assert res.position[0] == float(int(res.position[0]))


def test_score_cap_skips_refinement_on_exact_match():
    img = _rng_image(12, shape=(30, 30))
    tpl = cut_template(img, 11, 6, 7, 7)
    res = match_template(img, tpl, CCOEFF_NORMED)
    assert res.position == (11.0, 6.0)  # exactly on lattice, no parabola shift
    assert res.score == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), cap=st.sampled_from([None, 1.0]))
def test_vectorized_picker_equals_scalar_picker_per_box(seed, cap):
    """pick_peaks gives, bit for bit, find_peak_subpixel of every box's cut."""
    rng = np.random.default_rng(seed)
    n, rows, cols = 9, int(rng.integers(1, 12)), int(rng.integers(1, 12))
    # a coarse value lattice makes ties and flat parabolas common
    response = rng.integers(0, 8, size=(n, rows, cols)) / 8.0
    response[rng.random(response.shape) < 0.05] = 1.0 - 1e-12  # within the cap's slack
    x = np.sort(rng.integers(0, cols, size=(n, 2)), axis=1)
    y = np.sort(rng.integers(0, rows, size=(n, 2)), axis=1)
    x[0], y[0] = (0, cols - 1), (0, rows - 1)  # one box is the whole response
    boxes = np.stack([x[:, 0], x[:, 1], y[:, 0], y[:, 1]], axis=1)
    positions, scores = pick_peaks(response, boxes, score_cap=cap)
    for r, (x0, x1, y0, y1) in enumerate(boxes):
        want = find_peak_subpixel(response[r, y0 : y1 + 1, x0 : x1 + 1], score_cap=cap)
        assert (positions[r, 0], positions[r, 1]) == want.position
        assert scores[r] == want.score


def test_cap_hit_reports_the_cap_and_keeps_the_lattice_point():
    resp = _resp_with_peak(0.6, 1.0 - 1e-12, 0.8)
    res = find_peak_subpixel(resp, score_cap=1.0)
    assert res.position == (1.0, 1.0) and res.score == 1.0
    positions, scores = pick_peaks(resp[None], np.array([[0, 2, 0, 2]]), score_cap=1.0)
    assert positions.tolist() == [[1.0, 1.0]] and scores.tolist() == [1.0]
    below = find_peak_subpixel(_resp_with_peak(0.6, 1.0 - 1e-6, 0.8), score_cap=1.0)
    assert below.position[0] != 1.0 and below.score == 1.0 - 1e-6


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    radius=st.integers(1, 15),
)
def test_placement_boxes_agree_with_placement_bounds(seed, radius):
    centers = np.random.default_rng(seed).uniform(-20.0, 70.0, size=(6, 2))
    boxes = placement_boxes((40, 48), (7, 9), centers, radius)
    want = [placement_bounds((40, 48), (7, 9), SearchRegion(tuple(c), radius)) for c in centers]
    assert boxes.tolist() == [list(b) for b in want]

    def clamped(c, top):
        """Scalar reference: round the span inwards, then clamp it to placements 0..top."""
        return [min(max(v, 0), top) for v in (math.ceil(c - radius), math.floor(c + radius))]

    assert want == [tuple(clamped(cx, 48 - 9) + clamped(cy, 40 - 7)) for cx, cy in centers.tolist()]
    assert placement_boxes((40, 48), (7, 9)).tolist() == [list(placement_bounds((40, 48), (7, 9)))]


# --- match_template ---------------------------------------------------------


def test_translated_copy_found_in_region():
    img = _rng_image(13, shape=(40, 40))
    tpl = cut_template(img, 20, 18, 9, 9)
    region = SearchRegion(center=(17.0, 21.0), radius=6)
    res = match_template(img, tpl, CCOEFF_NORMED, region=region, min_score=0.5)
    assert res.position == (20.0, 18.0)
    assert not res.widened


def test_target_outside_region_triggers_widening():
    img = _rng_image(14, shape=(40, 40))
    tpl = cut_template(img, 28, 5, 7, 7)
    region = SearchRegion(center=(5.0, 30.0), radius=4)
    res = match_template(img, tpl, CCOEFF_NORMED, region=region, min_score=0.5)
    assert res.widened
    assert res.position == (28.0, 5.0)


def test_pure_noise_widens_at_high_min_score():
    rng = np.random.default_rng(15)
    img = rng.normal(0.0, 1.0, size=(40, 40))
    tpl = Template(pixels=rng.normal(0.0, 1.0, size=(9, 9)))
    region = SearchRegion(center=(15.0, 15.0), radius=5)
    res = match_template(img, tpl, CCOEFF_NORMED, region=region, min_score=0.99)
    assert res.widened  # nothing correlates that well with independent noise


def test_placement_bounds_clamped():
    bounds = placement_bounds((30, 30), (7, 7), SearchRegion(center=(2.0, 28.0), radius=5))
    x0, x1, y0, y1 = bounds
    assert x0 == 0 and y1 == 23
    assert x1 == 7 and y0 == 23


# --- spec invariants as properties ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dx=st.integers(-8, 8), dy=st.integers(-8, 8))
def test_shift_equivariance(seed, dx, dy):
    """Rolling the image moves the argmax by exactly the roll vector."""
    img = _rng_image(seed, shape=(36, 36))
    tpl = cut_template(img, 14, 14, 7, 7)
    rolled = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
    resp = response_map(rolled, tpl, CCOEFF_NORMED)
    ay, ax = np.unravel_index(int(np.argmax(resp)), resp.shape)
    assert (ax, ay) == (14 + dx, 14 + dy)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    a=st.floats(0.25, 4.0),
    b=st.floats(-300.0, 300.0),
)
def test_affine_intensity_invariance(seed, a, b):
    img = _rng_image(seed, shape=(20, 24))
    tpl = cut_template(img, 3, 5, 6, 6)
    base = response_map(img, tpl, CCOEFF_NORMED)
    scaled = response_map(a * img + b, tpl, CCOEFF_NORMED)
    assert np.max(np.abs(base - scaled)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), cx=st.integers(8, 26), cy=st.integers(8, 26))
def test_region_consistency(seed, cx, cy):
    """When the global best lies inside the region, restriction changes nothing."""
    img = _rng_image(seed, shape=(36, 36))
    tpl = cut_template(img, 15, 12, 6, 6)
    full = match_template(img, tpl, CCOEFF_NORMED)
    if not (abs(15 - cx) <= 7 and abs(12 - cy) <= 7):
        return  # region misses the target; covered by the widening tests
    res = match_template(
        img, tpl, CCOEFF_NORMED, region=SearchRegion(center=(float(cx), float(cy)), radius=7)
    )
    assert res.position == full.position
    assert res.score == full.score
    assert not res.widened


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_scores_stay_in_range(seed):
    img = _rng_image(seed, shape=(25, 25))
    tpl = cut_template(img, 4, 9, 7, 7)
    for measure in MEASURES:
        resp = response_map(img, tpl, measure)
        assert np.all(resp <= 1.0 + 1e-9)
        assert np.all(resp >= -1.0 - 1e-9)


def _gaussian(shape, cx, cy, sigma=2.5, amp=900.0, bg=50.0):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]].astype(np.float64)
    return bg + amp * np.exp(-(((xx - cx) ** 2) + (yy - cy) ** 2) / (2 * sigma * sigma))


def test_subpixel_shift_recovered_within_quarter_pixel():
    base = _gaussian((41, 41), 20.0, 20.0)
    tpl = cut_template(base, 14, 14, 13, 13)
    rng = np.random.default_rng(99)
    for _ in range(20):
        fx, fy = rng.uniform(-0.5, 0.5, size=2)
        shifted = _gaussian((41, 41), 20.0 + fx, 20.0 + fy)
        res = match_template(shifted, tpl, CCOEFF_NORMED)
        assert abs(res.position[0] - (14 + fx)) <= 0.25
        assert abs(res.position[1] - (14 + fy)) <= 0.25
