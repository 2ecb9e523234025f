import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resp4d import matcher
from resp4d.errors import DegenerateTemplateError
from resp4d.matcher import (
    CCOEFF_NORMED,
    CCORR_NORMED,
    MEASURES,
    MatchResult,
    SearchFrame,
    SearchRegion,
    Template,
    cut_template,
    find_peak_subpixel,
    match_scores,
    match_template,
    match_templates,
    placement_bounds,
    placement_boxes,
    response_map,
    template_bank,
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
        assert np.all(got[: 12 - tpl.pixels.shape[0] + 1] == 0.0)  # flat patches score exactly 0


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
    bounds = placement_bounds(img.shape, (6, 8), SearchRegion(center=(20.0, 15.0), radius=5))
    assert bounds == (15, 25, 10, 20)
    region = match_scores(img, [tpl], measure, bounds)[0]
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
        positions, scores, widened = match_templates([img, img], template_bank([tpl], measure), centers=centres, radius=6)
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
@pytest.mark.parametrize("shape", [(48, 48), (45, 62)])
def test_search_frame_equals_the_plain_array_search(monkeypatch, measure, shape, spectral_calls):
    """Whole-frame searches of one SearchFrame give, bit for bit, the peaks of the plain array's response maps.

    The frame's spectrum and column sums are built once for every template
    searched in it, whatever the template's size.
    """
    img = _rng_image(41, shape=shape)
    img[:14, :20] = 300.0  # zero-energy patches in the top-left corner
    # 13x13 and 17x17 cuts: integer corners are cap hits, fractional ones are
    # refined, and the first two overlap the flat block
    cuts = [(10, 5, 13), (4.5, 6.25, 17), (20.75, 25.5, 13), (30, 20, 17)]
    templates = [cut_template(img, x, y, size, size) for x, y, size in cuts]
    want = [find_peak_subpixel(response_map(img, tpl, measure)) for tpl in templates]
    built, column_sums = [], matcher._column_sums

    def counted(values):
        built.append(values.shape)
        return column_sums(values)

    monkeypatch.setattr(matcher, "_column_sums", counted)
    spectral_calls.clear()
    frame = SearchFrame(img)
    for tpl, expected in zip(templates, want):
        got = match_template(frame, tpl, measure)
        assert (got.position, got.score, got.widened) == (expected.position, expected.score, False)
    assert [res.score for res in want].count(1.0) == 2
    assert len(built) == (2 if measure == CCOEFF_NORMED else 1)
    assert [call[-2:] for call in spectral_calls].count(shape) == 1  # the frame's own rfft2; the rest are kernels
    for tpl, expected in zip(templates, want):  # a plain array is wrapped for its one search
        got = match_template(img, tpl, measure)
        assert (got.position, got.score) == (expected.position, expected.score)
        region = SearchRegion(center=(expected.position[0] + 2.0, expected.position[1] - 1.0), radius=4)
        assert match_template(frame, tpl, measure, region) == match_template(img, tpl, measure, region)


def _integral_window_sums(crop, shape):
    """The window sums of two full integral-image passes, the form the separable sums replace."""
    (h, w), (th, tw) = crop.shape[-2:], shape
    oh, ow = h - th + 1, w - tw + 1
    ii = np.zeros(crop.shape[:-2] + (h + 1, w + 1))
    ii[..., 1:, 1:] = crop.cumsum(axis=-2).cumsum(axis=-1)
    return ii[..., th:, tw:] - ii[..., :oh, tw:] - ii[..., th:, :ow] + ii[..., :oh, :ow]


@pytest.mark.parametrize("crop_shape", [(37, 45), (3, 30, 41), (140, 176)])
def test_separable_window_sums_equal_the_integral_images(crop_shape):
    """On uint16 values every partial sum is an exact integer, so the running sums agree bit for bit in any order."""
    rng = np.random.default_rng(list(crop_shape))
    crop = rng.integers(0, 2**16, size=crop_shape).astype(np.float64)
    crop[..., :5, :] = 65535.0  # the largest squares
    frame = SearchFrame(crop)
    stack = crop if crop.ndim == 3 else crop[None]
    for shape in ((13, 13), (17, 17), (6, 8), (1, 1), crop_shape[-2:]):
        s1, s2 = frame.window_sums(shape, CCOEFF_NORMED)
        assert np.array_equal(s1, _integral_window_sums(stack, shape))
        assert np.array_equal(s2, _integral_window_sums(stack * stack, shape))
        assert frame.window_sums(shape, CCORR_NORMED)[0] is None


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
    bank = template_bank(tpls, CCOEFF_NORMED)
    match_templates(imgs, bank, centers=centres, radius=4)
    # (R, S, 2) instead of (S, R, 2) would reshape silently onto the wrong chains
    for bad in (centres.transpose(1, 0, 2), centres[:, :2], centres.reshape(-1, 2)):
        with pytest.raises(ValueError, match=r"centres must have shape \(2, 3, 2\)"):
            match_templates(imgs, bank, centers=bad, radius=4)


@pytest.mark.parametrize("radius", [0, -3])
def test_match_templates_refuses_a_radius_below_one(monkeypatch, radius):
    imgs = [_rng_image(27), _rng_image(28)]
    tpls = [cut_template(imgs[0], x, 5, 8, 6) for x in (3, 20, 30)]
    centres = np.full((2, 3, 2), 12.5)  # fractional: at radius 0 the box from ceil(12.5) to floor(12.5) is empty

    def no_search(*args):
        raise AssertionError("a search started")

    monkeypatch.setattr(matcher, "_best_in_stack", no_search)
    monkeypatch.setattr(matcher, "_best_in_frame", no_search)
    for bank in (template_bank(tpls, CCOEFF_NORMED), template_bank(tpls[:1], CCOEFF_NORMED)):
        with pytest.raises(ValueError, match=f"search radius must be >= 1, got {radius}"):
            match_templates(imgs, bank, centers=centres[:, : len(bank.templates)], radius=radius)


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
    assert tpl.pixels.shape == (6, 7)


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
    # cross-check the closed form against an independent quadratic fit; the
    # peak stays below the score cap, which would keep the lattice point
    a, b, c = 0.5, 0.9, 0.7
    coeffs = np.polyfit([-1.0, 0.0, 1.0], [a, b, c], 2)
    vertex = -coeffs[1] / (2.0 * coeffs[0])
    assert vertex == pytest.approx(1.0 / 6.0, abs=1e-12)
    res = find_peak_subpixel(_resp_with_peak(a, b, c))
    assert res.position[0] == pytest.approx(1.0 + vertex, abs=1e-12)
    assert res.score == pytest.approx(0.9)


def test_tie_breaks_to_smallest_row_major_index():
    resp = np.zeros((4, 4))
    resp[2, 3] = resp[1, 1] = 0.9  # (1, 1) comes first in row-major order
    res = find_peak_subpixel(resp)
    assert (round(res.position[0]), round(res.position[1])) == (1, 1)


def test_border_peak_keeps_integer_coordinate():
    resp = np.zeros((3, 5))
    resp[0, 2] = 0.9  # below the score cap, so the peak is refined
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


def _refine_first_maxima(response, boxes):
    """``matcher._refine`` of the first row-major maximum of each box ``boxes[r]`` of ``response[r]``.

    The four neighbours are clamped to the grid, as ``_bounded_peaks`` reads
    them; ``_refine`` uses only those strictly inside the box.
    """
    rows, cols = response.shape[1:]
    found = []
    for r, (x0, x1, y0, y1) in enumerate(boxes.tolist()):
        j, i = divmod(int(response[r, y0 : y1 + 1, x0 : x1 + 1].argmax()), x1 - x0 + 1)
        iy, ix = y0 + j, x0 + i
        found.append((ix, iy, response[r, iy, ix],
                      response[r, iy, max(ix - 1, 0)], response[r, iy, min(ix + 1, cols - 1)],
                      response[r, max(iy - 1, 0), ix], response[r, min(iy + 1, rows - 1), ix]))
    return matcher._refine(boxes, *map(np.array, zip(*found)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_vectorized_picker_equals_scalar_picker_per_box(seed):
    """``_refine`` of each box's first maximum gives, bit for bit, find_peak_subpixel of every box's cut."""
    rng = np.random.default_rng(seed)
    n, rows, cols = 9, int(rng.integers(1, 12)), int(rng.integers(1, 12))
    # a coarse value lattice makes ties and flat parabolas common
    response = rng.integers(0, 8, size=(n, rows, cols)) / 8.0
    response[rng.random(response.shape) < 0.05] = 1.0 - 1e-12  # within the cap's slack
    x = np.sort(rng.integers(0, cols, size=(n, 2)), axis=1)
    y = np.sort(rng.integers(0, rows, size=(n, 2)), axis=1)
    x[0], y[0] = (0, cols - 1), (0, rows - 1)  # one box is the whole response
    boxes = np.stack([x[:, 0], x[:, 1], y[:, 0], y[:, 1]], axis=1)
    positions, scores = _refine_first_maxima(response, boxes)
    for r, (x0, x1, y0, y1) in enumerate(boxes):
        want = find_peak_subpixel(response[r, y0 : y1 + 1, x0 : x1 + 1])
        assert (positions[r, 0], positions[r, 1]) == want.position
        assert scores[r] == want.score


def test_cap_hit_reports_the_cap_and_keeps_the_lattice_point():
    resp = _resp_with_peak(0.6, 1.0 - 1e-12, 0.8)
    res = find_peak_subpixel(resp)
    assert res.position == (1.0, 1.0) and res.score == 1.0
    positions, scores = _refine_first_maxima(resp[None], np.array([[0, 2, 0, 2]]))
    assert positions.tolist() == [[1.0, 1.0]] and scores.tolist() == [1.0]
    below = find_peak_subpixel(_resp_with_peak(0.6, 1.0 - 1e-6, 0.8))
    assert below.position[0] != 1.0 and below.score == 1.0 - 1e-6


# --- bounded multi-template search -------------------------------------------


def _full_search_oracle(img, templates, measure, boxes, min_score, regional):
    """Every template scored over the union of its image's boxes, then find_peak_subpixel per box; weak ones redone over the frame.

    Returns each box's integer peak (first row-major maximum, relative to
    the box), positions, scores and widened flags.
    """
    union = (boxes[:, 0].min(), boxes[:, 1].max(), boxes[:, 2].min(), boxes[:, 3].max())
    inner = boxes - np.array(union)[[0, 0, 2, 2]]
    response = match_scores(img, templates, measure, union)
    peaks = [
        divmod(int(response[r, y0 : y1 + 1, x0 : x1 + 1].argmax()), x1 - x0 + 1)[::-1]
        for r, (x0, x1, y0, y1) in enumerate(inner)
    ]
    found = [find_peak_subpixel(response[r, y0 : y1 + 1, x0 : x1 + 1]) for r, (x0, x1, y0, y1) in enumerate(inner)]
    positions = np.array([peak.position for peak in found]) + boxes[:, [0, 2]]
    scores = np.array([peak.score for peak in found])
    widened = scores < min_score if regional else np.zeros(len(templates), dtype=bool)
    redo = widened.nonzero()[0]
    if redo.size:
        full = placement_bounds(img.shape, templates[0].pixels.shape)
        for r, response in zip(redo, match_scores(img, [templates[r] for r in redo], measure, full)):
            peak = find_peak_subpixel(response)
            positions[r], scores[r] = peak.position, peak.score
    return np.array(peaks), positions, scores, widened


def _bounded_case(rng, kind, measure):
    """A random uint16 frame and R templates of one shape, with search centres and a radius."""
    ih, iw = (int(v) for v in rng.integers(24, 56, size=2))
    th, tw = (int(v) for v in rng.integers(4, 12, size=2))
    img = rng.integers(0, 2**16, size=(ih, iw)).astype(np.uint16)
    if kind == "flat":
        img[: ih // 3] = 0  # flat for both measures: every placement there scores 0
    if kind == "ties":
        iw = max(iw, 3 * tw)
        img = rng.integers(0, 2**16, size=(ih, iw)).astype(np.uint16)
    x, y = rng.uniform(0, iw - tw), rng.uniform(ih // 3, ih - th)
    if kind in ("cap", "ties"):
        x, y = float(int(x)), float(int(y))  # an exact lattice match scores the cap
    base = cut_template(img, x, y, tw, th).pixels
    if kind == "ties":
        # the patch again beside itself: the exact template scores the cap at both
        x2 = int(x) + tw if x + 2 * tw <= iw else int(x) - tw
        img[int(y) : int(y) + th, x2 : x2 + tw] = base
    count = int(rng.integers(2, 9))
    if kind == "spread":
        cuts = [(rng.uniform(0, iw - tw), rng.uniform(0, ih - th)) for _ in range(count)]
        templates = [cut_template(img, cx, cy, tw, th) for cx, cy in cuts]
    else:
        noise = rng.normal(scale=0.01 * base.std(), size=(count,) + base.shape)
        templates = [Template(base + n) for n in noise]
        if kind in ("cap", "ties"):
            templates[0] = Template(base)
        if kind == "ties":
            templates[2:] = [templates[int(rng.integers(0, 2))] for _ in range(count - 2)]
    centers = np.array([x, y]) + rng.uniform(-12.0, 12.0, size=(count, 2))
    if kind == "ties":
        centers[0] = ((x + x2) / 2, y)  # a box of radius 8 holds both copies
    if kind == "flat":
        centers[::2, 1] = rng.uniform(-4.0, ih / 3 - th, size=centers[::2, 1].shape)
    if rng.random() < 0.3:
        centers[0] = (rng.choice([-3.0, iw]), rng.choice([-3.0, ih]))  # a box clipped at a frame corner
    radius = None if rng.random() < 0.2 else 8 if kind == "ties" else int(rng.integers(1, 9))
    return img, templates, centers, radius


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("kind", ["near", "spread", "ties", "cap", "flat"])
def test_bounded_search_equals_the_full_search(monkeypatch, kind, measure):
    """R > 1 templates give the peaks, positions, scores and widened flags of a full search."""
    refined, searches = [], []
    refine, bounded, scores_at = matcher._refine, matcher._bounded_peaks, matcher._scores_at

    def recording_refine(boxes, ix, iy, *args):
        refined.append(np.stack([ix - boxes[:, 0], iy - boxes[:, 2]], axis=1))
        return refine(boxes, ix, iy, *args)

    def recording_bounded(frame, crop, s1, s2, bank, boxes):
        # placements in the union, placements scored exactly, basis size
        searches.append([s2.size, 0, len(bank.basis)])
        return bounded(frame, crop, s1, s2, bank, boxes)

    def counted_scores_at(windows, s1, s2, bank, flat):
        searches[-1][1] += flat.size
        return scores_at(windows, s1, s2, bank, flat)

    def no_full_product(*args):
        raise AssertionError("a search scored every template at every placement")

    monkeypatch.setattr(matcher, "_refine", recording_refine)
    monkeypatch.setattr(matcher, "_bounded_peaks", recording_bounded)
    monkeypatch.setattr(matcher, "_scores_at", counted_scores_at)
    rng = np.random.default_rng([17, MEASURES.index(measure)])
    pruned = 0
    for _ in range(30):
        img, templates, centers, radius = _bounded_case(rng, kind, measure)
        min_score = float(rng.uniform(0.2, 0.6))
        refined.clear()
        searches.clear()
        with monkeypatch.context() as patched:
            patched.setattr(matcher, "_every_score", no_full_product)
            positions, scores, widened = match_templates(
                [img], template_bank(templates, measure), centers[None], radius, min_score
            )
        placements, scored, k = searches[0]
        pruned += scored < placements
        # templates that differ by noise take one basis vector; unrelated cuts need up to one each
        assert k == 1 if kind != "spread" else 1 <= k <= len(templates)
        boxes = placement_boxes(img.shape, templates[0].pixels.shape, centers, radius)
        peaks, want_positions, want_scores, want_widened = _full_search_oracle(
            img, templates, measure, np.broadcast_to(boxes, (len(templates), 4)), min_score, radius is not None
        )
        assert np.array_equal(refined[0], peaks)
        assert np.array_equal(widened[0], want_widened)
        np.testing.assert_allclose(positions[0], want_positions, rtol=0, atol=1e-9)
        np.testing.assert_allclose(scores[0], want_scores, rtol=0, atol=1e-9)
    # every kind scores fewer placements exactly than its union holds in most
    # cases, except where small boxes, flat patches or weak bests leave many
    # candidates; unrelated cuts prune only because they score one basis map
    # per template
    assert pruned >= 5


def _sequences(rng, img, centers):
    """S same-shape images holding ``img``, with priors that differ per image.

    ``img`` sits in the corner of a noise frame twice its size, so that
    several images' unions of boxes fit in one stack.  The later images are
    rolls of the first, and their priors move with the roll plus a jitter of
    each image's own scale, so the images' unions differ in size.  One chain
    of a later image is put off the frame, so its box is clamped at the
    frame's edge.
    """
    ih, iw = img.shape
    frame = rng.integers(0, 2**16, size=(2 * ih, 2 * iw)).astype(np.uint16)
    frame[:ih, :iw] = img
    count = int(rng.integers(2, 5))
    imgs, priors = [frame], [centers]
    for _ in range(count - 1):
        dy, dx = (int(v) for v in rng.integers(-3, 4, size=2))
        imgs.append(np.roll(frame, (dy, dx), axis=(0, 1)))
        priors.append(centers + (dx, dy) + rng.uniform(-1.0, 1.0, size=centers.shape) * rng.uniform(0.0, 6.0))
    priors = np.stack(priors)
    edge = (rng.choice([-5.0, 2 * iw + 5.0]), rng.uniform(0, 2 * ih))
    priors[int(rng.integers(1, count)), int(rng.integers(0, len(centers)))] = edge
    return imgs, priors


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("kind", ["near", "spread", "ties", "cap", "flat"])
def test_stacked_bounded_search_equals_the_per_image_full_search(monkeypatch, kind, measure):
    """S > 1 images searched as one stack give every image's own full-search peaks, positions, scores and widened flags."""
    refined, stacks = [], []
    refine, bounded = matcher._refine, matcher._bounded_peaks

    def recording_refine(boxes, ix, iy, *args):
        refined.append(np.stack([ix - boxes[:, 0], iy - boxes[:, 2]], axis=1))
        return refine(boxes, ix, iy, *args)

    def recording_bounded(frame, crop, s1, s2, bank, boxes):
        stacks.append(len(s2))
        return bounded(frame, crop, s1, s2, bank, boxes)

    def no_full_product(*args):
        raise AssertionError("a search scored every template at every placement")

    monkeypatch.setattr(matcher, "_refine", recording_refine)
    monkeypatch.setattr(matcher, "_bounded_peaks", recording_bounded)
    rng = np.random.default_rng([29, MEASURES.index(measure)])
    stacked = 0
    for _ in range(12):
        img, templates, centers, radius = _bounded_case(rng, kind, measure)
        imgs, priors = _sequences(rng, img, centers)
        min_score = float(rng.uniform(0.2, 0.6))
        refined.clear()
        stacks.clear()
        with monkeypatch.context() as patched:
            patched.setattr(matcher, "_every_score", no_full_product)
            positions, scores, widened = match_templates(imgs, template_bank(templates, measure), priors, radius, min_score)
        # the searches before any widened redo cover the S images, one stack
        # for all regions (split only where the stack would outgrow a frame),
        # one search per image for whole frames
        first = np.cumsum(stacks).tolist().index(len(imgs)) + 1
        assert radius is not None or stacks[:first] == [1] * len(imgs)
        stacked += stacks[0] > 1
        shape = templates[0].pixels.shape
        for s, (image, got) in enumerate(zip(imgs, np.split(np.concatenate(refined[:first]), len(imgs)))):
            boxes = placement_boxes(image.shape, shape, priors[s], radius)
            peaks, want_positions, want_scores, want_widened = _full_search_oracle(
                image, templates, measure, np.broadcast_to(boxes, (len(templates), 4)), min_score, radius is not None
            )
            assert np.array_equal(got, peaks)
            assert np.array_equal(widened[s], want_widened)
            np.testing.assert_allclose(positions[s], want_positions, rtol=0, atol=1e-9)
            np.testing.assert_allclose(scores[s], want_scores, rtol=0, atol=1e-9)
    # most regional cases stack several images in their first search; the
    # others are whole frames or stacks split to stay within a frame
    assert stacked >= 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    measure=st.sampled_from(MEASURES),
    count=st.integers(2, 8),
    near=st.booleans(),
)
def test_every_score_lies_within_its_residual_of_the_basis(seed, measure, count, near):
    """|score_r - sum_j C[r, j] b_j| <= e_r at every placement of a uint16 frame, flat patches included."""
    rng = np.random.default_rng(seed)
    ih, iw = (int(v) for v in rng.integers(16, 40, size=2))
    th, tw = (int(v) for v in rng.integers(2, 10, size=2))
    img = rng.integers(0, 2**16, size=(ih, iw)).astype(np.uint16)
    img[: ih // 3] = 0  # flat for both measures
    img[:, : iw // 4] = 7  # flat for ccoeff_normed only
    if near:
        base = rng.integers(0, 2**16, size=(th, tw)).astype(np.float64)
        pixels = base + rng.normal(scale=0.01 * base.std(), size=(count, th, tw))
    else:
        pixels = rng.integers(0, 2**16, size=(count, th, tw)).astype(np.float64)
    templates = [Template(p) for p in pixels]
    bank = template_bank(templates, measure)
    k = len(bank.basis)
    assert 1 <= k <= count
    assert k == 1 or not near  # templates that differ by noise share one basis vector
    bounds = placement_bounds(img.shape, (th, tw))
    approx = np.tensordot(bank.coeffs, match_scores(img, bank.basis, measure, bounds), 1)
    error = np.abs(match_scores(img, templates, measure, bounds) - approx)
    assert np.all(error <= bank.residuals[:, None, None] + 1e-9)
    assert np.all(bank.residuals <= matcher._RESIDUAL_MAX + 1e-9)


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
