"""Dense normalized-correlation template matching with subpixel refinement.

Two similarity measures are provided, both computed directly in the spatial
domain in float64:

``ccoeff_normed``
    zero-mean normalized cross-correlation: template and image patch both have
    their means removed before correlation, so the score is invariant to
    affine intensity changes of either side.

``ccorr_normed``
    plain normalized cross-correlation without mean removal.

Scores live in [-1, 1] (``ccorr_normed`` stays in [0, 1] for non-negative
images).  Patch statistics come from integral images, which are exact for
integer-valued inputs, and are shared by every template scored over the same
placement box.  The cross term is computed in one of three ways, following
J. P. Lewis, "Fast Normalized Cross-Correlation", Vision Interface 1995:
one template searched over the whole frame correlates in the frequency
domain (the template's spectrum is kept on the template); one template over
a smaller box (a crop, or a stack of crops) is a Toeplitz product, each row
of placements being the ``th`` image rows it covers times one banded
``(th * w, ow)`` matrix that holds every horizontal shift of the template;
R > 1 templates are one matrix product of an im2col copy of the windows with
the stacked ``(n, R)`` template matrix, taken in bands of placements.

``match_templates`` is the one search: S images by R templates, each in its
own region or over the whole frame, widening weak regional bests.
``match_template`` is ``match_templates`` of one image and one template, and
``placement_bounds`` row 0 of ``placement_boxes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateTemplateError

CCOEFF_NORMED = "ccoeff_normed"
CCORR_NORMED = "ccorr_normed"
MEASURES = (CCOEFF_NORMED, CCORR_NORMED)

# integer-valued patches have energy either exactly 0 or >= ~1, so this only
# has to absorb float rounding
_ENERGY_EPS = 1e-7
_VARIANCE_EPS = 1e-12
# a peak within this of the measure's upper bound is an exact lattice match:
# refinement is skipped (the fitted vertex would exceed the attainable score)
# and the bound itself is reported, whichever kernel rounded the peak
_CAP_SLACK = 1e-9
_SCORE_CAP = 1.0
# placements per band of the im2col copy when several templates share a box:
# bounds the copy at a few hundred kB for the template sizes in use
_BAND_PLACEMENTS = 512


@dataclass
class Template:
    """A float64 image patch with the sums that both measures score it by."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError(f"template must be a non-empty 2D array, got shape {self.pixels.shape}")
        self._zero_mean = self.pixels - float(self.pixels.mean())
        self._sum_zero_mean = float(self._zero_mean.sum())
        self._energy_zero_mean = float((self._zero_mean * self._zero_mean).sum())
        self._energy_raw = float((self.pixels * self.pixels).sum())
        # (frame shape, measure) -> conjugate spectrum of the kernel zero-padded
        # to the frame, for whole-frame searches
        self._spectra: dict = {}

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class SearchRegion:
    """Square neighbourhood of placements around ``center`` (x, y)."""

    center: tuple[float, float]
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"search radius must be >= 1, got {self.radius}")


@dataclass
class MatchResult:
    """Subpixel placement of the best match.

    ``position`` is the (x, y) of the template's top-left corner; ``widened``
    reports that a region search fell back to the full frame.
    """

    position: tuple[float, float]
    score: float
    widened: bool = False


def _as_image(image, stack: bool = False, dtype=np.float64) -> np.ndarray:
    """``image``'s pixels as ``dtype`` (``None`` keeps theirs): a 2D frame, or with ``stack`` also ``(S, H, W)``."""
    pixels = getattr(image, "pixels", image)
    arr = np.asarray(pixels, dtype=dtype)
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.size == 0:
        kind = "2D array or (S, H, W) stack" if stack else "2D array"
        raise ValueError(f"image must be a non-empty {kind}, got shape {arr.shape}")
    return arr


def template_degenerate(template: Template, measure: str) -> bool:
    """Whether ``template`` carries no usable structure for ``measure``.

    For ``ccoeff_normed`` that is a constant patch, for ``ccorr_normed`` an
    all-zero one.
    """
    if measure == CCOEFF_NORMED:
        return template._energy_zero_mean / template.pixels.size <= _VARIANCE_EPS
    return template._energy_raw <= _ENERGY_EPS


def cut_template(image, x: float, y: float, width: int, height: int) -> Template:
    """Cut a ``width`` x ``height`` patch with its top-left corner at (x, y).

    Fractional positions are sampled by bilinear interpolation; integer
    positions produce an exact pixel copy.
    """
    img = _as_image(image)
    ih, iw = img.shape
    if width < 1 or height < 1:
        raise ValueError(f"template size must be positive, got {width}x{height}")
    if not (0.0 <= x <= iw - width) or not (0.0 <= y <= ih - height):
        raise ValueError(
            f"template cut at ({x}, {y}) size {width}x{height} leaves the "
            f"{iw}x{ih} image"
        )
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0
    p00 = img[y0 : y0 + height, x0 : x0 + width]
    if fx == 0.0 and fy == 0.0:
        return Template(pixels=p00.copy())
    p01 = img[y0 : y0 + height, x0 + 1 : x0 + 1 + width] if fx > 0.0 else p00
    p10 = img[y0 + 1 : y0 + 1 + height, x0 : x0 + width] if fy > 0.0 else p00
    p11 = img[y0 + 1 : y0 + 1 + height, x0 + 1 : x0 + 1 + width] if (fx > 0.0 and fy > 0.0) else p01
    top = (1.0 - fx) * p00 + fx * p01
    bottom = (1.0 - fx) * p10 + fx * p11
    return Template(pixels=(1.0 - fy) * top + fy * bottom)


def placement_bounds(
    image_shape: tuple[int, int],
    template_shape: tuple[int, int],
    region: SearchRegion | None = None,
) -> tuple[int, int, int, int]:
    """Row 0 of ``placement_boxes`` for ``region``, or for the whole frame without one."""
    centers, radius = (None, None) if region is None else (np.array([region.center]), region.radius)
    return tuple(placement_boxes(image_shape, template_shape, centers, radius)[0].tolist())


def placement_boxes(
    image_shape: tuple[int, int],
    template_shape: tuple[int, int],
    centers: np.ndarray | None = None,
    radius: int | None = None,
) -> np.ndarray:
    """Inclusive placement bounds (x0, x1, y0, y1) of R regions, shape ``(R, 4)``.

    Row ``r`` bounds the placements within ``radius`` of ``centers[r]``
    (x, y), clamped to the valid domain; without centres or radius there is
    one whole-frame row.
    """
    (ih, iw), (th, tw) = image_shape, template_shape
    if th > ih or tw > iw:
        raise ValueError(f"template {tw}x{th} larger than image {iw}x{ih}")
    xmax, ymax = iw - tw, ih - th
    if centers is None or radius is None:
        return np.array([[0, xmax, 0, ymax]])
    corners = np.concatenate([np.ceil(centers - radius), np.floor(centers + radius)], axis=1)
    return np.minimum(np.maximum(corners, 0), (xmax, ymax) * 2).astype(np.intp)[:, [0, 2, 1, 3]]


def _window_sums(crop: np.ndarray, th: int, tw: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-placement patch sum and sum of squares via integral images, over any leading axes."""
    h, w = crop.shape[-2:]
    ii1 = np.zeros(crop.shape[:-2] + (h + 1, w + 1))
    ii2 = np.zeros(crop.shape[:-2] + (h + 1, w + 1))
    ii1[..., 1:, 1:] = crop.cumsum(axis=-2).cumsum(axis=-1)
    ii2[..., 1:, 1:] = (crop * crop).cumsum(axis=-2).cumsum(axis=-1)
    oh, ow = h - th + 1, w - tw + 1

    def window(ii):
        return ii[..., th:, tw:] - ii[..., :oh, tw:] - ii[..., th:, :ow] + ii[..., :oh, :ow]

    return window(ii1), window(ii2)


def response_map(image, template: Template, measure: str = CCOEFF_NORMED,
                 region: SearchRegion | None = None) -> np.ndarray:
    """Similarity score for every allowed placement of ``template``.

    Entry ``[j, i]`` scores the placement ``(x0 + i, y0 + j)`` where
    ``(x0, _, y0, _) = placement_bounds(...)``; without a region that is simply
    placement ``(i, j)``.
    """
    img = _as_image(image)
    bounds = placement_bounds(img.shape, template.pixels.shape, region)
    return match_scores(img, [template], measure, bounds)[0]


def match_scores(image, templates: list[Template], measure: str,
                 bounds: tuple[int, int, int, int]) -> np.ndarray:
    """Scores of R same-shape templates over one placement box, shape ``(R, oh, ow)``.

    Entry ``[r, j, i]`` scores ``templates[r]`` at placement ``(x0 + i, y0 + j)``
    for inclusive ``bounds`` ``(x0, x1, y0, y1)``.  The patch statistics are
    computed once for all R templates.  For one template ``image`` may also
    be a stack ``(S, H, W)``, scored over the same box in every image, giving
    ``(S, 1, oh, ow)``.  The cross term is an FFT correlation when one
    template covers the whole of a 2D frame, a Toeplitz product for one
    template over a smaller box, and banded im2col products for R > 1.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    img = _as_image(image, stack=len(templates) == 1)
    th, tw = templates[0].pixels.shape
    for tpl in templates:
        if tpl.pixels.shape != (th, tw):
            raise ValueError(f"templates differ in shape: {tpl.pixels.shape} vs {(th, tw)}")
        if template_degenerate(tpl, measure):
            raise DegenerateTemplateError(
                "constant template has zero variance and no ccoeff_normed response"
                if measure == CCOEFF_NORMED
                else "all-zero template has no ccorr_normed response"
            )
    x0, x1, y0, y1 = bounds
    crop = img[..., y0 : y1 + th, x0 : x1 + tw]
    s1, s2 = _window_sums(crop, th, tw)
    if measure == CCOEFF_NORMED:
        kernels = [tpl._zero_mean for tpl in templates]
        sums = [tpl._sum_zero_mean for tpl in templates]
        energies = [tpl._energy_zero_mean for tpl in templates]
    else:
        s1 = sums = None
        kernels = [tpl.pixels for tpl in templates]
        energies = [tpl._energy_raw for tpl in templates]

    oh, ow = s2.shape[-2:]
    if len(templates) == 1:
        if crop.shape == img.shape and img.ndim == 2:
            # the whole frame: valid placements never wrap, so the circular
            # correlation needs no padding beyond the frame
            spectrum = templates[0]._spectra.get((img.shape, measure))
            if spectrum is None:
                spectrum = np.conj(np.fft.rfft2(kernels[0], s=img.shape))
                templates[0]._spectra[(img.shape, measure)] = spectrum
            cross = np.fft.irfft2(np.fft.rfft2(img) * spectrum, s=img.shape)[:oh, :ow]
        else:
            # template row k slides along image row i + k: one banded matrix
            # holds every horizontal shift, and output row i is rows i..i+th-1 times it
            w = crop.shape[-1]
            band = np.zeros((th, w, ow))
            j = np.arange(ow)
            band[:, j[None, :] + np.arange(tw)[:, None], j] = kernels[0][:, :, None]
            rows = np.swapaxes(sliding_window_view(crop, th, axis=-2), -1, -2)
            cross = rows.reshape(crop.shape[:-2] + (oh, th * w)) @ band.reshape(th * w, ow)
        scores = _normalize(cross, s1, s2, None if sums is None else sums[0], energies[0], th * tw)
        return scores[..., None, :, :]

    # R > 1: an im2col copy of the windows times the stacked templates, in
    # bands of rows so the copy stays small
    windows = sliding_window_view(crop, (th, tw))
    stacked = np.stack([k.ravel() for k in kernels])  # (R, n)
    if sums is not None:
        sums = np.array(sums)[:, None]
    energies = np.array(energies)[:, None]
    scores = np.empty((len(templates), oh, ow))
    step = max(1, _BAND_PLACEMENTS // ow)
    for j0 in range(0, oh, step):
        j1 = min(j0 + step, oh)
        cols = windows[j0:j1].reshape((j1 - j0) * ow, th * tw)
        band = _normalize(
            stacked @ cols.T,
            None if s1 is None else s1[j0:j1].ravel(),
            s2[j0:j1].ravel(),
            sums,
            energies,
            th * tw,
        )
        scores[:, j0:j1] = band.reshape(len(templates), j1 - j0, ow)
    return scores


def _normalize(cross, s1, s2, sums, energies, n: int) -> np.ndarray:
    """Normalized scores from the cross term and the patch sums.

    ``s1`` is None for ``ccorr_normed``; template statistics broadcast
    against the patch statistics, so one formula serves one template over a
    box and R templates over a band of placements.
    """
    if s1 is None:
        num, patch_energy = cross, s2
    else:
        # exact zero-mean numerator: sum(T' I') = sum(T' I) - mean(I) sum(T')
        num = cross - s1 * (sums / n)
        patch_energy = np.maximum(s2 - s1 * s1 / n, 0.0)
    flat = patch_energy <= _ENERGY_EPS
    return np.where(flat, 0.0, num / np.sqrt(energies * np.where(flat, 1.0, patch_energy)))


def _cap_hits(peaks, score_cap: float):
    """Which peaks attain ``score_cap``: exact lattice matches, kept unrefined and scored at the cap."""
    return peaks >= score_cap - _CAP_SLACK


def _parabolic_offset(a: float, b: float, c: float) -> float:
    """Vertex of the parabola through (-1, a), (0, b), (1, c), clamped to [-0.5, 0.5]."""
    denom = 2.0 * (2.0 * b - a - c)
    if denom == 0.0:
        return 0.0
    return min(0.5, max(-0.5, (c - a) / denom))


def _parabolic_offsets(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_parabolic_offset`` elementwise."""
    denom = 2.0 * (2.0 * b - a - c)
    offset = np.divide(c - a, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return np.clip(offset, -0.5, 0.5)


def find_peak_subpixel(response: np.ndarray, score_cap: float | None = None) -> MatchResult:
    """Locate the response maximum and refine it to subpixel precision.

    The integer argmax (ties: smallest row-major index) is refined
    independently per axis by a parabolic fit through the peak and its two
    neighbours.  The integer coordinate is kept for an axis at the response
    border or when the parabola degenerates.  With ``score_cap`` given, a
    peak that attains the cap (an exact lattice match; the fitted vertex
    would exceed the attainable score) is not refined and scores the cap.
    """
    resp = np.asarray(response, dtype=np.float64)
    if resp.ndim != 2 or resp.size == 0:
        raise ValueError(f"response must be a non-empty 2D array, got shape {resp.shape}")
    rows, cols = resp.shape
    iy, ix = divmod(int(np.argmax(resp)), cols)
    peak = float(resp[iy, ix])
    x, y = float(ix), float(iy)
    if score_cap is not None and _cap_hits(peak, score_cap):
        return MatchResult(position=(x, y), score=float(score_cap))
    if 0 < ix < cols - 1:
        x += _parabolic_offset(float(resp[iy, ix - 1]), peak, float(resp[iy, ix + 1]))
    if 0 < iy < rows - 1:
        y += _parabolic_offset(float(resp[iy - 1, ix]), peak, float(resp[iy + 1, ix]))
    return MatchResult(position=(x, y), score=peak)


def pick_peaks(response: np.ndarray, boxes: np.ndarray, score_cap: float | None = None):
    """``find_peak_subpixel`` of ``response[r]`` cut to ``boxes[r]``, for all R at once.

    ``response`` is ``(R, rows, cols)`` and ``boxes`` ``(R, 4)`` inclusive
    (x0, x1, y0, y1) indices into it.  Returns positions ``(R, 2)``, relative
    to each box's corner (x0, y0), and scores ``(R,)``: bit for bit what
    ``find_peak_subpixel`` gives on each cut.
    """
    n, rows, cols = response.shape
    x0, x1, y0, y1 = boxes.T
    in_rows = (np.arange(rows) >= y0[:, None]) & (np.arange(rows) <= y1[:, None])
    in_cols = (np.arange(cols) >= x0[:, None]) & (np.arange(cols) <= x1[:, None])
    masked = np.where(in_rows[:, :, None] & in_cols[:, None, :], response, -np.inf)
    # row-major argmax over the union visits each box's placements in the
    # box's own row-major order, so ties resolve as in find_peak_subpixel
    iy, ix = np.divmod(masked.reshape(n, -1).argmax(axis=1), cols)
    r = np.arange(n)
    peaks = response[r, iy, ix]
    hits = np.zeros(n, dtype=bool) if score_cap is None else _cap_hits(peaks, score_cap)
    left, right = response[r, iy, np.maximum(ix - 1, 0)], response[r, iy, np.minimum(ix + 1, cols - 1)]
    up, down = response[r, np.maximum(iy - 1, 0), ix], response[r, np.minimum(iy + 1, rows - 1), ix]
    dx = np.where(~hits & (x0 < ix) & (ix < x1), _parabolic_offsets(left, peaks, right), 0.0)
    dy = np.where(~hits & (y0 < iy) & (iy < y1), _parabolic_offsets(up, peaks, down), 0.0)
    positions = np.stack([(ix - x0) + dx, (iy - y0) + dy], axis=1)
    return positions, peaks if score_cap is None else np.where(hits, score_cap, peaks)


def match_template(image, template: Template, measure: str = CCOEFF_NORMED,
                   region: SearchRegion | None = None, min_score: float = 0.5) -> MatchResult:
    """Best subpixel placement of ``template`` in ``image``: ``match_templates`` of one image and one template.

    With a region, the search is restricted to it; if the regional best scores
    below ``min_score`` the search widens once to the full frame and the
    full-frame best is returned with ``widened`` set, whatever its score.
    """
    centers, radius = (None, None) if region is None else (np.array([[region.center]]), region.radius)
    positions, scores, widened = match_templates([image], [template], measure, centers, radius, min_score)
    x, y = positions[0, 0].tolist()
    return MatchResult(position=(x, y), score=float(scores[0, 0]), widened=bool(widened[0, 0]))


def match_templates(images, templates: list[Template], measure: str = CCOEFF_NORMED,
                    centers: np.ndarray | None = None, radius: int | None = None,
                    min_score: float = 0.5):
    """Best subpixel placements of R same-shape templates in each of S same-shape images.

    Template ``r`` is searched in image ``s`` within ``radius`` of
    ``centers[s, r]`` (x, y); without centres or radius every template
    searches the whole frame.  One template's regions in S > 1 images are
    scored as one stack.  Otherwise each image is searched on its own: all R
    templates are scored in one pass over the union of the image's regions.
    Each peak is taken from its own region, so borders behave as if the
    region had been searched alone, and chains whose regional best scores
    below ``min_score`` widen to the full frame of their own image.  Returns
    positions ``(S, R, 2)``, scores ``(S, R)`` and widened flags ``(S, R)``.
    """
    # each search converts its own frame or crops: all S in float64 at once raise the peak
    imgs = [_as_image(image, dtype=None) for image in images]
    shapes = imgs[0].shape, templates[0].pixels.shape
    if centers is not None and np.shape(centers) != (len(imgs), len(templates), 2):
        raise ValueError(f"centres must have shape {(len(imgs), len(templates), 2)}, got {np.shape(centers)}")
    regional = centers is not None and radius is not None
    if regional:
        boxes = placement_boxes(*shapes, np.reshape(centers, (-1, 2)), radius).reshape(len(imgs), len(templates), 4)
    else:
        boxes = np.broadcast_to(placement_boxes(*shapes), (len(imgs), 1, 4))
    if regional and len(templates) == 1 and len(imgs) > 1:
        positions, scores = _best_in_stack(imgs, templates[0], boxes[:, 0], measure)
    else:
        # one image at a time: the banded products round with the box's
        # shape, and stacked unions or whole frames only raise peak memory.
        # One template in one image keeps the scalar peak picker, which
        # costs about a tenth of pick_peaks for a single box
        found = [_best_in_boxes(img, templates, img_boxes, measure) for img, img_boxes in zip(imgs, boxes)]
        positions, scores = map(np.stack, zip(*found))
    widened = scores < min_score if regional else np.zeros(scores.shape, dtype=bool)
    for s in widened.any(axis=1).nonzero()[0]:
        redo = widened[s].nonzero()[0]
        full = placement_boxes(*shapes)
        positions[s, redo], scores[s, redo] = _best_in_boxes(imgs[s], [templates[r] for r in redo], full, measure)
    return positions, scores, widened


def _best_in_boxes(img: np.ndarray, templates: list[Template], boxes: np.ndarray, measure: str):
    """Subpixel best placement of each template within its own box, from one union response.

    ``boxes`` is ``(R, 4)``, or ``(1, 4)`` for one box shared by all R.
    """
    ux0, _, uy0, _ = boxes.min(axis=0).tolist()
    _, ux1, _, uy1 = boxes.max(axis=0).tolist()
    response = match_scores(img, templates, measure, (ux0, ux1, uy0, uy1))
    if len(templates) == 1:
        peak = find_peak_subpixel(response[0], score_cap=_SCORE_CAP)
        return np.array([peak.position]) + (ux0, uy0), np.array([peak.score])
    boxes = np.broadcast_to(boxes, (len(templates), 4))
    positions, scores = pick_peaks(response, boxes - (ux0, ux0, uy0, uy0), score_cap=_SCORE_CAP)
    return positions + boxes[:, [0, 2]], scores


def _best_in_stack(imgs: list[np.ndarray], template: Template, boxes: np.ndarray, measure: str):
    """Best placement of one template in box ``s`` of image ``s``, for all S boxes ``(S, 4)`` at once.

    The boxes grow to the largest one inside the frame, and the S crops are
    scored as one stack.  Returns positions ``(S, 1, 2)`` and scores ``(S, 1)``.
    """
    (th, tw), (ih, iw) = template.pixels.shape, imgs[0].shape
    sx, sy = (boxes[:, [1, 3]] - boxes[:, [0, 2]]).max(axis=0).tolist()
    corners = np.minimum(boxes[:, [0, 2]], (iw - tw - sx, ih - th - sy))
    crops = np.stack([img[y : y + sy + th, x : x + sx + tw] for img, (x, y) in zip(imgs, corners.tolist())])
    response = match_scores(crops, [template], measure, (0, sx, 0, sy))[:, 0]
    positions, scores = pick_peaks(response, boxes - corners[:, [0, 0, 1, 1]], score_cap=_SCORE_CAP)
    return (positions + boxes[:, [0, 2]])[:, None], scores[:, None]
