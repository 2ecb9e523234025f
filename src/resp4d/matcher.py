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
a smaller box is an ``einsum`` over the strided window view; R > 1 templates
are one matrix product of an im2col copy of the windows with the stacked
``(n, R)`` template matrix, taken in bands of placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """A float64 image patch remembered together with where it was cut.

    ``anchor`` is the (x, y) position of the patch's top-left corner in the
    source frame and may be fractional for interpolated cuts.
    """

    pixels: np.ndarray
    anchor: tuple[float, float] = (0.0, 0.0)
    mean: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError(f"template must be a non-empty 2D array, got shape {self.pixels.shape}")
        self.anchor = (float(self.anchor[0]), float(self.anchor[1]))
        self.mean = float(self.pixels.mean())
        self._zero_mean = self.pixels - self.mean
        self._sum_zero_mean = float(self._zero_mean.sum())
        self._energy_zero_mean = float((self._zero_mean * self._zero_mean).sum())
        self._energy_raw = float((self.pixels * self.pixels).sum())
        self.variance = self._energy_zero_mean / self.pixels.size
        # (frame shape, measure) -> conjugate spectrum of the kernel zero-padded
        # to the frame, for whole-frame searches
        self._spectra: dict = {}

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def degenerate(self) -> bool:
        """True when the patch is constant (no structure for ``ccoeff_normed``)."""
        return self.variance <= _VARIANCE_EPS


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


def _as_image(image) -> np.ndarray:
    pixels = getattr(image, "pixels", image)
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"image must be a non-empty 2D array, got shape {arr.shape}")
    return arr


def template_degenerate(template: Template, measure: str) -> bool:
    """Whether ``template`` carries no usable structure for ``measure``."""
    if measure == CCOEFF_NORMED:
        return template.degenerate
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
        return Template(pixels=p00.copy(), anchor=(x, y))
    p01 = img[y0 : y0 + height, x0 + 1 : x0 + 1 + width] if fx > 0.0 else p00
    p10 = img[y0 + 1 : y0 + 1 + height, x0 : x0 + width] if fy > 0.0 else p00
    p11 = img[y0 + 1 : y0 + 1 + height, x0 + 1 : x0 + 1 + width] if (fx > 0.0 and fy > 0.0) else p01
    top = (1.0 - fx) * p00 + fx * p01
    bottom = (1.0 - fx) * p10 + fx * p11
    return Template(pixels=(1.0 - fy) * top + fy * bottom, anchor=(x, y))


def placement_bounds(
    image_shape: tuple[int, int],
    template_shape: tuple[int, int],
    region: SearchRegion | None = None,
) -> tuple[int, int, int, int]:
    """Inclusive placement bounds (x0, x1, y0, y1), clamped to the valid domain."""
    ih, iw = image_shape
    th, tw = template_shape
    if th > ih or tw > iw:
        raise ValueError(f"template {tw}x{th} larger than image {iw}x{ih}")
    xmax, ymax = iw - tw, ih - th
    if region is None:
        return 0, xmax, 0, ymax
    cx, cy = region.center
    r = region.radius
    x0 = min(max(math.ceil(cx - r), 0), xmax)
    x1 = min(max(math.floor(cx + r), 0), xmax)
    y0 = min(max(math.ceil(cy - r), 0), ymax)
    y1 = min(max(math.floor(cy + r), 0), ymax)
    return x0, x1, y0, y1


def placement_boxes(
    image_shape: tuple[int, int],
    template_shape: tuple[int, int],
    centers: np.ndarray | None = None,
    radius: int | None = None,
) -> np.ndarray:
    """``placement_bounds`` for R regions at once, shape ``(R, 4)``.

    Row ``r`` bounds the placements within ``radius`` of ``centers[r]``
    (x, y); without centres or radius there is one whole-frame row.
    """
    full = placement_bounds(image_shape, template_shape)
    if centers is None or radius is None:
        return np.array([full])
    corners = np.concatenate([np.ceil(centers - radius), np.floor(centers + radius)], axis=1)
    top = (full[1], full[3]) * 2
    return np.minimum(np.maximum(corners, 0), top).astype(np.intp)[:, [0, 2, 1, 3]]


def _window_sums(crop: np.ndarray, th: int, tw: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-placement patch sum and sum of squares via integral images."""
    h, w = crop.shape
    ii1 = np.zeros((h + 1, w + 1))
    ii2 = np.zeros((h + 1, w + 1))
    ii1[1:, 1:] = crop.cumsum(axis=0).cumsum(axis=1)
    ii2[1:, 1:] = (crop * crop).cumsum(axis=0).cumsum(axis=1)
    oh, ow = h - th + 1, w - tw + 1

    def window(ii):
        return ii[th:, tw:] - ii[:oh, tw:] - ii[th:, :ow] + ii[:oh, :ow]

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
    computed once for all R templates.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    img = _as_image(image)
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
    crop = img[y0 : y1 + th, x0 : x1 + tw]
    s1, s2 = _window_sums(crop, th, tw)
    if measure == CCOEFF_NORMED:
        kernels = [tpl._zero_mean for tpl in templates]
        sums = [tpl._sum_zero_mean for tpl in templates]
        energies = [tpl._energy_zero_mean for tpl in templates]
    else:
        s1 = sums = None
        kernels = [tpl.pixels for tpl in templates]
        energies = [tpl._energy_raw for tpl in templates]

    oh, ow = s2.shape
    if len(templates) == 1:
        if crop.shape == img.shape:
            # the whole frame: valid placements never wrap, so the circular
            # correlation needs no padding beyond the frame
            spectrum = templates[0]._spectra.get((img.shape, measure))
            if spectrum is None:
                spectrum = np.conj(np.fft.rfft2(kernels[0], s=img.shape))
                templates[0]._spectra[(img.shape, measure)] = spectrum
            cross = np.fft.irfft2(np.fft.rfft2(img) * spectrum, s=img.shape)[:oh, :ow]
        else:
            cross = np.einsum("ijkl,kl->ij", sliding_window_view(crop, (th, tw)), kernels[0])
        return _normalize(cross, s1, s2, None if sums is None else sums[0], energies[0], th * tw)[None]

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
    """Best subpixel placement of ``template`` in ``image``.

    With a region, the search is restricted to it; if the regional best scores
    below ``min_score`` the search widens once to the full frame and the
    full-frame best is returned with ``widened`` set, whatever its score.
    """
    img = _as_image(image)
    box = np.array([placement_bounds(img.shape, template.pixels.shape, region)])
    positions, scores, widened = _search(img, [template], measure, box, region is not None, min_score)
    x, y = positions[0].tolist()
    return MatchResult(position=(x, y), score=float(scores[0]), widened=bool(widened[0]))


def match_templates(image, templates: list[Template], measure: str = CCOEFF_NORMED,
                    centers: np.ndarray | None = None, radius: int | None = None,
                    min_score: float = 0.5):
    """``match_template`` for R same-shape templates, each in its own region.

    Template ``r`` is searched within ``radius`` of ``centers[r]`` (x, y);
    without centres or radius every template searches the whole frame.  All
    R templates are scored in one pass over the union of the regions; each
    peak is then taken from its own region, so borders behave as if the
    region had been searched alone.  Templates whose regional best scores
    below ``min_score`` widen together to one full-frame pass.  Returns
    positions ``(R, 2)``, scores ``(R,)`` and widened flags ``(R,)``.
    """
    img = _as_image(image)
    if centers is not None and len(centers) != len(templates):
        raise ValueError(f"{len(centers)} centres for {len(templates)} templates")
    boxes = placement_boxes(img.shape, templates[0].pixels.shape, centers, radius)
    return _search(img, templates, measure, boxes, centers is not None and radius is not None, min_score)


def _search(img: np.ndarray, templates: list[Template], measure: str, boxes: np.ndarray,
            regional: bool, min_score: float):
    """Best placement of each template in its box, widening regional misses to the full frame."""
    positions, scores = _best_in_boxes(img, templates, boxes, measure)
    widened = scores < min_score if regional else np.zeros(len(templates), dtype=bool)
    redo = widened.nonzero()[0]
    if len(redo):
        full = np.array([placement_bounds(img.shape, templates[0].pixels.shape)])
        positions[redo], scores[redo] = _best_in_boxes(img, [templates[r] for r in redo], full, measure)
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
