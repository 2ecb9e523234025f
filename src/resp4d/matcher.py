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
placement box.  The cross term of a single template is an ``einsum`` over the
strided window view; for R > 1 templates it is one matrix product of an
im2col copy of the windows with the stacked ``(n, R)`` template matrix, taken
in bands of placements (the shared-numerator, integral-image-denominator form
of J. P. Lewis, "Fast Normalized Cross-Correlation", Vision Interface 1995).
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
# refinement is skipped when the integer peak already attains the measure's
# upper bound: the fitted vertex would exceed the attainable score, which only
# happens for exact lattice matches
_CAP_SLACK = 1e-9
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
    windows = sliding_window_view(crop, (th, tw))
    s1, s2 = _window_sums(crop, th, tw)
    if measure == CCOEFF_NORMED:
        kernels = [tpl._zero_mean for tpl in templates]
        sums = [tpl._sum_zero_mean for tpl in templates]
        energies = [tpl._energy_zero_mean for tpl in templates]
    else:
        s1 = sums = None
        kernels = [tpl.pixels for tpl in templates]
        energies = [tpl._energy_raw for tpl in templates]

    if len(templates) == 1:
        cross = np.einsum("ijkl,kl->ij", windows, kernels[0])
        return _normalize(cross, s1, s2, None if sums is None else sums[0], energies[0], th * tw)[None]

    # R > 1: an im2col copy of the windows times the stacked templates, in
    # bands of rows so the copy stays small
    oh, ow = s2.shape
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


def _parabolic_offset(a: float, b: float, c: float) -> float:
    """Vertex of the parabola through (-1, a), (0, b), (1, c), clamped to [-0.5, 0.5]."""
    denom = 2.0 * (2.0 * b - a - c)
    if denom == 0.0:
        return 0.0
    return min(0.5, max(-0.5, (c - a) / denom))


def find_peak_subpixel(response: np.ndarray, score_cap: float | None = None) -> MatchResult:
    """Locate the response maximum and refine it to subpixel precision.

    The integer argmax (ties: smallest row-major index) is refined
    independently per axis by a parabolic fit through the peak and its two
    neighbours.  The integer coordinate is kept for an axis at the response
    border or when the parabola degenerates.  With ``score_cap`` given,
    refinement is skipped entirely once the peak attains the cap (an exact
    lattice match; the fitted vertex would exceed the attainable score).
    """
    resp = np.asarray(response, dtype=np.float64)
    if resp.ndim != 2 or resp.size == 0:
        raise ValueError(f"response must be a non-empty 2D array, got shape {resp.shape}")
    rows, cols = resp.shape
    iy, ix = divmod(int(np.argmax(resp)), cols)
    peak = float(resp[iy, ix])
    x, y = float(ix), float(iy)
    if score_cap is None or peak < score_cap - _CAP_SLACK:
        if 0 < ix < cols - 1:
            x += _parabolic_offset(float(resp[iy, ix - 1]), peak, float(resp[iy, ix + 1]))
        if 0 < iy < rows - 1:
            y += _parabolic_offset(float(resp[iy - 1, ix]), peak, float(resp[iy + 1, ix]))
    return MatchResult(position=(x, y), score=peak)


def match_template(image, template: Template, measure: str = CCOEFF_NORMED,
                   region: SearchRegion | None = None, min_score: float = 0.5) -> MatchResult:
    """Best subpixel placement of ``template`` in ``image``.

    With a region, the search is restricted to it; if the regional best scores
    below ``min_score`` the search widens once to the full frame and the
    full-frame best is returned with ``widened`` set, whatever its score.
    """
    regions = None if region is None else [region]
    positions, scores, widened = match_templates(image, [template], measure, regions, min_score)
    x, y = positions[0].tolist()
    return MatchResult(position=(x, y), score=float(scores[0]), widened=bool(widened[0]))


def match_templates(image, templates: list[Template], measure: str = CCOEFF_NORMED,
                    regions: list[SearchRegion] | None = None, min_score: float = 0.5):
    """``match_template`` for R same-shape templates, each in its own region.

    All R templates are scored in one pass over the union of the regions;
    each peak is then taken from its own region, so borders behave as if the
    region had been searched alone.  Templates whose regional best scores
    below ``min_score`` widen together to one full-frame pass.  Returns
    positions ``(R, 2)``, scores ``(R,)`` and widened flags ``(R,)``.
    """
    img = _as_image(image)
    shape = templates[0].pixels.shape
    if regions is not None and len(regions) != len(templates):
        raise ValueError(f"{len(regions)} regions for {len(templates)} templates")
    boxes = [placement_bounds(img.shape, shape, region) for region in regions or [None] * len(templates)]
    positions, scores = _best_in_boxes(img, templates, boxes, measure)
    widened = np.zeros(len(templates), dtype=bool) if regions is None else scores < min_score
    redo = widened.nonzero()[0]
    if len(redo):
        full = placement_bounds(img.shape, shape, None)
        positions[redo], scores[redo] = _best_in_boxes(
            img, [templates[r] for r in redo], [full] * len(redo), measure
        )
    return positions, scores, widened


def _best_in_boxes(img: np.ndarray, templates: list[Template], boxes: list, measure: str):
    """Subpixel best placement of each template within its own box, from one union response."""
    x0s, x1s, y0s, y1s = zip(*boxes)
    ux0, ux1, uy0, uy1 = min(x0s), max(x1s), min(y0s), max(y1s)
    response = match_scores(img, templates, measure, (ux0, ux1, uy0, uy1))
    positions = np.zeros((len(boxes), 2))
    scores = np.zeros(len(boxes))
    for i, (x0, x1, y0, y1) in enumerate(boxes):
        peak = find_peak_subpixel(
            response[i, y0 - uy0 : y1 - uy0 + 1, x0 - ux0 : x1 - ux0 + 1], score_cap=1.0
        )
        positions[i] = (peak.position[0] + x0, peak.position[1] + y0)
        scores[i] = peak.score
    return positions, scores
