"""Dense normalized-correlation template matching with subpixel refinement.

Two similarity measures are provided, both computed in float64:

``ccoeff_normed``
    zero-mean normalized cross-correlation: template and image patch both have
    their means removed before correlation, so the score is invariant to
    affine intensity changes of either side.

``ccorr_normed``
    plain normalized cross-correlation without mean removal.

Scores live in [-1, 1] (``ccorr_normed`` stays in [0, 1] for non-negative
images).  Patch statistics come from running sums: one down the columns of
the image, shared by every template height, then one along each row of
windows (``SearchFrame.window_sums``).  On uint16-valued pixels every
partial sum, of the pixels or of their squares, is an integer below 2**53
for frames of up to about two million pixels, so the sums are exact in any
order.  Every search reads them, and a whole frame's spectrum, from the
``SearchFrame`` that wraps what it scores, so they are shared by every
template scored over it.  The cross term is computed in one of three ways,
following J. P. Lewis, "Fast Normalized Cross-Correlation", Vision
Interface 1995:
one template searched over the whole frame correlates in the frequency
domain (the template's spectrum is kept on the template); one template over
a smaller box (a crop, or a stack of crops) is a Toeplitz product, each row
of placements being the ``th`` image rows it covers times one banded
``(th * w, ow)`` matrix that holds every horizontal shift of the template;
R > 1 templates are products of an im2col copy of the windows with the
stacked ``(R, n)`` template matrix, taken in bands of placements.

R > 1 templates in their boxes of S images are found by one bounded
search over the stack of the images' crops, with the result of scoring all
of them everywhere (``_bounded_peaks``).  Divided by
its norm, each kernel is a unit vector, and so is each patch.  Each bank
keeps the fewest top singular vectors of its unit kernels that leave every
kernel within ``_RESIDUAL_MAX`` of their span, after M. Uenohara and T.
Kanade, "Use of Fourier and Karhunen-Loeve decomposition for fast pattern
matching with a large set of templates", IEEE TPAMI 19(8), 1997; a
template's score then differs from its projection's by at most its
residual.  The k basis vectors are scored over the whole stack, and every
template only where its projection leaves room for its best.  The chains
of one vessel appearance lie within 0.02 of one basis vector and leave about
1 % of the placements to score; the chains of a vessel whose appearance
changes with breathing lie within 0.11 of three or four, and leave 1-14 %.

``match_templates`` is the one search: S images by R templates, each in its
own region (all S images as one stack) or over the whole frame (one image
at a time), widening weak regional bests.  One template's peak in each box
is picked by ``find_peak_subpixel``.
``match_template`` is ``match_templates`` of one image and one template, and
``placement_bounds`` row 0 of ``placement_boxes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DegenerateTemplateError

CCOEFF_NORMED = "ccoeff_normed"
CCORR_NORMED = "ccorr_normed"
MEASURES = (CCOEFF_NORMED, CCORR_NORMED)
DEFAULT_MIN_SCORE = 0.5  # a regional best scoring below it widens to the full frame

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
# the bounded search of R > 1 templates (_bounded_peaks).  How far below its
# bound an approximate score may round and still count as a candidate, and
# the largest distance of a unit kernel from the span of its bank's basis.
# Measured: 0.125 takes one basis vector for the chains of one vessel
# appearance (residuals up to 0.02) and three or four for the split-pair
# phantoms; 0.07 to 0.2 ran the workloads equally fast
_BOUND_SLACK = 1e-3
_RESIDUAL_MAX = 0.125
# power iterations per basis direction (_basis).  Each shrinks the other
# directions' share by their eigenvalue over the top one's, at most 0.6 on
# the phantoms' chains (1e-7 after 30); a direction that has not settled
# keeps the bound exact and can only cost one more basis vector
_POWER_STEPS = 30


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


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Running sums down the columns of ``values`` ``(..., h, w)``, after a row of zeros: ``(..., h + 1, w)``."""
    sums = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1]))
    np.cumsum(values, axis=-2, out=sums[..., 1:, :])
    return sums


def _windows(columns: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sums over every ``shape`` window, from ``_column_sums`` of the values: one running sum along each window row."""
    (th, tw), (h, w) = shape, columns.shape[-2:]
    oh, ow = h - th, w - tw + 1
    rows = np.zeros(columns.shape[:-2] + (oh, w + 1))
    np.cumsum(columns[..., th:, :] - columns[..., :oh, :], axis=-1, out=rows[..., 1:])
    return rows[..., tw:] - rows[..., :ow]


@dataclass
class SearchFrame:
    """A frame ``(h, w)`` or a stack of crops ``(S, h, w)`` of float64 ``pixels``, with what a search reads of it, each built the first time it is used.

    ``stack`` is the pixels as ``(S, h, w)``, a frame being a stack of one.
    The running sums down its columns, of the pixels (for ``ccoeff_normed``)
    and of their squares, give the window sums of every template size, and
    the ``rfft2`` spectrum of a whole frame serves every template's FFT
    correlation.  Each search wraps what it scores: ``_best_in_stack`` its
    stack of crops, ``_best_in_frame`` a plain frame, ``match_scores`` its
    crop.  A caller that searches one frame for several templates, one call
    each, wraps it once (``tracker.track_reference``) and passes it as the
    image.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = _as_image(self.pixels, stack=True)
        self.stack = self.pixels if self.pixels.ndim == 3 else self.pixels[None]

    @cached_property
    def _plain(self) -> np.ndarray:
        return _column_sums(self.stack)

    @cached_property
    def _squares(self) -> np.ndarray:
        return _column_sums(self.stack * self.stack)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``rfft2`` of the stack, ``(S, h, w // 2 + 1)``."""
        return np.fft.rfft2(self.stack)

    def window_sums(self, shape: tuple[int, int], measure: str):
        """Per-placement patch sums (None for ``ccorr_normed``) and sums of squares of every image, ``(S, oh, ow)`` each."""
        return (_windows(self._plain, shape) if measure == CCOEFF_NORMED else None), _windows(self._squares, shape)


def response_map(image, template: Template, measure: str = CCOEFF_NORMED) -> np.ndarray:
    """Similarity score for every placement of ``template``: entry ``[j, i]`` scores placement ``(i, j)``."""
    img = _as_image(image)
    return match_scores(img, [template], measure, placement_bounds(img.shape, template.pixels.shape))[0]


@dataclass
class TemplateBank:
    """R same-shape templates checked for one measure, stacked once for every search.

    For R > 1, ``kernels`` is the ``(R, n)`` matrix of the measure's kernels
    (zero-mean templates for ``ccoeff_normed``, raw ones for
    ``ccorr_normed``), ``sums`` (zeros for ``ccorr_normed``) and ``energies``
    are ``(R, 1)``.  ``basis`` holds the k templates of ``_bounded_peaks``:
    template ``r``'s unit kernel lies ``residuals[r]`` from ``coeffs[r]``
    ``(R, k)`` times the basis templates' unit kernels.
    """

    templates: list[Template]
    measure: str
    kernels: np.ndarray | None = None
    sums: np.ndarray | None = None
    energies: np.ndarray | None = None
    basis: list[Template] = field(default_factory=list)
    coeffs: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def take(self, rows: list[int]) -> TemplateBank:
        """The bank of templates ``rows``, sharing this bank's stacked kernels and basis."""
        if len(rows) == 1:
            return TemplateBank([self.templates[rows[0]]], self.measure)
        return replace(
            self, templates=[self.templates[r] for r in rows], kernels=self.kernels[rows],
            sums=self.sums[rows], energies=self.energies[rows],
            coeffs=self.coeffs[rows], residuals=self.residuals[rows],
        )


def _terms(tpl: Template, measure: str):
    """``tpl``'s kernel, kernel sum (0 for ``ccorr_normed``, whose scores never read it) and kernel energy under ``measure``."""
    if measure == CCOEFF_NORMED:
        return tpl._zero_mean, tpl._sum_zero_mean, tpl._energy_zero_mean
    return tpl.pixels, 0.0, tpl._energy_raw


def template_bank(templates: list[Template], measure: str) -> TemplateBank:
    """Check R same-shape templates for ``measure``; for R > 1 stack them and find their basis."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    shape = templates[0].pixels.shape
    for tpl in templates:
        if tpl.pixels.shape != shape:
            raise ValueError(f"templates differ in shape: {tpl.pixels.shape} vs {shape}")
        if template_degenerate(tpl, measure):
            raise DegenerateTemplateError(
                "constant template has zero variance and no ccoeff_normed response"
                if measure == CCOEFF_NORMED
                else "all-zero template has no ccorr_normed response"
            )
    if len(templates) == 1:
        return TemplateBank(templates, measure)
    kernels, sums, energies = zip(*(_terms(tpl, measure) for tpl in templates))
    kernels, sums, energies = np.stack([k.ravel() for k in kernels]), np.array(sums)[:, None], np.array(energies)[:, None]
    return TemplateBank(templates, measure, kernels, sums, energies, *_basis(kernels / np.sqrt(energies), shape, measure))


def _basis(unit: np.ndarray, shape: tuple[int, int], measure: str):
    """The fewest principal directions of the unit kernels ``unit`` ``(R, n)`` that leave each within ``_RESIDUAL_MAX`` of their span.

    Each direction is the top eigenvector of the Gram matrix of what the
    directions before it leave of the kernels, found by power iteration,
    and signed so that the kernels' coefficients on it sum to >= 0.  (Numpy's
    SVD would page in about 1 MB of LAPACK that nothing else here uses.)
    Returns them as k templates, with the coefficients ``(R, k)`` and the
    residuals ``(R,)`` against the unit kernels that scoring the templates
    uses; any unit directions would keep the bound exact, these keep k small.
    """
    rest, directions = unit, []
    while (rest * rest).sum(axis=1).max() > _RESIDUAL_MAX**2:
        # einsum's own loops, not BLAS: OpenBLAS threads A @ A.T (syrk) and
        # A @ A.T.copy() (gemm) past size thresholds, and the first threaded
        # calls of a process take 10-20 ms and slow the rest of its operation
        gram = np.einsum("ij,kj->ik", rest, rest)
        x = gram[np.argmax(np.diag(gram))]
        for _ in range(_POWER_STEPS):
            x = gram @ x
            x /= np.sqrt(x @ x)
        v = rest.T @ x
        v /= np.sqrt(v @ v)
        directions.append(v if (unit @ v).sum() >= 0.0 else -v)
        rest = rest - np.outer(rest @ v, v)
    basis = [Template(v.reshape(shape)) for v in directions]
    scored = np.stack([kernel.ravel() / math.sqrt(energy) for kernel, _, energy in (_terms(b, measure) for b in basis)])
    coeffs = unit @ scored.T
    return basis, coeffs, np.sqrt(((unit - coeffs @ scored) ** 2).sum(axis=1))


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
    bank = template_bank(templates, measure)
    img = _as_image(image, stack=len(templates) == 1)
    x0, x1, y0, y1 = bounds
    th, tw = templates[0].pixels.shape
    crop = SearchFrame(img[..., y0 : y1 + th, x0 : x1 + tw])
    s1, s2 = crop.window_sums((th, tw), measure)
    if len(templates) == 1:
        scores = _kernel_scores(img.shape[-2:], crop, s1, s2, templates, measure)
    else:
        scores = _every_score(crop, s1, s2, bank)
    return scores if img.ndim == 3 else scores[0]


def _kernel_scores(frame: tuple[int, int], crop: SearchFrame, s1, s2, templates: list[Template],
                   measure: str) -> np.ndarray:
    """k same-shape templates' scores at every placement of each image of ``crop``, cut from frames of shape ``frame``: ``(S, k, oh, ow)``."""
    kernels, totals, energies = zip(*(_terms(tpl, measure) for tpl in templates))
    th, tw = kernels[0].shape
    oh, ow = s2.shape[-2:]
    pixels = crop.stack
    if pixels.shape == (1,) + frame:
        # one whole frame: valid placements never wrap, so the circular
        # correlation needs no padding beyond the frame
        spectra = []
        for tpl, kernel in zip(templates, kernels):
            if (frame, measure) not in tpl._spectra:
                tpl._spectra[(frame, measure)] = np.conj(np.fft.rfft2(kernel, s=frame))
            spectra.append(tpl._spectra[(frame, measure)])
        spectra = spectra[0] if len(spectra) == 1 else np.stack(spectra)  # one spectrum broadcasts uncopied
        cross = np.fft.irfft2(crop.spectrum[..., None, :, :] * spectra, s=frame)[..., :oh, :ow]
    else:
        # template row k slides along image row i + k: one banded matrix
        # holds every horizontal shift of every template, and output row i
        # is rows i..i+th-1 times it.  Entry (t, j + i, r, j) is template
        # r's pixel (t, i), written through a strided view of those entries
        w = pixels.shape[-1]
        band = np.zeros((th, w, len(kernels), ow))
        st, sx, sr, sj = band.strides
        as_strided(band, (th, len(kernels), ow, tw), (st, sr, sx + sj, sx))[...] = np.swapaxes(kernels, 0, 1)[:, :, None]
        rows = np.swapaxes(sliding_window_view(pixels, th, axis=-2), -1, -2)
        cross = rows.reshape((len(pixels), oh, th * w)) @ band.reshape(th * w, -1)
        cross = cross.reshape((len(pixels), oh, len(kernels), ow)).swapaxes(-2, -3)
    return _normalize(cross, None if s1 is None else s1[..., None, :, :], s2[..., None, :, :],
                      np.array(totals)[:, None, None], np.array(energies)[:, None, None], th * tw)


def _every_score(crop: SearchFrame, s1, s2, bank: TemplateBank) -> np.ndarray:
    """Every template of ``bank`` at every placement of each image of ``crop``: ``_scores_at`` of them all, shape ``(S, R, oh, ow)``."""
    windows = sliding_window_view(crop.stack, bank.templates[0].pixels.shape, axis=(-2, -1))
    return _scores_at(windows, s1, s2, bank, np.arange(s2.size)).reshape((-1,) + s2.shape).swapaxes(0, 1)


def _scores_at(windows: np.ndarray, s1, s2, bank: TemplateBank, flat: np.ndarray) -> np.ndarray:
    """Every template of ``bank`` at placements ``flat`` (row-major indices into ``s2``), shape ``(R, m)``: in bands, each band's windows the rows ``(m, n)`` of an im2col product."""
    out = np.empty((len(bank.templates), flat.size))
    for k in range(0, flat.size, _BAND_PLACEMENTS):
        at = np.unravel_index(flat[k : k + _BAND_PLACEMENTS], s2.shape)
        cols = windows[at].reshape(at[0].size, -1)
        out[:, k : k + _BAND_PLACEMENTS] = _normalize(bank.kernels @ cols.T, None if s1 is None else s1[at], s2[at],
                                                       bank.sums, bank.energies, cols.shape[1])
    return out


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


def _cap_hits(peaks):
    """Which peaks attain ``_SCORE_CAP``: exact lattice matches, kept unrefined and scored at the cap."""
    return peaks >= _SCORE_CAP - _CAP_SLACK


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


def find_peak_subpixel(response: np.ndarray) -> MatchResult:
    """Locate the response maximum and refine it to subpixel precision.

    The integer argmax (ties: smallest row-major index) is refined
    independently per axis by a parabolic fit through the peak and its two
    neighbours.  The integer coordinate is kept for an axis at the response
    border or when the parabola degenerates.  A peak that attains the cap of
    both measures, 1 (an exact lattice match; the fitted vertex would exceed
    the attainable score), is not refined and scores the cap.
    """
    resp = np.asarray(response, dtype=np.float64)
    if resp.ndim != 2 or resp.size == 0:
        raise ValueError(f"response must be a non-empty 2D array, got shape {resp.shape}")
    rows, cols = resp.shape
    iy, ix = divmod(int(resp.argmax()), cols)
    peak = float(resp[iy, ix])
    x, y = float(ix), float(iy)
    if _cap_hits(peak):
        return MatchResult(position=(x, y), score=_SCORE_CAP)
    if 0 < ix < cols - 1:
        x += _parabolic_offset(float(resp[iy, ix - 1]), peak, float(resp[iy, ix + 1]))
    if 0 < iy < rows - 1:
        y += _parabolic_offset(float(resp[iy - 1, ix]), peak, float(resp[iy + 1, ix]))
    return MatchResult(position=(x, y), score=peak)


def _outside_to_inf(values: np.ndarray, boxes: np.ndarray) -> None:
    """Set ``values`` ``(..., rows, cols)`` to -inf outside box ``boxes[...]`` (inclusive x0, x1, y0, y1), in place and without a dense mask."""
    rows, cols = values.shape[-2:]
    if (boxes == (0, cols - 1, 0, rows - 1)).all():  # every box is the whole grid
        return
    x0, x1, y0, y1 = (b[..., None, None] for b in np.moveaxis(boxes, -1, 0))
    rows, cols = np.arange(rows)[:, None], np.arange(cols)
    np.copyto(values, -np.inf, where=(rows < y0) | (rows > y1))
    np.copyto(values, -np.inf, where=(cols < x0) | (cols > x1))


def _refine(boxes: np.ndarray, ix, iy, peaks, left, right, up, down):
    """Positions relative to each box's corner, and scores, of R integer peaks given their four neighbours' scores.

    The parabola is fitted along an axis only strictly inside the box, and
    a cap hit keeps its lattice point and scores the cap.
    """
    x0, x1, y0, y1 = boxes.T
    hits = _cap_hits(peaks)
    dx = np.where(~hits & (x0 < ix) & (ix < x1), _parabolic_offsets(left, peaks, right), 0.0)
    dy = np.where(~hits & (y0 < iy) & (iy < y1), _parabolic_offsets(up, peaks, down), 0.0)
    positions = np.stack([(ix - x0) + dx, (iy - y0) + dy], axis=1)
    return positions, np.where(hits, _SCORE_CAP, peaks)


def match_template(image, template: Template, measure: str = CCOEFF_NORMED,
                   region: SearchRegion | None = None, min_score: float = DEFAULT_MIN_SCORE) -> MatchResult:
    """Best subpixel placement of ``template`` in ``image``: ``match_templates`` of one image and one template.

    With a region, the search is restricted to it; if the regional best scores
    below ``min_score`` the search widens once to the full frame and the
    full-frame best is returned with ``widened`` set, whatever its score.
    """
    centers, radius = (None, None) if region is None else (np.array([[region.center]]), region.radius)
    positions, scores, widened = match_templates([image], template_bank([template], measure), centers, radius, min_score)
    x, y = positions[0, 0].tolist()
    return MatchResult(position=(x, y), score=float(scores[0, 0]), widened=bool(widened[0, 0]))


def match_templates(images, bank: TemplateBank, centers: np.ndarray | None = None,
                    radius: int | None = None, min_score: float = DEFAULT_MIN_SCORE):
    """Best subpixel placements of a bank's R templates in each of S same-shape images.

    Template ``r`` is searched in image ``s`` within ``radius`` of
    ``centers[s, r]`` (x, y); without centres or radius every template
    searches the whole frame.  Regional searches of all S images are one
    stacked search (``_best_in_stack``): each image's union of regions grows
    to one common size inside the frame, and R > 1 templates take the
    bounded search of ``_bounded_peaks`` over the stack.  Whole frames are
    searched one image at a time.  Each peak is taken from its own image and
    region, so borders behave as if the region had been searched alone, and
    chains whose regional best scores below ``min_score`` widen to the full
    frame of their own image.  Returns positions ``(S, R, 2)``, scores
    ``(S, R)`` and widened flags ``(S, R)``.
    """
    templates = bank.templates
    imgs = [_as_image(image, dtype=None) for image in images]
    shapes = imgs[0].shape, templates[0].pixels.shape
    if centers is not None and np.shape(centers) != (len(imgs), len(templates), 2):
        raise ValueError(f"centres must have shape {(len(imgs), len(templates), 2)}, got {np.shape(centers)}")
    if radius is not None and radius < 1:
        raise ValueError(f"search radius must be >= 1, got {radius}")
    regional = centers is not None and radius is not None
    if regional:
        boxes = placement_boxes(*shapes, np.reshape(centers, (-1, 2)), radius).reshape(len(imgs), len(templates), 4)
        positions, scores = _best_in_stack(imgs, bank, boxes)
    else:
        # a stack of whole frames would only raise peak memory
        positions, scores = map(np.concatenate, zip(*(_best_in_frame(image, bank) for image in images)))
    widened = scores < min_score if regional else np.zeros(scores.shape, dtype=bool)
    for s in widened.any(axis=1).nonzero()[0]:
        redo = widened[s].nonzero()[0]
        found = _best_in_frame(images[s], bank.take(redo.tolist()))
        positions[s, redo], scores[s, redo] = (a[0] for a in found)
    return positions, scores, widened


def _best_in_frame(image, bank: TemplateBank):
    """Subpixel best placement of every template of ``bank`` over the whole of ``image``: positions ``(1, R, 2)`` and scores ``(1, R)``.

    A ``SearchFrame`` lends its kept statistics; a plain image is wrapped
    for this search alone.
    """
    frame = image if isinstance(image, SearchFrame) else SearchFrame(image)
    shape = frame.pixels.shape
    return _peaks(shape, frame, bank, placement_boxes(shape, bank.templates[0].pixels.shape)[None])


def _best_in_stack(imgs: list[np.ndarray], bank: TemplateBank, boxes: np.ndarray):
    """Subpixel best placement of template ``r`` within box ``boxes[s, r]`` of image ``s``, for all S images at once.

    ``boxes`` is ``(S, R, 4)``, or ``(S, 1, 4)`` for one box shared by all
    R.  Each image's union of boxes grows to the largest union, kept inside
    the frame, and the S float64 crops are scored as one stack: R > 1
    templates by the bounded search, one template at every placement.  A
    stack of R > 1 templates holds at most one frame's placements, so that
    the chains' approximations never take more memory than over a whole
    frame; more images are split into several stacks.  Returns positions
    ``(S, R, 2)`` and scores ``(S, R)``.
    """
    (th, tw), frame = bank.templates[0].pixels.shape, imgs[0].shape
    lo, hi = boxes[..., 0::2].min(axis=1), boxes[..., 1::2].max(axis=1)  # (x, y) corners of each union
    sx, sy = (hi - lo).max(axis=0).tolist()
    per = max(1, (frame[0] - th + 1) * (frame[1] - tw + 1) // ((sx + 1) * (sy + 1)))
    if len(bank.templates) > 1 and len(imgs) > per:
        found = [_best_in_stack(imgs[i : i + per], bank, boxes[i : i + per]) for i in range(0, len(imgs), per)]
        return tuple(map(np.concatenate, zip(*found)))
    corners = np.minimum(lo, (frame[1] - tw - sx, frame[0] - th - sy))
    crop = np.empty((len(imgs), sy + th, sx + tw))
    for out, img, (x, y) in zip(crop, imgs, corners.tolist()):
        out[...] = img[y : y + sy + th, x : x + sx + tw]
    positions, scores = _peaks(frame, SearchFrame(crop), bank, boxes - corners[:, None, [0, 0, 1, 1]])
    return positions + boxes[..., 0::2], scores


def _peaks(frame: tuple[int, int], crop: SearchFrame, bank: TemplateBank, boxes: np.ndarray):
    """Subpixel best placement of template ``r`` within box ``boxes[s, r]`` of image ``s`` of ``crop``, relative to the box's corner.

    ``boxes`` is ``(S, R, 4)`` or ``(S, 1, 4)``.  R > 1 templates take the
    bounded search; one template is scored at every placement, and
    ``find_peak_subpixel`` picks each box's peak.  Returns positions
    ``(S, R, 2)`` and scores ``(S, R)``.
    """
    s1, s2 = crop.window_sums(bank.templates[0].pixels.shape, bank.measure)
    if len(bank.templates) > 1:
        return _bounded_peaks(frame, crop, s1, s2, bank, np.broadcast_to(boxes, (len(s2), len(bank.templates), 4)))
    response = _kernel_scores(frame, crop, s1, s2, bank.templates, bank.measure)[:, 0]
    found = [find_peak_subpixel(r[y0 : y1 + 1, x0 : x1 + 1]) for r, (x0, x1, y0, y1) in zip(response, boxes[:, 0].tolist())]
    return np.array([[peak.position] for peak in found]), np.array([[peak.score] for peak in found])


def _bounded_peaks(frame: tuple[int, int], crop: SearchFrame, s1, s2, bank: TemplateBank, boxes: np.ndarray):
    """``find_peak_subpixel`` of R > 1 templates in each box, template ``r`` in image ``s`` of ``crop`` within ``boxes[s, r]``, scoring each only where its peak can be.

    With unit kernels ``t̂``, every score is ``<t̂, p̂>`` for a unit patch
    ``p̂`` (a flat patch scores 0 for all).  The bank's basis approximates
    ``t̂_r`` by ``sum_j C[r, j] u_j`` to within ``e_r``, so by Cauchy-Schwarz
    ``|score_r(p) - sum_j C[r, j] b_j(p)| <= e_r`` at every placement ``p``,
    where ``b_j`` scores ``u_j``.  The k basis maps are scored over the
    whole stack; each chain ``(s, r)`` is scored at its approximation's best
    in its own box, which bounds its own best from below by ``L_sr``; so
    its best lies where the approximation reaches ``L_sr - e_r``.  Every
    template is scored at the union of those candidates, flat ``(s, y, x)``
    indices in row-major order, and each chain takes the first maximum among
    the candidates in its own crop and box, then is scored at the four
    neighbours of its peak that the parabola reads.  With one basis vector
    and positive coefficients, every chain of a crop peaks where the one map
    does, and one threshold on that map serves all.  Returns positions
    ``(S, R, 2)``, relative to each box's corner, and scores ``(S, R)``.
    After L. Di Stefano, S. Mattoccia, "Fast template matching using bounded
    partial correlation", MVA 13 (2003), and S. Mattoccia, F. Tombari, L. Di
    Stefano, "Fast full-search equivalent template matching by Enhanced
    Bounded Correlation", IEEE TIP 17 (2008), with the bound taken across
    templates instead of across the rows of one template, and M. Uenohara,
    T. Kanade (IEEE TPAMI 19(8), 1997) for the basis.
    """
    n, oh, ow = s2.shape
    count = len(bank.templates)
    windows = sliding_window_view(crop.stack, bank.templates[0].pixels.shape, axis=(-2, -1))
    cand = _candidates(frame, crop, s1, s2, bank, boxes, windows)
    cs, cy, cx = np.unravel_index(cand, s2.shape)
    scores = _scores_at(windows, s1, s2, bank, cand)
    if (boxes != (0, ow - 1, 0, oh - 1)).any():
        # template r's score at a candidate of crop s is chain (s, r)'s only if the candidate lies in its box
        x0, x1, y0, y1 = np.transpose(boxes)[:, :, cs]
        scores[~((x0 <= cx) & (cx <= x1) & (y0 <= cy) & (cy <= y1))] = -np.inf
    # the first maximum among each crop's candidates, in row-major order: ties
    # resolve as in find_peak_subpixel.  Every crop holds candidates, since
    # each chain's own probe is one
    starts = np.searchsorted(cs, np.arange(n))
    peaks = np.maximum.reduceat(scores, starts, axis=1)
    first = np.minimum.reduceat(np.where(scores == peaks[:, cs], np.arange(cand.size), cand.size), starts, axis=1)
    first, peaks = first.T.ravel(), peaks.T.ravel()  # chains (s, r) in row-major order
    iy, ix = cy[first], cx[first]
    base = cand[first] - iy * ow - ix
    around = np.stack([
        base + iy * ow + np.maximum(ix - 1, 0), base + iy * ow + np.minimum(ix + 1, ow - 1),
        base + np.maximum(iy - 1, 0) * ow + ix, base + np.minimum(iy + 1, oh - 1) * ow + ix,
    ])
    near, at = np.unique(around, return_inverse=True)
    r = np.tile(np.arange(count), n)
    left, right, up, down = _scores_at(windows, s1, s2, bank, near)[r, at.reshape(4, -1)]
    positions, scores = _refine(boxes.reshape(-1, 4), ix, iy, peaks, left, right, up, down)
    return positions.reshape(n, count, 2), scores.reshape(n, count)


def _candidates(frame: tuple[int, int], crop: SearchFrame, s1, s2, bank: TemplateBank, boxes: np.ndarray,
                windows: np.ndarray) -> np.ndarray:
    """Flat ``(s, y, x)`` indices, in row-major order, of the placements where some chain of ``_bounded_peaks`` can peak.

    The basis maps and the chains' approximations, each as large as the
    full search's band of scores, are dropped on return, before the
    candidates are scored.
    """
    n, oh, ow = s2.shape
    count = len(bank.templates)
    maps = _kernel_scores(frame, crop, s1, s2, bank.basis, bank.measure)
    # the slack keeps the true argmax when rounding moves either side of the
    # bound.  A basis map (FFT or Toeplitz) and the stacked product agree to
    # 6e-12 on uint16 frames.  s2 - s1 * s1 / n rounds by up to half an ulp
    # of n * 65535**2 (6e-5 for 13x13, 2.4e-4 for 31x31); that scales every
    # score at the placement alike, the exact ones and the basis maps, by at
    # most half that over the patch energy (>= 1 - 1/n when it is not flat),
    # so a score's distance from its approximation moves by at most its
    # residual (<= 1) times it: under 1.2e-4 up to 31x31
    floor = bank.residuals + _BOUND_SLACK
    if maps.shape[1] == 1 and (bank.coeffs > 0.0).all():
        # L_sr from chain (s, r)'s own box, never from the union: the map's
        # best in each distinct box of each crop, where every chain of that
        # box is scored
        x0, x1, y0, y1 = np.moveaxis(boxes, -1, 0)
        key = (((np.arange(n)[:, None] * ow + x0) * ow + x1) * oh + y0) * oh + y1
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        probes = []
        for s, (bx0, bx1, by0, by1) in zip((first // count).tolist(), boxes.reshape(-1, 4)[first].tolist()):
            j, i = divmod(int(maps[s, 0, by0 : by1 + 1, bx0 : bx1 + 1].argmax()), bx1 - bx0 + 1)
            probes.append((s * oh + by0 + j) * ow + bx0 + i)
        lower = _scores_at(windows, s1, s2, bank, np.array(probes))[np.arange(count), which.reshape(n, count)]
        # one threshold per crop; _bounded_peaks drops the candidates that lie
        # in none of their crop's boxes
        return np.flatnonzero(maps[:, 0] >= ((lower - floor) / bank.coeffs[:, 0]).min(axis=1)[:, None, None])
    approx = bank.coeffs @ maps.reshape(n, len(bank.basis), -1)
    _outside_to_inf(approx.reshape(n, count, oh, ow), boxes)
    probes, which = np.unique(approx.argmax(axis=2) + np.arange(n)[:, None] * (oh * ow), return_inverse=True)
    lower = _scores_at(windows, s1, s2, bank, probes)[np.arange(count), which.reshape(n, count)]
    # a - t >= 0 exactly when a >= t, so the test runs in place, with no (S, R, P) mask
    approx -= (lower - floor)[..., None]
    return np.flatnonzero(approx.max(axis=1) >= 0.0)
