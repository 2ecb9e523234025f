"""Vessel tracking through navigator sequences.

Two modes:

``fixed``
    templates cut from frame 0 are matched over the full frame in every
    reference frame (``track_reference`` treats the search radius as
    unbounded).  In the interleaved navigators ``locate_in_navigator``
    searches for them like for any other template set: over the full frame
    in a sequence's first navigator, then within the search radius of the
    previous navigator's position.

``updating``
    each frame is searched in a small region around the previous position
    with the previous frame's templates; fresh templates are then cut at the
    refined floating-point position, so the template appearance follows the
    anatomy while subpixel updates keep the anchor from drifting.

A template set is the list of one reference frame's templates, one per
vessel.  The interleaved sequences are localized in lockstep:
``locate_in_navigator`` takes navigator ordinal ``n`` of all S sequences at
once and returns, for R template sets of V vessels, positions
``(S, R, V, 2)``, scores ``(S, R, V)`` and widened flags ``(S, R, V)``.

``track_reference`` makes one ``match_template`` call per (reference frame,
vessel); ``match_template`` is ``matcher.match_templates`` of one image and
one template.  The calls stay one per frame and vessel because the stage
benchmark counts kernel work by hooking this module's ``match_template``,
until it reads counters that the program records itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TrackingError, ValidationError
from .imgcore import Frame, ReferenceSequence
from .matcher import (
    CCOEFF_NORMED,
    MEASURES,
    SearchRegion,
    Template,
    cut_template,
    match_template,
    match_templates,
    template_degenerate,
)

FIXED = "fixed"
UPDATING = "updating"
MODES = (FIXED, UPDATING)

DEFAULT_SEARCH_RADIUS = 10
DEFAULT_MIN_SCORE = 0.5


@dataclass(frozen=True)
class Roi:
    """Labelled rectangle marking a vessel on frame 0 of a reference sequence."""

    label: str
    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"ROI {self.label!r}: size {self.width}x{self.height} is empty")


RoiSpec = list[Roi]
# (key, JSON type, description) of every field of a rois.json entry
_ROI_FIELDS = (
    ("label", str, "a string"),
    ("x", int, "an integer"),
    ("y", int, "an integer"),
    ("w", int, "an integer"),
    ("h", int, "an integer"),
)


def rois_from_obj(obj) -> RoiSpec:
    """Build a RoiSpec from a JSON-shaped list of dicts."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError("ROI spec must be a non-empty list of rectangles")
    rois = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise ValidationError(f"bad ROI entry {i}: expected an object, got {entry!r}")
        for key, kind, expected in _ROI_FIELDS:
            if key not in entry:
                raise ValidationError(f"bad ROI entry {i}: missing key {key!r}")
            # JSON integers only: int() would truncate 18.7, overflow on
            # Infinity and turn true into a 1-pixel template
            if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                raise ValidationError(f"bad ROI entry {i}: key {key!r} must be {expected}, got {entry[key]!r}")
        rois.append(Roi(label=entry["label"], x=entry["x"], y=entry["y"], width=entry["w"], height=entry["h"]))
    labels = [r.label for r in rois]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate ROI labels in {labels}")
    return rois


def rois_to_obj(rois: RoiSpec) -> list[dict]:
    return [
        {"label": r.label, "x": r.x, "y": r.y, "w": r.width, "h": r.height}
        for r in rois
    ]


@dataclass
class TrackTrace:
    """Per-frame subpixel positions for every tracked vessel."""

    labels: list[str]
    positions: np.ndarray  # (n_frames, n_vessels, 2) float64, (x, y)
    scores: np.ndarray  # (n_frames, n_vessels)
    widened: np.ndarray  # (n_frames, n_vessels) bool

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]


def write_trace_csv(trace: TrackTrace, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vessel", "frame", "x", "y", "score", "widened"])
        for v, label in enumerate(trace.labels):
            for i in range(trace.n_frames):
                (x, y), score = trace.positions[i, v].tolist(), trace.scores[i, v]
                writer.writerow([label, i, f"{x:.6f}", f"{y:.6f}", f"{score:.9f}", int(trace.widened[i, v])])


def _cut_templates(frame: Frame, index: int, rois: RoiSpec, corners: np.ndarray, measure: str) -> list[Template]:
    """Frame ``index``'s template set: each ROI's size cut at its corner in ``corners`` (V, 2)."""
    templates = []
    for roi, (x, y) in zip(rois, corners.tolist()):
        try:
            tpl = cut_template(frame.pixels, x, y, roi.width, roi.height)
        except ValueError as exc:
            raise ValidationError(f"ROI {roi.label!r} does not fit the frame: {exc}") from exc
        if template_degenerate(tpl, measure):
            raise TrackingError(f"vessel {roi.label!r} at frame {index}: template is degenerate for {measure}")
        templates.append(tpl)
    return templates


def track_reference(
    ref: ReferenceSequence,
    rois: RoiSpec,
    measure: str = CCOEFF_NORMED,
    search_radius: int | None = DEFAULT_SEARCH_RADIUS,
    mode: str = UPDATING,
    min_score: float = DEFAULT_MIN_SCORE,
) -> tuple[TrackTrace, list[list[Template]]]:
    """Track every ROI through a reference sequence.

    Returns the trace plus the template sets produced along the way: a single
    frame-0 set in ``fixed`` mode, one set per frame in ``updating`` mode.
    ``search_radius=None`` disables region restriction in updating mode;
    ``fixed`` mode always searches the full frame.
    """
    if mode not in MODES:
        raise ValueError(f"unknown tracking mode {mode!r}, expected one of {MODES}")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if not rois:
        raise ValidationError("no ROIs given")

    n_frames, n_vessels = len(ref.frames), len(rois)
    positions = np.zeros((n_frames, n_vessels, 2))
    scores = np.zeros((n_frames, n_vessels))
    widened = np.zeros((n_frames, n_vessels), dtype=bool)

    positions[0] = [(roi.x, roi.y) for roi in rois]
    scores[0] = 1.0
    sets = [_cut_templates(ref.frames[0], 0, rois, positions[0], measure)]
    radius = search_radius if mode == UPDATING else None
    for i in range(1, n_frames):
        frame = ref.frames[i]
        for v, tpl in enumerate(sets[-1]):
            region = None if radius is None else SearchRegion(center=tuple(positions[i - 1, v]), radius=radius)
            res = match_template(frame.pixels, tpl, measure, region=region, min_score=min_score)
            positions[i, v], scores[i, v], widened[i, v] = res.position, res.score, res.widened
        if mode == UPDATING:
            # each updating template searches one reference frame; the
            # navigators batch it with the other sets, which reads no spectrum
            for tpl in sets[-1]:
                tpl._spectra.clear()
            sets.append(_cut_templates(frame, i, rois, positions[i], measure))

    trace = TrackTrace(labels=[r.label for r in rois], positions=positions, scores=scores, widened=widened)
    return trace, sets


def locate_in_navigator(
    navs: list[Frame],
    template_sets: list[list[Template]],
    priors: np.ndarray | None = None,
    measure: str = CCOEFF_NORMED,
    search_radius: int | None = DEFAULT_SEARCH_RADIUS,
    min_score: float = DEFAULT_MIN_SCORE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find every vessel of R template sets in the same navigator ordinal of S sequences.

    ``navs`` holds one navigator per sequence.  Each set ``r`` is one chain
    followed through every sequence; ``priors[s, r, v]`` (shape
    ``(S, R, V, 2)``, usually the chain's positions in sequence ``s``'s
    previous navigator) centres the search region for vessel ``v``.  Without
    priors, or with ``search_radius=None``, the whole frame is searched, one
    sequence at a time.  A chain whose regional best scores below
    ``min_score`` widens once to the full frame of its own sequence, exactly
    as ``match_template`` does.  Per vessel, one ``match_templates`` call
    serves all S x R chains.  Returns positions ``(S, R, V, 2)``, scores
    ``(S, R, V)`` and widened flags ``(S, R, V)``.
    """
    shape = (len(navs), len(template_sets), len(template_sets[0]))
    if priors is not None:
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != shape + (2,):
            raise ValueError(f"priors of shape {priors.shape} for (navigators, sets, templates) {shape}")
    positions = np.zeros(shape + (2,))
    scores = np.zeros(shape)
    widened = np.zeros(shape, dtype=bool)
    for v in range(shape[2]):
        positions[:, :, v], scores[:, :, v], widened[:, :, v] = match_templates(
            navs, [s[v] for s in template_sets], measure,
            None if priors is None else priors[:, :, v], search_radius, min_score,
        )
    return positions, scores, widened
