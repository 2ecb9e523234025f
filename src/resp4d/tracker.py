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


def rois_from_obj(obj) -> RoiSpec:
    """Build a RoiSpec from a JSON-shaped list of dicts."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError("ROI spec must be a non-empty list of rectangles")
    rois = []
    for entry in obj:
        try:
            rois.append(
                Roi(
                    label=str(entry["label"]),
                    x=int(entry["x"]),
                    y=int(entry["y"]),
                    width=int(entry["w"]),
                    height=int(entry["h"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad ROI entry {entry!r}: {exc}") from exc
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
class TemplateSet:
    """The templates cut from one reference frame, one per vessel."""

    frame_index: int
    templates: list[Template]


@dataclass
class TrackTrace:
    """Per-frame subpixel positions for every tracked vessel."""

    labels: list[str]
    mode: str
    positions: np.ndarray  # (n_frames, n_vessels, 2) float64, (x, y)
    scores: np.ndarray  # (n_frames, n_vessels)
    widened: np.ndarray  # (n_frames, n_vessels) bool

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def rows(self):
        for v, label in enumerate(self.labels):
            for i in range(self.n_frames):
                yield (
                    label,
                    i,
                    float(self.positions[i, v, 0]),
                    float(self.positions[i, v, 1]),
                    float(self.scores[i, v]),
                    bool(self.widened[i, v]),
                )


def write_trace_csv(trace: TrackTrace, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vessel", "frame", "x", "y", "score", "widened"])
        for label, i, x, y, score, widened in trace.rows():
            writer.writerow([label, i, f"{x:.6f}", f"{y:.6f}", f"{score:.9f}", int(widened)])


def _initial_templates(frame: Frame, rois: RoiSpec, measure: str) -> list[Template]:
    templates = []
    for roi in rois:
        try:
            tpl = cut_template(frame.pixels, roi.x, roi.y, roi.width, roi.height)
        except ValueError as exc:
            raise ValidationError(f"ROI {roi.label!r} does not fit the frame: {exc}") from exc
        if template_degenerate(tpl, measure):
            raise TrackingError(f"vessel {roi.label!r} at frame 0: template is degenerate for {measure}")
        templates.append(tpl)
    return templates


def track_reference(
    ref: ReferenceSequence,
    rois: RoiSpec,
    measure: str = CCOEFF_NORMED,
    search_radius: int | None = DEFAULT_SEARCH_RADIUS,
    mode: str = UPDATING,
    min_score: float = DEFAULT_MIN_SCORE,
) -> tuple[TrackTrace, list[TemplateSet]]:
    """Track every ROI through a reference sequence.

    Returns the trace plus the template sets produced along the way: a single
    frame-0 set in ``fixed`` mode, one set per frame in ``updating`` mode.
    ``search_radius=None`` disables region restriction in updating mode.
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

    templates = _initial_templates(ref.frames[0], rois, measure)
    sets = [TemplateSet(frame_index=0, templates=templates)]
    for v, roi in enumerate(rois):
        positions[0, v] = (roi.x, roi.y)
        scores[0, v] = 1.0

    for i in range(1, n_frames):
        frame = ref.frames[i]
        current = sets[-1].templates if mode == UPDATING else sets[0].templates
        new_templates = []
        for v, tpl in enumerate(current):
            if mode == UPDATING and search_radius is not None:
                region = SearchRegion(center=tuple(positions[i - 1, v]), radius=search_radius)
            else:
                region = None
            res = match_template(frame.pixels, tpl, measure, region=region, min_score=min_score)
            positions[i, v] = res.position
            scores[i, v] = res.score
            widened[i, v] = res.widened
            if mode == UPDATING:
                fresh = cut_template(frame.pixels, res.position[0], res.position[1], tpl.width, tpl.height)
                if template_degenerate(fresh, measure):
                    raise TrackingError(
                        f"vessel {rois[v].label!r} at frame {i}: updated template is degenerate for {measure}"
                    )
                new_templates.append(fresh)
        if mode == UPDATING:
            sets.append(TemplateSet(frame_index=i, templates=new_templates))

    trace = TrackTrace(
        labels=[r.label for r in rois],
        mode=mode,
        positions=positions,
        scores=scores,
        widened=widened,
    )
    return trace, sets


def locate_in_navigator(
    nav: Frame,
    template_sets: list[TemplateSet],
    priors: np.ndarray | None = None,
    measure: str = CCOEFF_NORMED,
    search_radius: int | None = DEFAULT_SEARCH_RADIUS,
    min_score: float = DEFAULT_MIN_SCORE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find every vessel of R template sets in one navigator frame.

    Each set ``r`` is one chain followed through a sequence; ``priors[r, v]``
    (shape ``(R, V, 2)``, usually the chain's positions in the previous
    navigator) centres the search region for vessel ``v``.  Without priors,
    or with ``search_radius=None``, the whole frame is searched.  A chain
    whose regional best scores below ``min_score`` widens once to the full
    frame, exactly as ``match_template`` does.

    Per vessel, ``match_templates`` scores all R templates in one pass over
    the union of the chains' regions.  Returns positions ``(R, V, 2)``,
    scores ``(R, V)`` and widened flags ``(R, V)``.
    """
    sets = [s.templates for s in template_sets]
    n_sets, n_vessels = len(sets), len(sets[0])
    if priors is not None:
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (n_sets, n_vessels, 2):
            raise ValueError(f"priors of shape {priors.shape} for {n_sets} sets of {n_vessels} templates")
    positions = np.zeros((n_sets, n_vessels, 2))
    scores = np.zeros((n_sets, n_vessels))
    widened = np.zeros((n_sets, n_vessels), dtype=bool)
    for v in range(n_vessels):
        positions[:, v], scores[:, v], widened[:, v] = match_templates(
            nav.pixels, [s[v] for s in sets], measure,
            None if priors is None else priors[:, v], search_radius, min_score,
        )
    return positions, scores, widened
