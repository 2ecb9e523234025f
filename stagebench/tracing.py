"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces a few module attributes of ``resp4d`` with timing
wrappers while it is installed, and the benchmark opens spans around its own
direct calls.  Every span has a name, a start, an end and the index of the
span that was open when it began.  Spans stay in memory until the run writes
them out; per-layer figures, self time included, are derived from them.

Only the attributes listed in ``WRAPPED`` are hooked.  A later version of the
program that stops calling one of them (say, a batched localizer that no
longer goes through ``locate_in_navigator``) reads 0 for that layer until
spans move inside the program.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field

# (module, attribute) -> span name.  tracker.match_template is the name both
# track_reference and locate_in_navigator resolve, so one hook sees every
# kernel call; evalharness.reconstruct is the name sweep resolves.
WRAPPED = {
    ("resp4d.reconstructor", "track_reference"): "tracker.track_reference",
    ("resp4d.reconstructor", "locate_in_navigator"): "tracker.locate_in_navigator",
    ("resp4d.reconstructor", "average_bin"): "reconstructor.average_bin",
    ("resp4d.tracker", "match_template"): "matcher.match_template",
    ("resp4d.evalharness", "reconstruct"): "evalharness.reconstruct",
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 at the top
    op: int  # operation ordinal; set-up k is -1 - k


@dataclass
class MatcherCounts:
    calls: int = 0
    placements: int = 0
    full_frame_placements: int = 0
    widened: int = 0
    madds: int = 0  # placements x template pixels, computed from the arguments


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    matcher: dict[int, MatcherCounts] = field(default_factory=dict)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def _timed(self, name: str, func):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return wrapper

    def _counted_match(self, name: str, func):
        from resp4d.matcher import placement_bounds

        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            image = getattr(bound.arguments["image"], "pixels", bound.arguments["image"])
            shape = bound.arguments["template"].pixels.shape
            region = bound.arguments["region"]
            full = _placements(placement_bounds(image.shape, shape, None))
            scanned = _placements(placement_bounds(image.shape, shape, region))
            full_scanned = scanned if region is None else 0
            if result.widened:
                scanned += full
                full_scanned += full
            counts = self.matcher.setdefault(self.op, MatcherCounts())
            counts.calls += 1
            counts.placements += scanned
            counts.full_frame_placements += full_scanned
            counts.widened += int(result.widened)
            counts.madds += scanned * shape[0] * shape[1]
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Hook every attribute in WRAPPED for the duration of the block."""
        saved = []
        try:
            for (module_name, attr), name in WRAPPED.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                make = self._counted_match if name == "matcher.match_template" else self._timed
                setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _placements(bounds: tuple[int, int, int, int]) -> int:
    x0, x1, y0, y1 = bounds
    return (x1 - x0 + 1) * (y1 - y0 + 1)


def span_totals(spans: list[Span]) -> dict[int, dict[str, tuple[int, float, float]]]:
    """Per operation and span name: (count, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so the difference is the
    part of the interval no child covers.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    out: dict[int, dict[str, list[int]]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.op, {}).setdefault(span.name, [0, 0, 0])
        duration = span.end_ns - span.start_ns
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns[index]
    return {
        op: {name: (c, total / 1e9, own / 1e9) for name, (c, total, own) in names.items()}
        for op, names in out.items()
    }


def write_spans(spans: list[Span], path) -> None:
    """One CSV row per span, times in nanoseconds from the first span."""
    origin = spans[0].start_ns if spans else 0
    with open(path, "w") as fh:
        fh.write("index,name,op,parent,start_ns,end_ns\n")
        for index, s in enumerate(spans):
            fh.write(f"{index},{s.name},{s.op},{s.parent},{s.start_ns - origin},{s.end_ns - origin}\n")
