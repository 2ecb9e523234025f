"""Frame and sequence containers plus the on-disk dataset layout.

A dataset directory looks like::

    root/
      dataset.json            global metadata, sequence order, reference names
      <seq>/seq.json          per-frame kind / timestamp / slice position
      <seq>/frames.u16le      raw row-major uint16 little-endian frame stack

``frames.u16le`` has no header; its length must equal
``frame_count * height * width * 2`` bytes exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import DatasetIOError, ValidationError

NAVIGATOR = "navigator"
DATA = "data"
FRAME_KINDS = (NAVIGATOR, DATA)


def check_positive(key: str, value) -> None:
    """The one rule of every length, spacing and period: each entry of ``value`` a finite number above 0."""
    if not all(0 < v < math.inf for v in (value if isinstance(value, (tuple, list)) else (value,))):  # NaN too
        raise ValidationError(f"{key} must be positive, got {value}")


@dataclass
class Frame:
    """One 2D slice image with its acquisition metadata."""

    pixels: np.ndarray  # uint16, shape (height, width), row-major
    kind: str
    timestamp_ms: float
    slice_position_mm: float

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValidationError(f"frame pixels must be 2D, got shape {self.pixels.shape}")
        if self.pixels.dtype != np.uint16:
            raise ValidationError(f"frame pixels must be uint16, got {self.pixels.dtype}")
        if self.kind not in FRAME_KINDS:
            raise ValidationError(f"unknown frame kind {self.kind!r}")
        for key in ("timestamp_ms", "slice_position_mm"):
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(f"frame {key} must be finite, got {getattr(self, key)}")


def _check_uniform_dims(frames: list[Frame], label: str) -> None:
    shapes = {f.pixels.shape for f in frames}
    if len(shapes) > 1:
        raise ValidationError(f"{label}: mixed frame dimensions {sorted(shapes)}")


def _slice_position(frames: list[Frame], label: str) -> float:
    """The one slice position all ``frames`` share."""
    positions = {f.slice_position_mm for f in frames}
    if len(positions) > 1:
        raise ValidationError(f"{label} at mixed slice positions {sorted(positions)}")
    return positions.pop()


def _check_increasing_timestamps(frames: list[Frame], label: str) -> None:
    ts = [f.timestamp_ms for f in frames]
    for i in range(1, len(ts)):
        if ts[i] <= ts[i - 1]:
            raise ValidationError(
                f"{label}: timestamps not strictly increasing at frame {i} "
                f"({ts[i - 1]} -> {ts[i]})"
            )


# how far, as a share of the frame period, a reference frame's timestamp may
# step from its predecessor's by other than the period: room for timestamps
# rounded to the millisecond at periods of 100 ms and more
_PERIOD_TOLERANCE = 0.01


@dataclass
class ReferenceSequence:
    """Navigator-only sequence acquired at a fixed anatomical position, one frame every ``frame_period_ms``."""

    frames: list[Frame]
    frame_period_ms: float

    def __post_init__(self) -> None:
        check_positive("frame_period_ms", self.frame_period_ms)
        if not self.frames:
            raise ValidationError("reference sequence has no frames")
        _check_uniform_dims(self.frames, "reference sequence")
        _check_increasing_timestamps(self.frames, "reference sequence")
        steps = np.diff([f.timestamp_ms for f in self.frames])
        off = np.flatnonzero(np.abs(steps - self.frame_period_ms) > _PERIOD_TOLERANCE * self.frame_period_ms)
        if off.size:
            i = int(off[0]) + 1
            raise ValidationError(
                f"reference sequence: frame {i} comes {steps[i - 1]} ms after frame {i - 1}, "
                f"not one frame period ({self.frame_period_ms} ms, within {_PERIOD_TOLERANCE:.0%})"
            )
        for i, f in enumerate(self.frames):
            if f.kind != NAVIGATOR:
                raise ValidationError(f"reference sequence: frame {i} is {f.kind!r}, expected navigator")
        _slice_position(self.frames, "reference sequence: frames")


@dataclass
class InterleavedSequence:
    """Alternating navigator/data frames, opening and closing with a navigator.

    Navigators sit at even ordinals, data frames at odd ordinals, so a valid
    sequence has odd length and every data frame is enclosed by two navigators.
    All data frames share one slice position, ``data_slice_position_mm``.
    """

    frames: list[Frame]
    data_slice_position_mm: float = field(init=False)

    def __post_init__(self) -> None:
        label = "interleaved sequence"
        if len(self.frames) < 3:
            raise ValidationError(f"{label}: needs at least nav/data/nav, got {len(self.frames)} frames")
        if len(self.frames) % 2 == 0:
            raise ValidationError(f"{label}: even frame count {len(self.frames)} cannot end with a navigator")
        _check_uniform_dims(self.frames, label)
        _check_increasing_timestamps(self.frames, label)
        for i, f in enumerate(self.frames):
            expected = NAVIGATOR if i % 2 == 0 else DATA
            if f.kind != expected:
                raise ValidationError(f"{label}: frame {i} is {f.kind!r}, expected {expected}")
        _slice_position(self.frames[0::2], f"{label}: navigator frames")
        self.data_slice_position_mm = _slice_position(self.frames[1::2], f"{label}: data frames")

    def navigators(self) -> list[Frame]:
        return self.frames[0::2]


@dataclass
class Dataset:
    """Two reference sequences plus the interleaved stack covering the volume."""

    reference_1: ReferenceSequence
    reference_2: ReferenceSequence
    interleaved: list[InterleavedSequence]
    in_plane_spacing_mm: tuple[float, float]  # (row, column)
    slice_gap_mm: float

    def __post_init__(self) -> None:
        check_positive("in_plane_spacing_mm", self.in_plane_spacing_mm)
        check_positive("slice_gap_mm", self.slice_gap_mm)
        if not self.interleaved:
            raise ValidationError("dataset has no interleaved sequences")
        periods = self.reference_1.frame_period_ms, self.reference_2.frame_period_ms
        if periods[0] != periods[1]:  # dataset.json stores one period
            raise ValidationError(f"dataset: references disagree on frame_period_ms {list(periods)}")
        shapes = {self.reference_1.frames[0].pixels.shape, self.reference_2.frames[0].pixels.shape}
        shapes |= {s.frames[0].pixels.shape for s in self.interleaved}
        if len(shapes) > 1:
            raise ValidationError(f"dataset: sequences disagree on frame dimensions {sorted(shapes)}")
        # every navigator images one anatomy: tracking compares their positions
        reference_mm = [r.frames[0].slice_position_mm for r in (self.reference_1, self.reference_2)]
        for s, seq in enumerate(self.interleaved):
            navigator_mm = seq.frames[0].slice_position_mm
            if any(mm != navigator_mm for mm in reference_mm):
                raise ValidationError(
                    f"dataset: interleaved sequence {s} has its navigators at {navigator_mm} mm, "
                    f"the references at {reference_mm} mm"
                )
        positions = [s.data_slice_position_mm for s in self.interleaved]
        if len(set(positions)) != len(positions):
            raise ValidationError(f"dataset: duplicate data slice positions {positions}")
        if len(positions) > 1:
            steps = np.diff(positions)
            if not np.allclose(steps, steps[0], atol=1e-9) or not np.isclose(
                abs(steps[0]), self.slice_gap_mm, atol=1e-9
            ):
                raise ValidationError(
                    f"dataset: data slice positions {positions} are not an arithmetic "
                    f"progression with step {self.slice_gap_mm} mm"
                )

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.reference_1.frames[0].pixels.shape

    def reference(self, choice: int) -> ReferenceSequence:
        if choice == 1:
            return self.reference_1
        if choice == 2:
            return self.reference_2
        raise ValueError(f"reference choice must be 1 or 2, got {choice!r}")


def quantize_u16(values: np.ndarray) -> np.ndarray:
    """Clamp to [0, 65535] and round half to even, returning uint16."""
    return np.rint(np.clip(values, 0.0, 65535.0)).astype(np.uint16)


# ---------------------------------------------------------------------------
# on-disk layout


def read_json(path: Path | str, parse):
    """Return ``parse`` of the JSON file at ``path``; every error names the file.

    An error ``parse`` raises keeps its class and gains the path as a prefix.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        # an integer too large for a double reads as infinity, which every number check refuses
        obj = json.loads(text, parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    except FileNotFoundError as exc:
        raise DatasetIOError(f"missing file: {path}") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValidationError(f"unparseable JSON in {path}: {exc}") from exc
    try:
        return parse(obj)
    except (ValidationError, DatasetIOError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_json(path: Path | str, obj) -> None:
    """Write ``obj`` in the one JSON layout of every output: sorted keys, indent 2, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# the scalar kinds, the JSON types each reads (``type(True)`` is ``bool``, never ``int``) and their wording
_SCALARS = {int: ({int}, "an integer"), float: ({int, float}, "a finite number"), str: ({str}, "a string")}


def _scalars_ok(kind, items) -> bool:
    """Whether every item is a JSON ``kind``; C-level maps check a list in one pass, with no call per item."""
    return set(map(type, items)) <= _SCALARS[kind][0] and (kind is not float or all(map(math.isfinite, items)))


@cache
def _schema(kind) -> dict:
    """JSON key -> (field name, type, required) of dataclass ``kind``; ``metadata["key"]`` renames a field."""
    hints = get_type_hints(kind)
    return {f.metadata.get("key", f.name): (f.name, hints[f.name], f.default is MISSING) for f in fields(kind)}


def to_obj(value):
    """The JSON form of ``value``: a dataclass is an object with one key per field, a tuple a list."""
    if is_dataclass(value):
        return {key: to_obj(getattr(value, name)) for key, (name, _, _) in _schema(type(value)).items()}
    if isinstance(value, tuple):
        return [to_obj(item) for item in value]
    return value


def from_obj(kind, obj, path: str = ""):
    """Build a ``kind`` from the JSON value ``obj``, the inverse of :func:`to_obj`.

    A dataclass reads an object that holds no key but its fields' keys; an
    omitted key keeps the field's default.  A tuple reads a list, and ``int``,
    ``float`` and ``str`` read the matching JSON scalar.  Every error is a
    ``ValidationError`` naming the key path in ``obj`` (``vessels[0].x``),
    relative to ``path``.
    """
    if is_dataclass(kind):
        if not isinstance(obj, dict):
            where = f"key {path!r} must be" if path else "expected"
            raise ValidationError(f"{where} an object, got {obj!r}")
        prefix = f"{path}." if path else ""
        schema = _schema(kind)
        unknown = sorted(obj.keys() - schema.keys())
        if unknown:
            raise ValidationError(f"unknown key {prefix + unknown[0]!r}")
        values = {}
        for key, (name, hint, required) in schema.items():
            if key in obj:
                values[name] = from_obj(hint, obj[key], prefix + key)
            elif required:
                raise ValidationError(f"missing key {prefix + key!r}")
        return kind(**values)
    if get_origin(kind) is tuple:
        args = get_args(kind)
        variadic = args[-1] is Ellipsis
        if not isinstance(obj, list) or not (variadic or len(obj) == len(args)):
            size = "" if variadic else f" of {len(args)}"
            raise ValidationError(f"key {path!r} must be a list{size}, got {obj!r}")
        # a list of scalars is checked in one pass; item paths are only built to name a bad item
        if variadic and args[0] in _SCALARS and _scalars_ok(args[0], obj):
            return tuple(map(args[0], obj))
        items = args[:1] * len(obj) if variadic else args
        return tuple(from_obj(a, item, f"{path}[{i}]") for i, (a, item) in enumerate(zip(items, obj)))
    if not _scalars_ok(kind, (obj,)):
        raise ValidationError(f"key {path!r} must be {_SCALARS[kind][1]}, got {obj!r}")
    return kind(obj)


@dataclass(frozen=True)
class _SequenceMeta:
    """``seq.json``: one entry per frame in each list, in the order of Frame's fields after pixels."""

    frame_count: int
    kinds: tuple[str, ...]
    timestamps_ms: tuple[float, ...]
    slice_positions_mm: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.frame_count < 0:
            raise ValidationError(f"frame_count must be non-negative, got {self.frame_count}")
        for key in ("kinds", "timestamps_ms", "slice_positions_mm"):
            if len(getattr(self, key)) != self.frame_count:
                raise ValidationError(f"{key} has {len(getattr(self, key))} entries, expected {self.frame_count}")


@dataclass(frozen=True)
class _DatasetMeta:
    """``dataset.json``: the geometry, and the sequence directories in acquisition order."""

    frame_shape: tuple[int, int]
    in_plane_spacing_mm: tuple[float, float]
    slice_gap_mm: float
    frame_period_ms: float
    sequences: tuple[str, ...]
    references: tuple[str, str]

    def __post_init__(self) -> None:
        for key in ("frame_shape", "in_plane_spacing_mm", "slice_gap_mm", "frame_period_ms"):
            check_positive(key, getattr(self, key))
        names, refs = self.sequences, self.references
        if refs[0] == refs[1]:
            raise ValidationError(f"references name {refs[0]!r} twice")
        # every name is joined to the root, so it must stay a plain entry of it
        for name in names:
            if name in ("", ".", "..") or Path(name).name != name or names.count(name) > 1:
                raise ValidationError(f"sequence {name!r} is not a plain, unique directory name")
        missing = [n for n in refs if n not in names]
        if missing:
            raise ValidationError(f"reference sequences {missing} not present in sequence list")


def _write_sequence(dirpath: Path, frames: list[Frame]) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    meta = _SequenceMeta(
        frame_count=len(frames),
        kinds=tuple(f.kind for f in frames),
        timestamps_ms=tuple(f.timestamp_ms for f in frames),
        slice_positions_mm=tuple(f.slice_position_mm for f in frames),
    )
    write_json(dirpath / "seq.json", to_obj(meta))
    stack = np.stack([f.pixels for f in frames]).astype("<u2")
    (dirpath / "frames.u16le").write_bytes(stack.tobytes())


def _read_sequence(dirpath: Path, frame_shape: tuple[int, int], make):
    """``make`` applied to the frames stored in ``dirpath``; every error names a file or ``dirpath``."""
    meta = read_json(dirpath / "seq.json", lambda obj: from_obj(_SequenceMeta, obj))
    stack_path = dirpath / "frames.u16le"
    if not stack_path.is_file():
        raise DatasetIOError(f"missing file: {stack_path}")
    raw = stack_path.read_bytes()
    count, (h, w) = meta.frame_count, frame_shape
    expected = count * h * w * 2
    if len(raw) != expected:
        raise DatasetIOError(
            f"truncated or oversized frame stack {stack_path}: {len(raw)} bytes, expected {expected}"
        )
    stack = np.frombuffer(raw, dtype="<u2").reshape(count, h, w)
    try:
        return make(list(map(Frame, stack, meta.kinds, meta.timestamps_ms, meta.slice_positions_mm)))
    except ValidationError as exc:
        raise ValidationError(f"{dirpath}: {exc}") from exc


def write_dataset(dataset: Dataset, root: Path | str) -> Path:
    """Serialize a dataset to ``root`` in the documented directory layout."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    named: list[tuple[str, list[Frame]]] = [("ref1", dataset.reference_1.frames)]
    named += [(f"il{s:03d}", seq.frames) for s, seq in enumerate(dataset.interleaved)]
    named.append(("ref2", dataset.reference_2.frames))
    # acquisition order = order of first exposure
    named.sort(key=lambda item: item[1][0].timestamp_ms)

    meta = _DatasetMeta(
        frame_shape=dataset.frame_shape,
        in_plane_spacing_mm=tuple(dataset.in_plane_spacing_mm),
        slice_gap_mm=dataset.slice_gap_mm,
        frame_period_ms=dataset.reference_1.frame_period_ms,
        sequences=tuple(name for name, _ in named),
        references=("ref1", "ref2"),
    )
    write_json(root / "dataset.json", to_obj(meta))
    for name, frames in named:
        _write_sequence(root / name, frames)
    return root


def load_dataset(root: Path | str) -> Dataset:
    """Load and validate a dataset directory; every error names its file or directory."""
    root = Path(root)
    meta = read_json(root / "dataset.json", lambda obj: from_obj(_DatasetMeta, obj))
    ref_names, shape, period = meta.references, meta.frame_shape, meta.frame_period_ms
    references: dict[str, ReferenceSequence] = {}
    interleaved: list[InterleavedSequence] = []
    for name in meta.sequences:
        if name in ref_names:
            references[name] = _read_sequence(root / name, shape, lambda frames: ReferenceSequence(frames, period))
        else:
            interleaved.append(_read_sequence(root / name, shape, InterleavedSequence))
    try:
        return Dataset(
            reference_1=references[ref_names[0]],
            reference_2=references[ref_names[1]],
            interleaved=interleaved,
            in_plane_spacing_mm=meta.in_plane_spacing_mm,
            slice_gap_mm=meta.slice_gap_mm,
        )
    except ValidationError as exc:
        raise ValidationError(f"{root}: {exc}") from exc
