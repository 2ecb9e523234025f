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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetIOError, ValidationError

NAVIGATOR = "navigator"
DATA = "data"
FRAME_KINDS = (NAVIGATOR, DATA)


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


def _check_uniform_dims(frames: list[Frame], label: str) -> None:
    shapes = {f.pixels.shape for f in frames}
    if len(shapes) > 1:
        raise ValidationError(f"{label}: mixed frame dimensions {sorted(shapes)}")


def _check_increasing_timestamps(frames: list[Frame], label: str) -> None:
    ts = [f.timestamp_ms for f in frames]
    for i in range(1, len(ts)):
        if ts[i] <= ts[i - 1]:
            raise ValidationError(
                f"{label}: timestamps not strictly increasing at frame {i} "
                f"({ts[i - 1]} -> {ts[i]})"
            )


@dataclass
class ReferenceSequence:
    """Navigator-only sequence acquired at a fixed anatomical position."""

    frames: list[Frame]
    frame_period_ms: float

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValidationError("reference sequence has no frames")
        _check_uniform_dims(self.frames, "reference sequence")
        _check_increasing_timestamps(self.frames, "reference sequence")
        for i, f in enumerate(self.frames):
            if f.kind != NAVIGATOR:
                raise ValidationError(f"reference sequence: frame {i} is {f.kind!r}, expected navigator")
        positions = {f.slice_position_mm for f in self.frames}
        if len(positions) > 1:
            raise ValidationError(f"reference sequence: mixed slice positions {sorted(positions)}")


@dataclass
class InterleavedSequence:
    """Alternating navigator/data frames, opening and closing with a navigator.

    Navigators sit at even ordinals, data frames at odd ordinals, so a valid
    sequence has odd length and every data frame is enclosed by two navigators.
    """

    frames: list[Frame]
    data_slice_position_mm: float
    sequence_index: int

    def __post_init__(self) -> None:
        label = f"interleaved sequence {self.sequence_index}"
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
        nav_positions = {f.slice_position_mm for f in self.frames[0::2]}
        if len(nav_positions) > 1:
            raise ValidationError(f"{label}: navigator frames at mixed slice positions {sorted(nav_positions)}")
        for i, f in enumerate(self.frames):
            if f.kind == DATA and f.slice_position_mm != self.data_slice_position_mm:
                raise ValidationError(
                    f"{label}: data frame {i} at {f.slice_position_mm} mm, "
                    f"expected {self.data_slice_position_mm} mm"
                )

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
        if not self.interleaved:
            raise ValidationError("dataset has no interleaved sequences")
        shapes = {self.reference_1.frames[0].pixels.shape, self.reference_2.frames[0].pixels.shape}
        shapes |= {s.frames[0].pixels.shape for s in self.interleaved}
        if len(shapes) > 1:
            raise ValidationError(f"dataset: sequences disagree on frame dimensions {sorted(shapes)}")
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


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_text(value) -> bool:
    return isinstance(value, str)


def _list_of(check, length: int | None = None):
    def is_list(value) -> bool:
        return isinstance(value, list) and length in (None, len(value)) and all(map(check, value))

    return is_list


_SEQUENCE_KEYS = {
    "frame_count": (_is_count, "a non-negative integer"),
    "kinds": (_list_of(_is_text), "a list of strings"),
    "timestamps_ms": (_list_of(_is_number), "a list of finite numbers"),
    "slice_positions_mm": (_list_of(_is_number), "a list of finite numbers"),
}
_DATASET_KEYS = {
    "frame_shape": (_list_of(lambda v: _is_count(v) and v > 0, 2), "two positive integers"),
    "in_plane_spacing_mm": (_list_of(lambda v: _is_number(v) and v > 0, 2), "two positive numbers"),
    "slice_gap_mm": (_is_number, "a finite number"),
    "frame_period_ms": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "sequences": (_list_of(_is_text), "a list of strings"),
    "references": (_list_of(_is_text), "a list of strings"),
}


def _load_meta(path: Path, schema: dict) -> dict:
    """Parse a metadata file and check every key of ``schema`` is present and well typed."""
    if not path.is_file():
        raise DatasetIOError(f"missing file: {path}")
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON, or bytes that are not text
        raise DatasetIOError(f"unparseable JSON in {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise DatasetIOError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    for key, (check, expected) in schema.items():
        if key not in meta:
            raise DatasetIOError(f"{path}: missing key {key!r}")
        if not check(meta[key]):
            raise DatasetIOError(f"{path}: key {key!r} must be {expected}, got {meta[key]!r}")
    return meta


def _write_sequence(dirpath: Path, frames: list[Frame]) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    meta = {
        "frame_count": len(frames),
        "kinds": [f.kind for f in frames],
        "timestamps_ms": [f.timestamp_ms for f in frames],
        "slice_positions_mm": [f.slice_position_mm for f in frames],
    }
    _dump_json(dirpath / "seq.json", meta)
    stack = np.stack([f.pixels for f in frames]).astype("<u2")
    (dirpath / "frames.u16le").write_bytes(stack.tobytes())


def _read_sequence(dirpath: Path, frame_shape: tuple[int, int]) -> list[Frame]:
    meta = _load_meta(dirpath / "seq.json", _SEQUENCE_KEYS)
    count = meta["frame_count"]
    for key in ("kinds", "timestamps_ms", "slice_positions_mm"):
        if len(meta[key]) != count:
            raise ValidationError(f"{dirpath / 'seq.json'}: {key} has {len(meta[key])} entries, expected {count}")
    stack_path = dirpath / "frames.u16le"
    if not stack_path.is_file():
        raise DatasetIOError(f"missing file: {stack_path}")
    raw = stack_path.read_bytes()
    h, w = frame_shape
    expected = count * h * w * 2
    if len(raw) != expected:
        raise DatasetIOError(
            f"truncated or oversized frame stack {stack_path}: {len(raw)} bytes, expected {expected}"
        )
    stack = np.frombuffer(raw, dtype="<u2").reshape(count, h, w)
    return [
        Frame(
            pixels=np.ascontiguousarray(stack[i]),
            kind=meta["kinds"][i],
            timestamp_ms=meta["timestamps_ms"][i],
            slice_position_mm=meta["slice_positions_mm"][i],
        )
        for i in range(count)
    ]


def write_dataset(dataset: Dataset, root: Path | str) -> Path:
    """Serialize a dataset to ``root`` in the documented directory layout."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    named: list[tuple[str, list[Frame]]] = [("ref1", dataset.reference_1.frames)]
    for seq in dataset.interleaved:
        named.append((f"il{seq.sequence_index:03d}", seq.frames))
    named.append(("ref2", dataset.reference_2.frames))
    # acquisition order = order of first exposure
    named.sort(key=lambda item: item[1][0].timestamp_ms)

    h, w = dataset.frame_shape
    meta = {
        "frame_shape": [h, w],
        "in_plane_spacing_mm": list(dataset.in_plane_spacing_mm),
        "slice_gap_mm": dataset.slice_gap_mm,
        "frame_period_ms": dataset.reference_1.frame_period_ms,
        "sequences": [name for name, _ in named],
        "references": ["ref1", "ref2"],
    }
    _dump_json(root / "dataset.json", meta)
    for name, frames in named:
        _write_sequence(root / name, frames)
    return root


def load_dataset(root: Path | str) -> Dataset:
    """Load and validate a dataset directory written by :func:`write_dataset`."""
    root = Path(root)
    meta = _load_meta(root / "dataset.json", _DATASET_KEYS)
    frame_shape = tuple(meta["frame_shape"])
    ref_names = meta["references"]
    if len(ref_names) != 2:
        raise ValidationError(f"dataset.json must name exactly 2 references, got {ref_names}")
    if ref_names[0] == ref_names[1]:
        raise DatasetIOError(f"{root / 'dataset.json'}: references name {ref_names[0]!r} twice")
    period = meta["frame_period_ms"]
    # every name is joined to the root, so it must stay a plain entry of it
    for name in meta["sequences"]:
        if name in ("", ".", "..") or Path(name).name != name or meta["sequences"].count(name) > 1:
            raise DatasetIOError(f"{root / 'dataset.json'}: sequence {name!r} is not a plain, unique directory name")

    references: dict[str, ReferenceSequence] = {}
    interleaved: list[InterleavedSequence] = []
    for name in meta["sequences"]:
        frames = _read_sequence(root / name, frame_shape)
        if name in ref_names:
            references[name] = ReferenceSequence(frames=frames, frame_period_ms=period)
        else:
            data_positions = {f.slice_position_mm for f in frames if f.kind == DATA}
            if len(data_positions) != 1:
                raise ValidationError(f"sequence {name}: expected one data slice position, got {sorted(data_positions)}")
            interleaved.append(
                InterleavedSequence(
                    frames=frames,
                    data_slice_position_mm=data_positions.pop(),
                    sequence_index=len(interleaved),
                )
            )
    missing = [n for n in ref_names if n not in references]
    if missing:
        raise ValidationError(f"reference sequences {missing} not present in sequence list")

    return Dataset(
        reference_1=references[ref_names[0]],
        reference_2=references[ref_names[1]],
        interleaved=interleaved,
        in_plane_spacing_mm=tuple(meta["in_plane_spacing_mm"]),
        slice_gap_mm=meta["slice_gap_mm"],
    )
