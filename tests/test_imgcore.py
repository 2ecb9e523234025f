import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resp4d.errors import DatasetIOError, ValidationError
from resp4d.imgcore import (
    DATA,
    NAVIGATOR,
    Dataset,
    Frame,
    InterleavedSequence,
    ReferenceSequence,
    load_dataset,
    quantize_u16,
    write_dataset,
)
from resp4d.phantom import generate_phantom

from conftest import replay_spec


def _frame(kind, t, pos, value=100, shape=(8, 10)):
    px = np.full(shape, value, dtype=np.uint16)
    return Frame(pixels=px, kind=kind, timestamp_ms=t, slice_position_mm=pos)


def _tiny_interleaved(n_data=2, nav_mm=0.0, data_mm=10.0, t0=0.0):
    frames = []
    t = t0
    for i in range(2 * n_data + 1):
        if i % 2 == 0:
            frames.append(_frame(NAVIGATOR, t, nav_mm))
        else:
            frames.append(_frame(DATA, t, data_mm))
        t += 200.0
    return InterleavedSequence(frames=frames)


# --- quantization -----------------------------------------------------------


def test_quantize_rounds_half_to_even():
    out = quantize_u16(np.array([0.5, 1.5, 2.5, 3.49999]))
    assert out.dtype == np.uint16
    assert out.tolist() == [0, 2, 2, 3]


def test_quantize_clamps_range():
    out = quantize_u16(np.array([-17.0, 0.0, 65535.0, 70000.0]))
    assert out.tolist() == [0, 0, 65535, 65535]


# --- structural validation --------------------------------------------------


def test_interleaved_must_alternate():
    frames = [
        _frame(NAVIGATOR, 0.0, 0.0),
        _frame(NAVIGATOR, 200.0, 0.0),  # should be a data frame
        _frame(NAVIGATOR, 400.0, 0.0),
    ]
    with pytest.raises(ValidationError, match=r"frame 1 is 'navigator', expected data"):
        InterleavedSequence(frames=frames)


def test_interleaved_must_end_with_navigator():
    frames = [
        _frame(NAVIGATOR, 0.0, 0.0),
        _frame(DATA, 200.0, 10.0),
        _frame(NAVIGATOR, 400.0, 0.0),
        _frame(DATA, 600.0, 10.0),
    ]
    with pytest.raises(ValidationError, match="even frame count"):
        InterleavedSequence(frames=frames)


def test_timestamps_must_increase():
    frames = [
        _frame(NAVIGATOR, 0.0, 0.0),
        _frame(DATA, 0.0, 10.0),
        _frame(NAVIGATOR, 400.0, 0.0),
    ]
    with pytest.raises(ValidationError):
        InterleavedSequence(frames=frames)


def test_dataset_rejects_duplicate_slice_positions():
    ref = ReferenceSequence(frames=[_frame(NAVIGATOR, 0.0, 0.0)], frame_period_ms=200.0)
    ref2 = ReferenceSequence(frames=[_frame(NAVIGATOR, 5000.0, 0.0)], frame_period_ms=200.0)
    seqs = [_tiny_interleaved(data_mm=10.0, t0=1000.0), _tiny_interleaved(data_mm=10.0, t0=3000.0)]
    with pytest.raises(ValidationError, match="duplicate data slice positions"):
        Dataset(ref, ref2, seqs, in_plane_spacing_mm=(1.82, 1.82), slice_gap_mm=4.0)


def test_dataset_rejects_uneven_slice_progression():
    ref = ReferenceSequence(frames=[_frame(NAVIGATOR, 0.0, 0.0)], frame_period_ms=200.0)
    ref2 = ReferenceSequence(frames=[_frame(NAVIGATOR, 9000.0, 0.0)], frame_period_ms=200.0)
    seqs = [
        _tiny_interleaved(data_mm=10.0, t0=1000.0),
        _tiny_interleaved(data_mm=14.0, t0=3000.0),
        _tiny_interleaved(data_mm=21.0, t0=5000.0),  # step 7, not 4
    ]
    with pytest.raises(ValidationError, match="arithmetic"):
        Dataset(ref, ref2, seqs, in_plane_spacing_mm=(1.82, 1.82), slice_gap_mm=4.0)


@pytest.fixture(scope="module")
def small():
    """A one-sequence phantom, so a gap of any sign forms a valid progression."""
    dataset, _ = generate_phantom(replay_spec(sequences=1, reference_frames=5, data_frames_per_sequence=2), seed=0)
    return dataset


def test_dataset_refuses_navigators_off_the_reference_slice(small):
    # sequence 0's navigators image other anatomy than the references' navigators
    seq = small.interleaved[0]
    moved = [replace(f, slice_position_mm=50.0) if f.kind == NAVIGATOR else f for f in seq.frames]
    with pytest.raises(ValidationError) as exc:
        replace(small, interleaved=[InterleavedSequence(frames=moved)])
    assert str(exc.value) == (
        "dataset: interleaved sequence 0 has its navigators at 50.0 mm, the references at [0.0, 0.0] mm"
    )


@pytest.mark.parametrize(
    "field, value",
    [("slice_gap_mm", -4.0), ("slice_gap_mm", 0.0), ("slice_gap_mm", math.nan), ("in_plane_spacing_mm", (-1.0, 1.0))],
    ids=["gap-negative", "gap-zero", "gap-nan", "spacing-negative"],
)
def test_dataset_owns_its_geometry_rules(small, field, value):
    with pytest.raises(ValidationError) as exc:
        replace(small, **{field: value})
    assert str(exc.value) == f"{field} must be positive, got {value}"


def test_reference_sequence_needs_a_positive_frame_period(small):
    with pytest.raises(ValidationError) as exc:
        replace(small.reference_1, frame_period_ms=-200.0)
    assert str(exc.value) == "frame_period_ms must be positive, got -200.0"


@pytest.mark.parametrize(
    "kind, key, value",
    [
        (NAVIGATOR, "timestamp_ms", math.nan),
        (DATA, "slice_position_mm", math.inf),
        (NAVIGATOR, "slice_position_mm", math.nan),
        (DATA, "timestamp_ms", -math.inf),
    ],
    ids=["timestamp-nan", "data-position-inf", "navigator-position-nan", "timestamp-minus-inf"],
)
def test_frame_metadata_must_be_finite(kind, key, value):
    # a NaN compares False both ways, so sequences could not catch it later
    meta = {"timestamp_ms": 200.0, "slice_position_mm": 0.0, key: value}
    with pytest.raises(ValidationError) as exc:
        Frame(pixels=np.zeros((8, 8), dtype=np.uint16), kind=kind, **meta)
    assert str(exc.value) == f"frame {key} must be finite, got {value}"


def _retimed(ref, period):
    """``ref`` with its frames stamped one ``period`` apart from its first."""
    t0 = ref.frames[0].timestamp_ms
    return ReferenceSequence([replace(f, timestamp_ms=t0 + i * period) for i, f in enumerate(ref.frames)], period)


def test_references_share_one_frame_period(small, tmp_path):
    # dataset.json stores one period, so two that differ could not survive a round trip
    ref1 = _retimed(small.reference_1, 1e6)
    ref2 = _retimed(small.reference_2, 300.0)
    with pytest.raises(ValidationError) as exc:
        replace(small, reference_1=ref1, reference_2=ref2)
    assert str(exc.value) == "dataset: references disagree on frame_period_ms [1000000.0, 300.0]"
    same = replace(small, reference_1=_retimed(ref1, 300.0), reference_2=ref2)
    loaded = load_dataset(write_dataset(same, tmp_path / "ds"))
    assert loaded.reference_1.frame_period_ms == loaded.reference_2.frame_period_ms == 300.0


def test_navigator_and_data_views():
    seq = _tiny_interleaved(n_data=3)
    assert [f.kind for f in seq.navigators()] == [NAVIGATOR] * 4
    assert [f.kind for f in seq.frames[1::2]] == [DATA] * 3


# --- on-disk round trip -----------------------------------------------------


def test_dataset_round_trip(replay, tmp_path):
    _, dataset, _, _ = replay
    root = write_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(root)

    assert len(loaded.interleaved) == len(dataset.interleaved)
    assert loaded.slice_gap_mm == dataset.slice_gap_mm
    assert loaded.in_plane_spacing_mm == dataset.in_plane_spacing_mm
    for a, b in zip(loaded.reference_1.frames, dataset.reference_1.frames):
        assert np.array_equal(a.pixels, b.pixels)
        assert a.timestamp_ms == b.timestamp_ms
    for sa, sb in zip(loaded.interleaved, dataset.interleaved):
        assert sa.data_slice_position_mm == sb.data_slice_position_mm
        assert [f.kind for f in sa.frames] == [f.kind for f in sb.frames]
        for a, b in zip(sa.frames, sb.frames):
            assert np.array_equal(a.pixels, b.pixels)


def test_write_is_deterministic(replay, tmp_path):
    _, dataset, _, _ = replay
    a = write_dataset(dataset, tmp_path / "a")
    b = write_dataset(dataset, tmp_path / "b")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_load_missing_file_names_path(replay, tmp_path):
    _, dataset, _, _ = replay
    root = write_dataset(dataset, tmp_path / "ds")
    victim = root / "il000" / "frames.u16le"
    victim.unlink()
    with pytest.raises(DatasetIOError, match="missing file") as err:
        load_dataset(root)
    assert "il000" in str(err.value)


def test_load_truncated_stack_names_file_and_sizes(replay, tmp_path):
    _, dataset, _, _ = replay
    root = write_dataset(dataset, tmp_path / "ds")
    victim = root / "il001" / "frames.u16le"
    blob = victim.read_bytes()
    victim.write_bytes(blob[:-2])
    with pytest.raises(DatasetIOError, match="truncated or oversized") as err:
        load_dataset(root)
    msg = str(err.value)
    assert "il001" in msg
    assert str(len(blob)) in msg  # expected byte count is reported


def test_reference_selector(replay):
    _, dataset, _, _ = replay
    assert dataset.reference(1) is dataset.reference_1
    assert dataset.reference(2) is dataset.reference_2
    with pytest.raises(ValueError):
        dataset.reference(3)


# --- one JSON idiom -----------------------------------------------------------


def _references(tree):
    """Every name, attribute and imported name in ``tree``, attributes also as ``owner.attr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name
                yield f"{node.module}.{alias.name}"


def test_only_imgcore_reads_and_writes_json():
    # every JSON input goes through imgcore's one walker; a fourth idiom elsewhere fails here
    idioms = {"json.loads", "json.dumps", "json.load", "json.dump", "get_type_hints", "is_dataclass"}
    src = Path(__file__).resolve().parents[1] / "src" / "resp4d"
    users = {}
    for path in sorted(src.glob("*.py")):
        found = idioms & set(_references(ast.parse(path.read_text(), str(path))))
        if found:
            users[path.name] = found
    assert users == {"imgcore.py": {"json.loads", "json.dumps", "get_type_hints", "is_dataclass"}}


def test_reference_frames_step_by_the_frame_period(small):
    # the phantom stamps its reference frames exactly one period apart
    frames = small.reference_1.frames
    assert np.diff([f.timestamp_ms for f in frames]).tolist() == [200.0] * (len(frames) - 1)
    # a step off the period by the tolerance or less passes, a larger one is refused
    late = [replace(f, timestamp_ms=f.timestamp_ms + (2.0 if i >= 3 else 0.0)) for i, f in enumerate(frames)]
    ReferenceSequence(late, 200.0)
    later = [replace(f, timestamp_ms=f.timestamp_ms + (2.5 if i >= 3 else 0.0)) for i, f in enumerate(frames)]
    with pytest.raises(ValidationError) as exc:
        ReferenceSequence(later, 200.0)
    assert str(exc.value) == (
        "reference sequence: frame 3 comes 202.5 ms after frame 2, not one frame period (200.0 ms, within 1%)"
    )
    with pytest.raises(ValidationError, match="frame 1 comes 200.0 ms after frame 0, not one frame period .100.0 ms"):
        replace(small.reference_1, frame_period_ms=100.0)
