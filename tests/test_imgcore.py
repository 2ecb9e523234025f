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


def _frame(kind, t, pos, value=100, shape=(8, 10)):
    px = np.full(shape, value, dtype=np.uint16)
    return Frame(pixels=px, kind=kind, timestamp_ms=t, slice_position_mm=pos)


def _tiny_interleaved(index=0, n_data=2, nav_mm=0.0, data_mm=10.0, t0=0.0):
    frames = []
    t = t0
    for i in range(2 * n_data + 1):
        if i % 2 == 0:
            frames.append(_frame(NAVIGATOR, t, nav_mm))
        else:
            frames.append(_frame(DATA, t, data_mm))
        t += 200.0
    return InterleavedSequence(frames=frames, data_slice_position_mm=data_mm, sequence_index=index)


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
        InterleavedSequence(frames=frames, data_slice_position_mm=10.0, sequence_index=0)


def test_interleaved_must_end_with_navigator():
    frames = [
        _frame(NAVIGATOR, 0.0, 0.0),
        _frame(DATA, 200.0, 10.0),
        _frame(NAVIGATOR, 400.0, 0.0),
        _frame(DATA, 600.0, 10.0),
    ]
    with pytest.raises(ValidationError, match="even frame count"):
        InterleavedSequence(frames=frames, data_slice_position_mm=10.0, sequence_index=0)


def test_timestamps_must_increase():
    frames = [
        _frame(NAVIGATOR, 0.0, 0.0),
        _frame(DATA, 0.0, 10.0),
        _frame(NAVIGATOR, 400.0, 0.0),
    ]
    with pytest.raises(ValidationError):
        InterleavedSequence(frames=frames, data_slice_position_mm=10.0, sequence_index=0)


def test_dataset_rejects_duplicate_slice_positions():
    ref = ReferenceSequence(frames=[_frame(NAVIGATOR, 0.0, 0.0)], frame_period_ms=200.0)
    ref2 = ReferenceSequence(frames=[_frame(NAVIGATOR, 5000.0, 0.0)], frame_period_ms=200.0)
    seqs = [_tiny_interleaved(0, data_mm=10.0, t0=1000.0), _tiny_interleaved(1, data_mm=10.0, t0=3000.0)]
    with pytest.raises(ValidationError, match="duplicate data slice positions"):
        Dataset(ref, ref2, seqs, in_plane_spacing_mm=(1.82, 1.82), slice_gap_mm=4.0)


def test_dataset_rejects_uneven_slice_progression():
    ref = ReferenceSequence(frames=[_frame(NAVIGATOR, 0.0, 0.0)], frame_period_ms=200.0)
    ref2 = ReferenceSequence(frames=[_frame(NAVIGATOR, 9000.0, 0.0)], frame_period_ms=200.0)
    seqs = [
        _tiny_interleaved(0, data_mm=10.0, t0=1000.0),
        _tiny_interleaved(1, data_mm=14.0, t0=3000.0),
        _tiny_interleaved(2, data_mm=21.0, t0=5000.0),  # step 7, not 4
    ]
    with pytest.raises(ValidationError, match="arithmetic"):
        Dataset(ref, ref2, seqs, in_plane_spacing_mm=(1.82, 1.82), slice_gap_mm=4.0)


def test_navigator_and_data_views():
    seq = _tiny_interleaved(n_data=3)
    assert [f.kind for f in seq.navigators()] == [NAVIGATOR] * 4
    assert [f.kind for f in seq.data_frames()] == [DATA] * 3


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
