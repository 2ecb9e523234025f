"""Sweep grid layout and the timing comparison harness."""

import csv
import itertools

import pytest

from resp4d import evalharness
from resp4d.errors import ValidationError
from resp4d.evalharness import (
    DEFAULT_MEASURES,
    DEFAULT_METHODS,
    DEFAULT_REFERENCES,
    DEFAULT_THRESHOLDS,
    compare_timing,
    sweep,
    write_rates_csv,
    write_timing_csv,
)
from resp4d.phantom import VesselSpec, generate_phantom, suggested_rois
from resp4d.reconstructor import ReconstructionConfig, reconstruct

from conftest import replay_spec


@pytest.fixture(scope="module")
def tiny():
    spec = replay_spec(
        frame_height=48,
        frame_width=56,
        vessels=(VesselSpec(x=28.0, y=24.0, radius_px=2.5, peak_intensity=1200.0),),
        reference_frames=8,
        sequences=1,
        data_frames_per_sequence=5,
    )
    dataset, truth = generate_phantom(spec, seed=1)
    return dataset, suggested_rois(spec, truth)


def test_sweep_covers_the_full_grid_in_order(tiny):
    dataset, rois = tiny
    cells = sweep(dataset, rois)
    expected = list(
        itertools.product(DEFAULT_REFERENCES, DEFAULT_METHODS, DEFAULT_MEASURES, DEFAULT_THRESHOLDS)
    )
    assert [(c.reference, c.method, c.measure, c.threshold_px) for c in cells] == expected
    for cell in cells:
        assert 0.0 <= cell.rate <= 100.0
        assert cell.matches >= 0
        assert cell.widened >= 0


def test_sweep_rates_are_monotone_in_threshold(tiny):
    # same totals, larger acceptance band: accepted sets can only grow
    dataset, rois = tiny
    cells = sweep(dataset, rois)
    by_group = {}
    for c in cells:
        by_group.setdefault((c.reference, c.method, c.measure), []).append(c)
    for group in by_group.values():
        group.sort(key=lambda c: c.threshold_px)
        rates = [c.rate for c in group]
        matches = [c.matches for c in group]
        assert rates == sorted(rates)
        assert matches == sorted(matches)


def test_single_cell_sweep_equals_direct_reconstruction(tiny):
    # every cell of the default grid, though the sweep shares one set of
    # displacement tables between the thresholds of a group
    dataset, rois = tiny
    cells = sweep(dataset, rois)
    assert len(cells) == 24
    for cell in cells:
        config = ReconstructionConfig(
            reference=cell.reference, method=cell.method, measure=cell.measure, threshold_px=cell.threshold_px
        )
        _, report = reconstruct(dataset, rois, config)
        assert cell.rate == report.reconstruction_rate
        assert cell.matches == sum(report.per_sequence_matches.values())
        assert cell.widened == report.widened_count


def test_rates_csv_is_deterministic(tiny, tmp_path):
    dataset, rois = tiny
    for run in ("a", "b"):
        write_rates_csv(sweep(dataset, rois), tmp_path / f"{run}.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_rejects_a_non_finite_threshold_before_tracking(tiny, monkeypatch):
    dataset, rois = tiny
    monkeypatch.setattr(evalharness, "displacement_tables", None)  # any call would fail
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValidationError, match="threshold"):
            sweep(dataset, rois, thresholds=(1.0, bad))


def test_rates_csv_round_trip(tiny, tmp_path):
    dataset, rois = tiny
    cells = sweep(dataset, rois, thresholds=(0.5, 2.0))
    path = tmp_path / "rates.csv"
    write_rates_csv(cells, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cells)
    assert rows[0].keys() == {
        "reference",
        "method",
        "measure",
        "threshold_px",
        "rate_percent",
        "matches",
        "widened",
    }
    for row, cell in zip(rows, cells):
        assert int(row["reference"]) == cell.reference
        assert row["method"] == cell.method
        assert row["measure"] == cell.measure
        assert float(row["threshold_px"]) == cell.threshold_px
        assert float(row["rate_percent"]) == pytest.approx(cell.rate, abs=1e-4)
        assert int(row["matches"]) == cell.matches


def test_timing_with_frame_covering_radius_changes_nothing(tiny):
    # a search radius larger than the frame makes the region search degenerate
    # to the full-frame search, so decisions agree and the speedup is ~1
    dataset, rois = tiny
    comparison = compare_timing(
        dataset, rois, ReconstructionConfig(search_radius=100), runs=3
    )
    assert comparison.decisions_identical
    assert comparison.widened_region == 0
    assert 0.4 <= comparison.speedup <= 2.5
    assert len(comparison.full_runs) == 3
    assert len(comparison.region_runs) == 3
    assert comparison.full_seconds > 0 and comparison.region_seconds > 0


def test_timing_csv_layout(tiny, tmp_path):
    dataset, rois = tiny
    comparison = compare_timing(dataset, rois, runs=2)
    path = tmp_path / "timing.csv"
    write_timing_csv(comparison, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"variant", "run", "seconds", "median_seconds", "speedup"}
    assert [r["variant"] for r in rows] == ["full_frame", "full_frame", "region", "region"]
    assert [int(r["run"]) for r in rows] == [0, 1, 0, 1]
    for row in rows:
        assert float(row["speedup"]) == pytest.approx(comparison.speedup, abs=1e-3)
