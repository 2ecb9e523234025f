"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
verdict lines.  Every expected number here is either exact by construction
or brute-forced from phantom ground truth, never taken from the pipeline
under test.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from resp4d.cli import main as cli_main
from resp4d.imgcore import NAVIGATOR, Frame, ReferenceSequence
from resp4d.matcher import (
    CCOEFF_NORMED,
    CCORR_NORMED,
    cut_template,
    match_template,
    response_map,
)
from resp4d.phantom import (
    BreathingSignal,
    PhantomSpec,
    SignalComponent,
    VesselSpec,
    generate_phantom,
    oracle_matches,
    render_frame,
    save_spec,
    suggested_rois,
)
from resp4d.reconstructor import ReconstructionConfig, average_bin, reconstruct
from resp4d.evalharness import compare_timing
from resp4d.tracker import UPDATING, Roi, track_reference

from conftest import replay_spec


def _note(capsys, text):
    with capsys.disabled():
        print(f"\n    [{text}]", end="")


# --- 1. similarity correctness ----------------------------------------------


def test_c1_similarity_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)

    # exact self-match
    image = rng.uniform(50.0, 1500.0, size=(48, 56))
    tpl = cut_template(image, 7, 9, 17, 17)
    res = match_template(image, tpl, CCOEFF_NORMED)
    assert res.position == (7.0, 9.0)
    assert abs(res.score - 1.0) <= 1e-9

    # cut-patch argmax recovery, 100 random integer placements per measure
    big = rng.uniform(0.0, 2000.0, size=(64, 72))
    for measure in (CCOEFF_NORMED, CCORR_NORMED):
        for _ in range(100):
            x = int(rng.integers(0, 72 - 11 + 1))
            y = int(rng.integers(0, 64 - 9 + 1))
            patch = cut_template(big, x, y, 11, 9)
            found = match_template(big, patch, measure)
            assert found.position == (float(x), float(y))

    # affine intensity invariance of the zero-mean measure
    base = rng.uniform(100.0, 900.0, size=(40, 50))
    probe = cut_template(base, 12, 8, 13, 13)
    reference_response = response_map(base, probe, CCOEFF_NORMED)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(-200.0, 200.0)
        transformed = response_map(a * base + b, probe, CCOEFF_NORMED)
        worst = max(worst, float(np.max(np.abs(transformed - reference_response))))
    assert worst <= 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _note(capsys, f"c1: 200 exact recoveries, affine drift {worst:.2e}, {elapsed:.1f}s")


# --- 2. subpixel accuracy ----------------------------------------------------


def test_c2_subpixel_accuracy(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    errors = []
    for _ in range(100):
        dx, dy = rng.uniform(-0.5, 0.5, size=2)
        sigma = rng.uniform(1.8, 3.2)
        base = render_frame((48, 48), [(24.0, 24.0, sigma, sigma, 1000.0)], background=80.0)
        moved = render_frame((48, 48), [(24.0 + dx, 24.0 + dy, sigma, sigma, 1000.0)], background=80.0)
        tpl = cut_template(base, 17, 17, 15, 15)
        res = match_template(moved, tpl, CCOEFF_NORMED, min_score=0.2)
        errors.append(math.hypot(res.position[0] - (17.0 + dx), res.position[1] - (17.0 + dy)))
    assert max(errors) <= 0.25
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _note(capsys, f"c2: 100 shifts, max error {max(errors):.4f} px, {elapsed:.1f}s")


# --- 3. zero drift -----------------------------------------------------------


def test_c3_zero_drift_over_identical_frames(capsys):
    t0 = time.perf_counter()
    pixels = render_frame((48, 48), [(24.0, 24.0, 2.0, 2.0, 900.0)], background=50.0)
    frames = [
        Frame(pixels=pixels, kind=NAVIGATOR, timestamp_ms=200.0 * i, slice_position_mm=0.0)
        for i in range(500)
    ]
    ref = ReferenceSequence(frames=frames, frame_period_ms=200.0)
    roi = [Roi(label="v0", x=18, y=18, width=13, height=13)]
    trace, _ = track_reference(ref, roi, mode=UPDATING)
    drift = math.hypot(
        trace.positions[-1, 0, 0] - trace.positions[0, 0, 0],
        trace.positions[-1, 0, 1] - trace.positions[0, 0, 1],
    )
    assert drift == 0.0
    assert np.all(trace.positions == trace.positions[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _note(capsys, f"c3: 500 frames, accumulated drift {drift} px, {elapsed:.1f}s")


# --- 4 & 5. method ordering and threshold monotonicity -----------------------


def _by_cell(cells):
    return {(c.reference, c.method, c.measure, c.threshold_px): c.rate for c in cells}


def test_c4_updating_beats_fixed_at_every_cell(modulated_sweep, capsys):
    cells, elapsed = modulated_sweep
    rates = _by_cell(cells)
    margins = []
    for reference in (1, 2):
        for measure in (CCORR_NORMED, CCOEFF_NORMED):
            for threshold in (0.5, 1.0, 2.0):
                upd = rates[(reference, "updating", measure, threshold)]
                fix = rates[(reference, "baseline", measure, threshold)]
                assert upd > fix, (
                    f"updating {upd:.2f}% not above fixed {fix:.2f}% at "
                    f"ref{reference}/{measure}/t={threshold}"
                )
                margins.append(upd - fix)
            gain_wide = (
                rates[(reference, "updating", measure, 2.0)]
                - rates[(reference, "baseline", measure, 2.0)]
            )
            gain_tight = (
                rates[(reference, "updating", measure, 0.5)]
                - rates[(reference, "baseline", measure, 0.5)]
            )
            assert gain_wide >= gain_tight
    assert elapsed < 300.0
    _note(capsys, f"c4: 12 cells, margin {min(margins):.1f}..{max(margins):.1f} pp, sweep {elapsed:.0f}s")


def test_c5_rates_monotone_in_threshold(modulated_sweep, capsys):
    cells, elapsed = modulated_sweep
    rates = _by_cell(cells)
    for reference in (1, 2):
        for method in ("baseline", "updating"):
            for measure in (CCORR_NORMED, CCOEFF_NORMED):
                series = [rates[(reference, method, measure, t)] for t in (0.5, 1.0, 2.0)]
                assert series == sorted(series), (
                    f"rates not monotone at ref{reference}/{method}/{measure}: {series}"
                )
    assert elapsed < 300.0
    _note(capsys, "c5: 8 cells monotone over thresholds 0.5/1/2")


# --- 6. oracle equivalence ---------------------------------------------------


def test_c6_decisions_match_truth_oracle(capsys):
    t0 = time.perf_counter()
    spec = PhantomSpec(
        frame_height=64,
        frame_width=80,
        vessels=(
            VesselSpec(x=24.0, y=20.0, radius_px=2.5, peak_intensity=1200.0),
            VesselSpec(x=56.0, y=38.0, radius_px=3.0, peak_intensity=900.0),
        ),
        background=100.0,
        noise_std=0.0,
        signal=BreathingSignal(
            amplitude_px=6.0,
            components=(SignalComponent(3800.0, 1.0), SignalComponent(6100.0, 0.35)),
            seed=13,
        ),
        reference_frames=40,
        sequences=4,
        data_frames_per_sequence=15,
        sequence_phase_jitter_ms=40.0,
        sequence_amp_jitter=0.03,
    )
    dataset, truth = generate_phantom(spec, seed=8)
    rois = suggested_rois(spec, truth)
    config = ReconstructionConfig()
    _, report = reconstruct(dataset, rois, config)
    oracle = oracle_matches(truth, threshold=config.threshold_px)
    decided = {
        (s, row + 1, 2 * k + 1): (bool(accepted[row, k]), float(total))
        for s, (totals, accepted) in enumerate(zip(report.totals, report.accepted))
        for (row, k), total in np.ndenumerate(totals)
    }
    assert set(decided) == set(oracle)

    band = 2 * (0.25 * len(rois) * 2)
    disagreements = []
    for key, (accepted, _) in oracle.items():
        got_accepted, got_total = decided[key]
        if got_accepted != accepted:
            disagreements.append(abs(got_total - config.threshold_px))
    agreement = 100.0 * (len(oracle) - len(disagreements)) / len(oracle)
    assert agreement >= 99.0
    assert all(dist <= band for dist in disagreements)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _note(
        capsys,
        f"c6: {agreement:.2f}% of {len(oracle)} pairs, "
        f"{len(disagreements)} near-threshold, band {band} px, {elapsed:.1f}s",
    )


# --- 7. search-region speedup ------------------------------------------------


def test_c7_region_search_speedup(capsys):
    t0 = time.perf_counter()
    spec = PhantomSpec(
        frame_height=140,
        frame_width=176,
        vessels=(
            VesselSpec(x=40.0, y=36.0, radius_px=2.5, peak_intensity=1200.0),
            VesselSpec(x=120.0, y=60.0, radius_px=3.0, peak_intensity=900.0),
            VesselSpec(x=88.0, y=100.0, radius_px=2.0, peak_intensity=1100.0),
        ),
        background=100.0,
        noise_std=0.0,
        signal=BreathingSignal(amplitude_px=4.0, seed=21),
        reference_frames=16,
        sequences=2,
        data_frames_per_sequence=8,
    )
    dataset, truth = generate_phantom(spec, seed=9)
    rois = suggested_rois(spec, truth)
    comparison = compare_timing(dataset, rois, ReconstructionConfig(), runs=3)
    assert comparison.speedup >= 2.0
    assert comparison.decisions_identical
    assert comparison.widened_region == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _note(
        capsys,
        f"c7: {comparison.speedup:.1f}x ({comparison.full_seconds:.2f}s -> "
        f"{comparison.region_seconds:.2f}s), decisions identical, {elapsed:.0f}s",
    )


# --- 8. SNR gain from binning ------------------------------------------------


def test_c8_averaging_snr_gain(capsys):
    t0 = time.perf_counter()
    scene = [(70.0, 60.0, 3.0, 3.0, 800.0)]
    clean = render_frame((120, 140), scene, background=500.0).astype(np.float64)
    background = (slice(0, 40), slice(90, 140))  # corner far from the blob
    ratios = {}
    for n in (4, 9, 16):
        frames = [
            render_frame(
                (120, 140), scene, background=500.0, noise_std=8.0,
                rng=np.random.default_rng([77, n, k]),
            )
            for k in range(n)
        ]
        averaged = average_bin(frames)
        sigma_one = float(np.std(frames[0].astype(np.float64)[background] - clean[background]))
        sigma_avg = float(np.std(averaged[background] - clean[background]))
        ratio = sigma_one / sigma_avg
        ratios[n] = ratio
        assert abs(ratio / math.sqrt(n) - 1.0) <= 0.20
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _note(
        capsys,
        "c8: noise ratios "
        + ", ".join(f"N={n}: {r:.2f}/{math.sqrt(n):.0f}" for n, r in ratios.items())
        + f", {elapsed:.1f}s",
    )


# --- 9. determinism ----------------------------------------------------------


def test_c9_bitwise_deterministic_runs(tmp_path, capsys):
    t0 = time.perf_counter()
    # the breathing period is an exact multiple of the frame period, so this
    # phantom reconstructs at 100% and the compared volumes are non-trivial
    spec_path = tmp_path / "spec.json"
    save_spec(replay_spec(), spec_path)

    outputs = []
    for run in ("one", "two"):
        dataset_dir = tmp_path / run / "dataset"
        rec_dir = tmp_path / run / "rec"
        assert cli_main(["phantom", "--out", str(dataset_dir), "--spec", str(spec_path), "--seed", "7"]) == 0
        assert (
            cli_main(
                [
                    "reconstruct",
                    "--dataset", str(dataset_dir),
                    "--rois", str(dataset_dir / "rois.json"),
                    "--out", str(rec_dir),
                ]
            )
            == 0
        )
        report = json.loads((rec_dir / "report.json").read_text())
        assert report["reconstruction_rate"] == 100.0  # non-trivial volumes
        outputs.append(tmp_path / run)

    compared = []

    def assert_trees_identical(a, b):
        cmp = filecmp.dircmp(a, b)
        assert not cmp.left_only and not cmp.right_only, (a, b, cmp.left_only, cmp.right_only)
        mismatch = []
        for name in cmp.common_files:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatch.append(name)
            compared.append(name)
        assert not mismatch, (a, mismatch)
        for sub in cmp.common_dirs:
            assert_trees_identical(a / sub, b / sub)

    assert_trees_identical(outputs[0], outputs[1])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _note(capsys, f"c9: {len(compared)} files bit-identical across runs, {elapsed:.1f}s")
