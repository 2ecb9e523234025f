import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from resp4d.criterion import decide
from resp4d.imgcore import DATA, NAVIGATOR, Dataset, Frame, InterleavedSequence, ReferenceSequence
from resp4d.phantom import render_frame
from resp4d.reconstructor import ReconstructionConfig, displacement_tables
from resp4d.tracker import Roi


def _one_pair(before, after, n_vessels=1):
    """Table for a 3-frame reference and one data frame: the single pair
    (timepoint 1, ordinal 1) sees ``before`` on every vessel of the preceding
    navigator pair and ``after`` on every vessel of the following pair."""
    table = np.full((3, 2, n_vessels), 99.0)
    table[0, 0] = before
    table[2, 1] = after
    return table


def _shifted_session(dx, dy):
    """A 3-frame reference with one blob at (24, 24) and an interleaved
    sequence whose navigators show the blob moved by (dx, dy)."""
    def frame(i, kind, x, y, slice_mm=0.0):
        pixels = render_frame((48, 48), [(x, y, 2.0, 2.0, 900.0)], background=50.0)
        return Frame(pixels=pixels, kind=kind, timestamp_ms=200.0 * i, slice_position_mm=slice_mm)

    ref = ReferenceSequence(frames=[frame(i, NAVIGATOR, 24, 24) for i in range(3)], frame_period_ms=200.0)
    seq = InterleavedSequence(
        frames=[
            frame(3, NAVIGATOR, 24 + dx, 24 + dy),
            frame(4, DATA, 24, 24, 10.0),
            frame(5, NAVIGATOR, 24 + dx, 24 + dy),
        ],
    )
    dataset = Dataset(ref, ref, [seq], in_plane_spacing_mm=(1.82, 1.82), slice_gap_mm=4.0)
    return dataset, [Roi("v0", 18, 18, 13, 13)]


def test_pair_displacement_3_4_5():
    # the tables the rule consumes hold Euclidean distances per vessel
    dataset, rois = _shifted_session(3, 4)
    (table,), widened = displacement_tables(dataset, rois, ReconstructionConfig(method="baseline"))
    assert widened == 0
    assert table.shape == (3, 2, 1)
    np.testing.assert_allclose(table, 5.0, atol=1e-9)
    totals, accepted = decide(table, 10.0)
    assert totals == pytest.approx(10.0, abs=1e-9) and not accepted.any()
    (same,), _ = displacement_tables(*_shifted_session(0, 0), ReconstructionConfig(method="baseline"))
    assert np.all(same == 0.0)


def _decide_one(before, after, threshold):
    totals, accepted = decide(_one_pair(before, after), threshold)
    assert totals.shape == accepted.shape == (1, 1)
    return float(totals[0, 0]), bool(accepted[0, 0])


def test_accept_below_threshold():
    total, accepted = _decide_one(0.3, 0.4, threshold=1.0)
    assert accepted
    assert total == pytest.approx(0.7)


def test_reject_at_tighter_threshold():
    assert not _decide_one(0.3, 0.4, threshold=0.5)[1]


def test_threshold_comparison_is_strict():
    assert not _decide_one(0.25, 0.25, threshold=0.5)[1]
    assert _decide_one(0.25, 0.25, threshold=0.5 + 1e-9)[1]


def test_self_match_totals_zero_but_needs_positive_threshold():
    assert _decide_one(0.0, 0.0, threshold=1.0) == (0.0, True)
    assert _decide_one(0.0, 0.0, threshold=0.0) == (0.0, False)  # strict '<'


def test_boundary_timepoints_are_ineligible():
    # a 10-frame reference yields rows for timepoints 1..8 only
    totals, accepted = decide(np.zeros((10, 4, 2)), 1.0)
    assert totals.shape == accepted.shape == (8, 3)


def test_negative_threshold_rejected():
    for threshold in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            decide(_one_pair(0.0, 0.0), threshold)


def test_aggregate_values():
    # total 8 over 4 vessel sides: a per-side mean m is the threshold 2 * V * m
    table = _one_pair(2.0, 2.0, n_vessels=2)
    assert decide(table, 8.0)[0].tolist() == [[8.0]]
    assert not decide(table, 8.0)[1].any()
    assert decide(table, 8.0 + 1e-9)[1].all()


# --- properties -------------------------------------------------------------


@st.composite
def tables(draw, min_vessels=1):
    n_ref = draw(st.integers(3, 6))
    n_navs = draw(st.integers(2, 5))
    n_vessels = draw(st.integers(min_vessels, 4))
    return draw(arrays(np.float64, (n_ref, n_navs, n_vessels), elements=st.floats(0.0, 50.0)))


@settings(max_examples=80, deadline=None)
@given(table=tables(), threshold=st.floats(0.0, 200.0))
def test_rule_matches_plain_python_loop(table, threshold):
    totals, accepted = decide(table, threshold)
    n_ref, n_navs, n_vessels = table.shape
    assert totals.shape == accepted.shape == (n_ref - 2, n_navs - 1)
    for i in range(1, n_ref - 1):
        for k in range(n_navs - 1):  # data frame ordinal 2k + 1
            total = 0.0
            for v in range(n_vessels):
                total += float(table[i - 1, k, v]) + float(table[i + 1, k + 1, v])
            assert totals[i - 1, k] == pytest.approx(total, rel=1e-12, abs=1e-12)
            if abs(total - threshold) > 1e-9 * max(1.0, threshold):
                assert bool(accepted[i - 1, k]) == (total < threshold)


@settings(max_examples=60, deadline=None)
@given(table=tables(), t1=st.floats(0.0, 300.0), t2=st.floats(0.0, 300.0))
def test_acceptance_monotone_in_threshold(table, t1, t2):
    lo, hi = sorted((t1, t2))
    _, at_lo = decide(table, lo)
    _, at_hi = decide(table, hi)
    assert not np.any(at_lo & ~at_hi)


@settings(max_examples=60, deadline=None)
@given(table=tables(min_vessels=2), seed=st.integers(0, 999))
def test_total_is_vessel_order_invariant(table, seed):
    base, _ = decide(table, 1.0)
    order = np.random.default_rng(seed).permutation(table.shape[2])
    perm, _ = decide(table[:, :, order], 1.0)
    np.testing.assert_allclose(perm, base, rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_total_nonnegative_and_identity_scores_zero(table):
    totals, _ = decide(table, 1.0)
    assert np.all(totals >= 0.0)
    # identical positions on both sides: every displacement is zero
    same, accepted = decide(np.zeros_like(table), 1.0)
    assert np.all(same == 0.0) and accepted.all()
