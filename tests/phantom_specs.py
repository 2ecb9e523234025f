"""Phantom specs shared by the tests and tools/compare_tables.py.

This module imports no test framework, so a tool can build the specs in an
environment without pytest.
"""

from resp4d.phantom import BreathingSignal, PhantomSpec, SignalComponent, VesselSpec


def split_vessel_spec():
    """Modulated phantom for the method comparison.

    The single vessel renders as a horizontal blob pair whose separation
    widens with breathing state.  A rest-state template on the widened pair
    sees two mirror-symmetric response lobes that tie up to noise, so fixed
    templates lock half a separation left or right at random, while a
    current-state template stays unimodal.
    """
    return PhantomSpec(
        frame_height=80,
        frame_width=96,
        vessels=(
            VesselSpec(
                x=48.0,
                y=40.0,
                radius_px=1.0,
                peak_intensity=1200.0,
                modulation_depth=0.97,
                split_rest_px=3.0,
                split_gain_px=5.0,
            ),
        ),
        background=10.0,
        noise_std=4.0,
        signal=BreathingSignal(
            amplitude_px=12.0, components=(SignalComponent(3800.0, 1.0),), seed=19
        ),
        reference_frames=66,
        sequences=10,
        data_frames_per_sequence=19,
        frame_period_ms=200.0,
        sequence_phase_jitter_ms=40.0,
        sequence_amp_jitter=0.03,
    )
