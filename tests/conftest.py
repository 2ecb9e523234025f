"""Shared phantoms.

Each session fixture renders its phantom once for every test that asks for
it, so those tests only read it; a test that edits a dataset renders its own.

The replay phantom is built so that breathing states recur exactly: one
period is 19 frames (3800 ms / 200 ms) and 19 is odd, so the navigator state
sequence cycles through all 19 lattice phases in both the reference and the
interleaved sequences.  Every eligible reference timepoint therefore has a
data frame whose enclosing navigators sit at bit-identical breathing states,
which makes reconstruction rates and oracle decisions exact.
"""

import time
from dataclasses import replace

import pytest

from resp4d.evalharness import sweep
from resp4d.phantom import (
    BreathingSignal,
    PhantomSpec,
    SignalComponent,
    VesselSpec,
    generate_phantom,
    suggested_rois,
)

from phantom_specs import split_vessel_spec


def replay_spec(**overrides):
    base = dict(
        frame_height=64,
        frame_width=80,
        vessels=(
            VesselSpec(x=24.0, y=20.0, radius_px=2.5, peak_intensity=1200.0),
            VesselSpec(x=56.0, y=38.0, radius_px=3.0, peak_intensity=900.0),
        ),
        background=100.0,
        noise_std=0.0,
        signal=BreathingSignal(
            amplitude_px=6.0, components=(SignalComponent(3800.0, 1.0),), seed=19
        ),
        reference_frames=24,
        sequences=2,
        data_frames_per_sequence=19,
        frame_period_ms=200.0,
    )
    base.update(overrides)
    return PhantomSpec(**base)


@pytest.fixture(scope="session")
def replay():
    spec = replay_spec()
    dataset, truth = generate_phantom(spec, seed=3)
    rois = suggested_rois(spec, truth)
    return spec, dataset, truth, rois


@pytest.fixture(scope="session")
def replay_seed0():
    """The replay phantom at seed 0."""
    spec = replay_spec()
    dataset, truth = generate_phantom(spec, seed=0)
    return spec, dataset, truth


@pytest.fixture(scope="session")
def split_vessel():
    """The modulated phantom at seed 5 and its suggested ROIs."""
    spec = split_vessel_spec()
    dataset, truth = generate_phantom(spec, seed=5)
    return spec, dataset, truth, suggested_rois(spec, truth)


@pytest.fixture(scope="session")
def pinned_split():
    """The modulated phantom at seed 4 with the motion and the noise turned off."""
    spec = split_vessel_spec()
    spec = replace(spec, noise_std=0.0, signal=replace(spec.signal, amplitude_px=0.0))
    dataset, truth = generate_phantom(spec, seed=4)
    return spec, dataset, truth


@pytest.fixture(scope="session")
def modulated_sweep(split_vessel):
    """Full comparison grid on the modulated phantom, run once per session."""
    _, dataset, _, rois = split_vessel
    t0 = time.perf_counter()
    cells = sweep(dataset, rois)
    elapsed = time.perf_counter() - t0
    return cells, elapsed
