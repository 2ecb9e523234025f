"""Golden digests: every output byte of the default phantom's runs, pinned.

Each case digests every file that ``save_reconstruction`` writes plus the
trace CSV that ``write_trace_csv`` writes for the same configuration.  A
refactor of tracking, localization, the decision or the save that changes
any byte fails here, however small the change in a score, and the failure
lists every file's own digest, so a comparison with the previous run's list
names the files that moved.  When a change is meant to move outputs, record
the new digests with ``output_digest`` and say in the change why they moved.
"""

import hashlib

import pytest

from resp4d.matcher import CCOEFF_NORMED, CCORR_NORMED
from resp4d.phantom import PhantomSpec, generate_phantom, suggested_rois
from resp4d.reconstructor import (
    BASELINE_METHOD,
    UPDATING_METHOD,
    ReconstructionConfig,
    reconstruct,
    save_reconstruction,
    track_configured,
)
from resp4d.tracker import write_trace_csv

# (method, measure, search_radius) -> output_digest on PhantomSpec() at seed 0
GOLDEN = {
    (BASELINE_METHOD, CCOEFF_NORMED, 10): "881af9f0885b844f49de58c4b5ac4f8df0b11b3ac471915d14934a8c75a15739",
    (BASELINE_METHOD, CCOEFF_NORMED, None): "65f638309a14d14117abc9d58e8fc2db9c700f5b3977e9516324aa0e0fd2efcc",
    (BASELINE_METHOD, CCORR_NORMED, 10): "9cb5361e534a8b6e9415a72611afe380032dd8ff799bed474f2e33a288cdbd9b",
    (BASELINE_METHOD, CCORR_NORMED, None): "a29d1709f41b5182ec828a6f40bdcd29988808aee0020fedd00be185f01b6b0b",
    (UPDATING_METHOD, CCOEFF_NORMED, 10): "e3a439fcdbe3cf88564ee7c0363e24d8c19d9df936256a1ccfc1befe84a2f93a",
    (UPDATING_METHOD, CCOEFF_NORMED, None): "c826faebba38a4e6038260e9031017be0483c9d7ba05729da5fefd6f63a209a5",
    (UPDATING_METHOD, CCORR_NORMED, 10): "bda6f532cf14bf4f7e7070fb0902f636bb2dcd24cef6f58e2f8efd87cf3e400f",
    (UPDATING_METHOD, CCORR_NORMED, None): "3af434f1a68a0df99a485e269246dfa7a27efa41011647f5f275e40641935b2f",
}


@pytest.fixture(scope="module")
def default_session():
    spec = PhantomSpec()
    dataset, truth = generate_phantom(spec, seed=0)
    return dataset, suggested_rois(spec, truth)


def output_digest(dataset, rois, config, out_dir) -> tuple[str, str]:
    """SHA-256 over the ``name sha256`` lines of every file one configuration writes, and those lines."""
    out = save_reconstruction(*reconstruct(dataset, rois, config), out_dir / "recon")
    write_trace_csv(track_configured(dataset, rois, config)[0], out / "trace.csv")
    lines = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in sorted(out.iterdir()))
    return hashlib.sha256(lines.encode()).hexdigest(), lines


@pytest.mark.parametrize("method, measure, radius", list(GOLDEN), ids=str)
def test_outputs_match_the_recorded_digests(default_session, tmp_path, method, measure, radius):
    config = ReconstructionConfig(method=method, measure=measure, search_radius=radius)
    digest, files = output_digest(*default_session, config, tmp_path)
    assert digest == GOLDEN[method, measure, radius], files
