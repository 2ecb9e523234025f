"""Golden digests: every output byte of the default phantom's runs, pinned.

Each case digests every file that ``save_reconstruction`` writes plus the
trace CSV that ``write_trace_csv`` writes for the same configuration.  A
refactor of tracking, localization, the decision or the save that changes
any byte fails here, however small the change in a score.  When a change
is meant to move outputs, record the new digests with ``output_digest`` and
say in the change why they moved.
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
    (BASELINE_METHOD, CCOEFF_NORMED, 10): "ae2d63139cd9a44cff52d2f10267837bf726f4905cf50488d1776ad663ddc8f5",
    (BASELINE_METHOD, CCOEFF_NORMED, None): "ca56a7e1982d1732aaf5e77e070e71df56af52fe1c1b9b92ab387c8915af669b",
    (BASELINE_METHOD, CCORR_NORMED, 10): "24b2294da1408d3e81bd0766e512d99bdc84de4963721103211a25f08ecbad78",
    (BASELINE_METHOD, CCORR_NORMED, None): "f6764b655798cf01586c86ee1311295ace8b471064206d482f1e21d76cb36965",
    (UPDATING_METHOD, CCOEFF_NORMED, 10): "965145d0e4bdf8a4c16f615bd313361b75043be53ee5ce1bd5802e74b661514e",
    (UPDATING_METHOD, CCOEFF_NORMED, None): "be7215e3d596cc37a96a028f361b3ea0fdf1ab6974a13c331dd720de652c713d",
    (UPDATING_METHOD, CCORR_NORMED, 10): "f7add7e50964d0b1afaa117fb396197597f5dbc2f66b33f4587138333aabb26a",
    (UPDATING_METHOD, CCORR_NORMED, None): "25422367bf00a57f9ca4914e30564adfa395dffdca6347f42433a91d7a6d7722",
}


@pytest.fixture(scope="module")
def default_session():
    spec = PhantomSpec()
    dataset, truth = generate_phantom(spec, seed=0)
    return dataset, suggested_rois(spec, truth)


def output_digest(dataset, rois, config, out_dir) -> str:
    """SHA-256 over the SHA-256 of every file one configuration writes, by file name."""
    out = save_reconstruction(*reconstruct(dataset, rois, config), out_dir / "recon")
    write_trace_csv(track_configured(dataset, rois, config)[0], out / "trace.csv")
    lines = [f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in sorted(out.iterdir())]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("method, measure, radius", list(GOLDEN), ids=str)
def test_outputs_match_the_recorded_digests(default_session, tmp_path, method, measure, radius):
    config = ReconstructionConfig(method=method, measure=measure, search_radius=radius)
    assert output_digest(*default_session, config, tmp_path) == GOLDEN[method, measure, radius]
