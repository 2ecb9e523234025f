"""Command-line behaviour, exercised in-process through ``main(argv)``."""

import csv
import json
import shutil

import pytest

from resp4d.cli import main
from resp4d.phantom import VesselSpec, save_spec

from conftest import replay_spec


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated phantom dataset plus the spec that produced it."""
    root = tmp_path_factory.mktemp("cli")
    spec = replay_spec(
        frame_height=48,
        frame_width=56,
        vessels=(VesselSpec(x=28.0, y=24.0, radius_px=2.5, peak_intensity=1200.0),),
        reference_frames=8,
        sequences=1,
        data_frames_per_sequence=5,
    )
    spec_path = root / "spec.json"
    save_spec(spec, spec_path)
    dataset_dir = root / "dataset"
    assert main(["phantom", "--out", str(dataset_dir), "--spec", str(spec_path), "--seed", "3"]) == 0
    return root, dataset_dir


def test_phantom_writes_dataset_truth_and_rois(workdir):
    _, dataset_dir = workdir
    assert (dataset_dir / "dataset.json").is_file()
    assert (dataset_dir / "ground_truth.csv").is_file()
    assert (dataset_dir / "rois.json").is_file()
    assert (dataset_dir / "ref1" / "frames.u16le").is_file()
    assert (dataset_dir / "il000" / "seq.json").is_file()


def test_validate_reports_sequence_and_frame_counts(workdir, capsys):
    _, dataset_dir = workdir
    assert main(["validate", "--dataset", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    # ref1 + ref2 = 16 frames, one interleaved sequence of 11
    assert "ok: 1 interleaved sequences, 27 frames total" in out


def test_track_writes_a_trace_csv(workdir, capsys):
    root, dataset_dir = workdir
    out_csv = root / "trace.csv"
    code = main(
        [
            "track",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    assert "8 frames x 1 vessels" in capsys.readouterr().out
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["vessel"] == "v0"


def test_reconstruct_twice_is_bit_identical(workdir, capsys):
    root, dataset_dir = workdir
    args = [
        "reconstruct",
        "--dataset", str(dataset_dir),
        "--rois", str(dataset_dir / "rois.json"),
    ]
    assert main(args + ["--out", str(root / "rec_a")]) == 0
    assert main(args + ["--out", str(root / "rec_b")]) == 0
    assert "rate" in capsys.readouterr().out
    names = sorted(p.name for p in (root / "rec_a").iterdir())
    assert names == sorted(p.name for p in (root / "rec_b").iterdir())
    assert "volume4d.json" in names and "report.json" in names
    for name in names:
        assert (root / "rec_a" / name).read_bytes() == (root / "rec_b" / name).read_bytes()


def test_missing_required_flag_is_a_usage_error(workdir):
    _, dataset_dir = workdir
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--dataset", str(dataset_dir), "--out", "/tmp/nowhere"])
    assert exc.value.code == 64


def test_bad_choice_is_a_usage_error(workdir):
    root, dataset_dir = workdir
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "track",
                "--dataset", str(dataset_dir),
                "--rois", str(dataset_dir / "rois.json"),
                "--out", str(root / "t.csv"),
                "--method", "fancy",
            ]
        )
    assert exc.value.code == 64


def test_jobs_flag_is_gone(workdir):
    root, dataset_dir = workdir
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "reconstruct",
                "--dataset", str(dataset_dir),
                "--rois", str(dataset_dir / "rois.json"),
                "--out", str(root / "rec_jobs"),
                "--jobs", "2",
            ]
        )
    assert exc.value.code == 64
    assert not (root / "rec_jobs").exists()


def test_missing_rois_file_fails_validation(workdir, capsys):
    root, dataset_dir = workdir
    code = main(
        [
            "reconstruct",
            "--dataset", str(dataset_dir),
            "--rois", str(root / "no_such.json"),
            "--out", str(root / "rec_x"),
        ]
    )
    assert code == 1
    assert "missing file" in capsys.readouterr().err


def test_unparseable_rois_fail_validation(workdir, capsys):
    root, dataset_dir = workdir
    bad = root / "bad_rois.json"
    bad.write_text("{not json")
    code = main(
        [
            "track",
            "--dataset", str(dataset_dir),
            "--rois", str(bad),
            "--out", str(root / "t2.csv"),
        ]
    )
    assert code == 1
    assert "unparseable ROI JSON" in capsys.readouterr().err


def test_truncated_frame_stack_fails_validation(workdir, tmp_path, capsys):
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    stack = broken / "il000" / "frames.u16le"
    stack.write_bytes(stack.read_bytes()[: stack.stat().st_size // 2])
    assert main(["validate", "--dataset", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "truncated or oversized" in err
    assert "il000" in err


def _drop(key):
    return lambda meta: meta.pop(key)


def _set(key, value):
    return lambda meta: meta.__setitem__(key, value)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("il000/seq.json", _drop("kinds"), "missing key 'kinds'"),
        ("il000/seq.json", _set("frame_count", "11"), "key 'frame_count' must be a non-negative integer"),
        ("il000/seq.json", _set("timestamps_ms", None), "key 'timestamps_ms' must be a list"),
        ("ref1/seq.json", _set("slice_positions_mm", [0.0, "a"]), "key 'slice_positions_mm' must be a list"),
        ("dataset.json", _drop("references"), "missing key 'references'"),
        ("dataset.json", _set("frame_shape", [0, 0]), "key 'frame_shape' must be two positive integers"),
        ("dataset.json", _set("frame_shape", [48]), "key 'frame_shape' must be two positive integers"),
        ("dataset.json", _set("sequences", "ref1"), "key 'sequences' must be a list of strings"),
        ("dataset.json", _set("frame_period_ms", float("nan")), "key 'frame_period_ms' must be a positive number"),
    ],
    ids=[
        "seq-no-kinds",
        "seq-count-string",
        "seq-timestamps-null",
        "seq-position-string",
        "dataset-no-references",
        "dataset-zero-shape",
        "dataset-short-shape",
        "dataset-sequences-string",
        "dataset-period-nan",
    ],
)
def test_malformed_metadata_fails_validation(workdir, tmp_path, capsys, name, edit, message):
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    meta = json.loads((broken / name).read_text())
    edit(meta)
    (broken / name).write_text(json.dumps(meta))
    assert main(["validate", "--dataset", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(broken / name) in err and message in err


def test_metadata_must_be_an_object(workdir, tmp_path, capsys):
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    (broken / "il000" / "seq.json").write_text("[1, 2]")
    assert main(["validate", "--dataset", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a JSON object, got list" in err


def test_sweep_writes_the_rate_grid(workdir, capsys):
    root, dataset_dir = workdir
    out_dir = root / "sweep"
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(out_dir),
            "--thresholds", "0.5,1",
        ]
    )
    assert code == 0
    with open(out_dir / "rates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 references x 2 methods x 2 measures x 2 thresholds
    assert len(rows) == 16
    printed = capsys.readouterr().out
    assert printed.count("rate") == 16


def test_sweep_rejects_malformed_thresholds(workdir, capsys):
    root, dataset_dir = workdir
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(root / "sweep_bad"),
            "--thresholds", "0.5,abc",
        ]
    )
    assert code == 1
    assert "bad --thresholds" in capsys.readouterr().err


def test_reconstruct_rejects_a_nan_threshold(workdir, capsys):
    root, dataset_dir = workdir
    code = main(
        [
            "reconstruct",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(root / "rec_nan"),
            "--threshold", "nan",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: threshold must be finite")
    assert not (root / "rec_nan").exists()


def test_sweep_rejects_a_nan_threshold(workdir, capsys):
    root, dataset_dir = workdir
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(root / "sweep_nan"),
            "--thresholds", "nan,1",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: threshold must be finite")
    assert not (root / "sweep_nan").exists()


def test_sweep_timing_flag_writes_timing_csv(workdir):
    root, dataset_dir = workdir
    out_dir = root / "sweep_timing"
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(out_dir),
            "--thresholds", "1",
            "--timing",
        ]
    )
    assert code == 0
    with open(out_dir / "timing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["variant"] for r in rows} == {"full_frame", "region"}
