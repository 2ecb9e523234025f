"""Command-line behaviour, exercised in-process through ``main(argv)``."""

import csv
import json
import re
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


def test_phantom_spec_json_regenerates_the_same_dataset(workdir, tmp_path):
    _, dataset_dir = workdir
    again = tmp_path / "again"
    spec_path = dataset_dir / "phantom_spec.json"
    assert main(["phantom", "--out", str(again), "--spec", str(spec_path), "--seed", "3"]) == 0
    names = sorted(str(p.relative_to(dataset_dir)) for p in dataset_dir.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(again)) for p in again.rglob("*") if p.is_file())
    for name in names:
        assert (dataset_dir / name).read_bytes() == (again / name).read_bytes(), name


def _spec_file(text):
    return lambda root: (root / "spec.json").write_text(text)


@pytest.mark.parametrize(
    "write, message",
    [
        (_spec_file('{"vessels": [{"y": 20.0}]}'), "missing key 'vessels[0].x'"),
        (_spec_file('{"vessels": "x"}'), "key 'vessels' must be a list"),
        (_spec_file('{"frame_hieght": 48}'), "unknown key 'frame_hieght'"),
        (_spec_file('{"signal": {"components": [[3800, 1]]}}'), "key 'signal.components[0]' must be an object"),
        (_spec_file("{not json"), "unparseable JSON in"),
        (lambda root: None, "missing file:"),
        (lambda root: (root / "spec.json").mkdir(), "Is a directory"),
    ],
    ids=["vessel-no-x", "vessels-string", "typo-key", "component-pair", "not-json", "missing-file", "directory"],
)
def test_malformed_phantom_spec_fails_validation(tmp_path, capsys, write, message):
    write(tmp_path)
    out = tmp_path / "out"
    code = main(["phantom", "--out", str(out), "--spec", str(tmp_path / "spec.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err and str(tmp_path / "spec.json") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"signal": {"components": []}}, "signal.components: the breathing signal needs a component of positive weight"),
        ({"signal": {"components": [{"period_ms": 0.0, "weight": 1.0}]}}, "signal.components[0].period_ms must be positive"),
        ({"signal": {"components": [{"period_ms": 3800.0, "weight": 1.0}, {"period_ms": 6100.0, "weight": -0.5}]}},
         "signal.components[1].weight must be non-negative"),
        ({"signal": {"components": [{"period_ms": 3800.0, "weight": 0.0}]}}, "signal.components: the breathing signal"),
        ({"noise_std": -1.0}, "noise_std must be non-negative"),
        ({"vessels": [{"x": 24.0, "y": 20.0, "radius_px": 0.0}]}, "vessels[0].radius_px must be positive"),
        ({"signal": {"seed": -3}}, "signal.seed must be non-negative, got -3"),
        # the dataset loader's wording: phantom must not write what validate rejects
        ({"in_plane_spacing_mm": [-1.0, 1.0]}, "key 'in_plane_spacing_mm' must be two positive numbers, got [-1.0, 1.0]"),
        ({"in_plane_spacing_mm": [1.82, 0.0]}, "key 'in_plane_spacing_mm' must be two positive numbers, got [1.82, 0.0]"),
        # refused before rendering, not by the dataset check after it
        ({"frame_period_ms": -200.0}, "frame_period_ms must be positive, got -200.0"),
        ({"slice_gap_mm": 0.0}, "slice_gap_mm must be positive, got 0.0"),
    ],
    ids=["no-components", "zero-period", "negative-weight", "zero-weights", "negative-noise", "zero-radius",
         "negative-signal-seed", "negative-spacing", "zero-spacing", "negative-frame-period", "zero-slice-gap"],
)
def test_unusable_phantom_spec_fails_validation(tmp_path, capsys, spec, message):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["phantom", "--out", str(out), "--spec", str(tmp_path / "spec.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("spec", [{"noise_std": 2.0}, {}], ids=["noisy", "noiseless"])
def test_negative_seed_fails_validation(tmp_path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["phantom", "--out", str(out), "--spec", str(tmp_path / "spec.json"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--search-radius", "0"], "search radius must be >= 1"),
        (["--search-radius", "-3"], "search radius must be >= 1"),
        (["--min-score", "nan"], "min score must be finite"),
    ],
    ids=["radius-zero", "radius-negative", "min-score-nan"],
)
def test_track_rejects_invalid_parameters(workdir, capsys, flags, message):
    root, dataset_dir = workdir
    out_csv = root / "trace_bad.csv"
    code = main(
        [
            "track",
            "--dataset", str(dataset_dir),
            "--rois", str(dataset_dir / "rois.json"),
            "--out", str(out_csv),
        ]
        + flags
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out_csv.exists()


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


def _reference_twice(meta):
    meta["sequences"].remove("ref2")
    meta["references"] = ["ref1", "ref1"]


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
        ("dataset.json", _reference_twice, "references name 'ref1' twice"),
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
        "dataset-reference-twice",
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


@pytest.mark.parametrize(
    "entry",
    [lambda root: str(root / "other" / "il000"), lambda root: "../other/il000", lambda root: "il000"],
    ids=["absolute", "dot-dot", "duplicate"],
)
def test_sequence_names_must_stay_inside_the_dataset(workdir, tmp_path, capsys, entry):
    # another session beside the dataset would otherwise be read without complaint
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    shutil.copytree(dataset_dir, tmp_path / "other")
    meta = json.loads((broken / "dataset.json").read_text())
    name = entry(tmp_path)
    meta["sequences"] = [name if s == "il000" else s for s in meta["sequences"]]
    if name == "il000":
        meta["sequences"].append(name)
    (broken / "dataset.json").write_text(json.dumps(meta))
    assert main(["validate", "--dataset", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(broken / "dataset.json") in err and repr(name) in err


def test_metadata_must_be_an_object(workdir, tmp_path, capsys):
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    (broken / "il000" / "seq.json").write_text("[1, 2]")
    assert main(["validate", "--dataset", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a JSON object, got list" in err


def _reconstruct_fails(dataset, rois, out, capsys):
    """Run ``reconstruct``; assert exit 1 with one ``error:`` line and no output, and return that line."""
    code = main(["reconstruct", "--dataset", str(dataset), "--rois", str(rois), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("name", ["dataset.json", "il000/seq.json", "rois.json"])
def test_undecodable_json_fails_validation(workdir, tmp_path, capsys, name):
    # bytes that are not UTF-8 raise UnicodeDecodeError, not JSONDecodeError
    _, dataset_dir = workdir
    broken = tmp_path / "broken"
    shutil.copytree(dataset_dir, broken)
    (broken / name).write_bytes(b"\xff\xfe")
    err = _reconstruct_fails(broken, broken / "rois.json", tmp_path / "rec", capsys)
    assert "unparseable" in err and str(broken / name) in err
    if name != "rois.json":
        assert main(["validate", "--dataset", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(broken / name) in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("x", float("inf")), "bad ROI entry 0: key 'x' must be an integer, got inf"),
        (_set("x", 18.7), "bad ROI entry 0: key 'x' must be an integer, got 18.7"),
        (_set("w", True), "bad ROI entry 0: key 'w' must be an integer, got True"),
        (_set("x", "18"), "bad ROI entry 0: key 'x' must be an integer, got '18'"),
        (_set("label", 7), "bad ROI entry 0: key 'label' must be a string, got 7"),
        (_drop("h"), "bad ROI entry 0: missing key 'h'"),
    ],
    ids=["x-infinity", "x-fraction", "w-bool", "x-string", "label-number", "no-h"],
)
def test_roi_fields_must_be_json_integers(workdir, tmp_path, capsys, edit, message):
    _, dataset_dir = workdir
    rois = json.loads((dataset_dir / "rois.json").read_text())
    edit(rois[0])
    path = tmp_path / "rois.json"
    path.write_text(json.dumps(rois))
    assert message in _reconstruct_fails(dataset_dir, path, tmp_path / "rec", capsys)


def test_roi_entries_must_be_objects(workdir, tmp_path, capsys):
    _, dataset_dir = workdir
    path = tmp_path / "rois.json"
    path.write_text(json.dumps(json.loads((dataset_dir / "rois.json").read_text()) + [[1, 2, 3, 4]]))
    assert "bad ROI entry 1: expected an object" in _reconstruct_fails(dataset_dir, path, tmp_path / "rec", capsys)


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


def test_sweep_timing_flag_writes_timing_csv(workdir, capsys):
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
    # one sequence of 5 data frames has 6 navigators
    assert re.search(r"; 6 navigators, widened region \d+, full-frame \d+$", capsys.readouterr().out, re.M)
