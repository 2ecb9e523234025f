"""tools/compare_tables.py: what it counts as a difference, and a real run on tiny phantoms."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_tables", _ROOT / "tools" / "compare_tables.py")
compare_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_tables)


def _results(table, accepted, widened, specs="{}"):
    """One worker's results for one case of one sequence, as the worker saves them."""
    key = compare_tables.case_key("default", "updating", "ccoeff_normed", 10, 0)
    out = {f"{key}|widened": np.array(widened), f"{key}|table|0": table, "specs": np.array(specs)}
    for threshold in compare_tables.THRESHOLDS:
        out[f"{key}|accepted|0|{threshold}"] = accepted
    return out


def test_compare_reports_the_largest_difference_the_flips_and_the_widened_counts():
    table = np.arange(6.0).reshape(3, 2, 1)
    accepted = np.array([[True, False], [False, True]])
    same = compare_tables.compare(_results(table, accepted, 2), _results(table.copy(), accepted.copy(), 2))
    assert same["cases"] == 1 and same["tables"] == 1
    assert same["largest_difference"] == 0.0 and same["largest_in"] is None
    assert same["flips"] == {"0.5": 0, "1.0": 0, "2.0": 0} and same["decisions"]["1.0"] == 4
    assert same["widened_differ"] == [] and not same["specs_differ"]

    moved = table.copy()
    moved[1, 0, 0] += 3e-13
    flipped = accepted.copy()
    flipped[0, 1] = True
    report = compare_tables.compare(_results(table, accepted, 2), _results(moved, flipped, 3, specs='{"x": 1}'))
    assert report["largest_difference"] == pytest.approx(3e-13, rel=1e-3)
    assert report["largest_in"] == "default|updating|ccoeff_normed|10|0"
    assert report["flips"] == {"0.5": 1, "1.0": 1, "2.0": 1}
    assert report["widened_differ"] == ["default|updating|ccoeff_normed|10|0"]
    assert report["specs_differ"]

    with pytest.raises(ValueError, match="different cases"):
        compare_tables.compare(_results(table, accepted, 2), {"specs": np.array("{}")})


def test_a_checkout_against_itself_on_tiny_phantoms(capsys):
    argv = ["--parent", str(_ROOT), "--change", str(_ROOT)]
    assert compare_tables.main(argv, phantoms=("default", "split_vessel"), seeds=(0,), small=True) == 0
    out = capsys.readouterr().out
    # 2 phantoms x 2 methods x 2 measures x 2 radii, 2 sequences each
    assert "16 cases, 32 tables" in out
    assert "largest table difference 0 (None)" in out
    assert "widened counts differ in 0 cases" in out
    flips = [line for line in out.splitlines() if line.startswith("decisions flipped at")]
    assert len(flips) == 3 and all(": 0 of " in line for line in flips)

