#!/usr/bin/env python3
"""Compare the displacement tables of two checkouts over a grid of phantoms.

    python3 tools/compare_tables.py --parent A --change B

Each checkout runs ``reconstructor.displacement_tables`` in its own process
(its ``src`` first on the path) over every case of the grid: the phantoms
``default`` (``PhantomSpec()``), ``updating_region``, ``sweep_split`` and
``baseline_bulk`` (the specs of the checkout's ``stagebench/workloads.py``)
and ``split_vessel`` (``split_vessel_spec()`` of its
``tests/phantom_specs.py``), both methods, both measures, search radius 10
and ``None``, and seeds 0 and 3.  ``main`` takes a narrower grid as
arguments, and ``small=True`` renders every phantom with 10 reference
frames and 2 sequences of 4 data frames.

The report gives the largest difference between corresponding tables and
the case it falls in, the decisions that flip at thresholds 0.5, 1 and 2 px
(``criterion.decide`` of each side's own tables), and the cases whose
widened-search counts differ.  The exit status is 1 if a decision or a
widened count differs, if a table differs by more than ``ATOL`` (1e-9), or
if the two checkouts render different phantom specs; the printed largest
difference shows whether tables agree more tightly.  Standard library and
numpy only.  A checkout older than ``tests/phantom_specs.py`` keeps
``split_vessel_spec`` in ``tests/conftest.py``, which needs pytest.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PHANTOMS = ("default", "updating_region", "sweep_split", "baseline_bulk", "split_vessel")
METHODS = ("baseline", "updating")
MEASURES = ("ccoeff_normed", "ccorr_normed")
RADII = (10, None)
SEEDS = (0, 3)
THRESHOLDS = (0.5, 1.0, 2.0)
ATOL = 1e-9  # the equivalence bound of a hot-path change (ROADMAP)


def case_key(phantom: str, method: str, measure: str, radius, seed: int) -> str:
    return f"{phantom}|{method}|{measure}|{radius}|{seed}"


def worker(checkout: Path, out: Path, phantoms: list[str], seeds: list[int], small: bool) -> None:
    """Run the grid in ``checkout`` and save every table, widened count and decision mask to ``out`` (npz)."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "stagebench"), str(checkout / "tests")]
    from dataclasses import replace

    from resp4d.criterion import decide
    from resp4d.imgcore import to_obj
    from resp4d.phantom import PhantomSpec, generate_phantom, suggested_rois
    from resp4d.reconstructor import ReconstructionConfig, displacement_tables

    def spec_of(name):
        if name == "default":
            return PhantomSpec()
        if name == "split_vessel":
            try:
                from phantom_specs import split_vessel_spec
            except ModuleNotFoundError:  # a checkout from before the spec left conftest
                from conftest import split_vessel_spec

            return split_vessel_spec()
        import workloads

        return getattr(workloads, name.upper())

    arrays, specs = {}, {}
    for name in phantoms:
        spec = spec_of(name)
        if small:
            spec = replace(spec, reference_frames=10, sequences=2, data_frames_per_sequence=4)
        specs[name] = to_obj(spec)
        for seed in seeds:
            dataset, truth = generate_phantom(spec, seed=seed)
            rois = suggested_rois(spec, truth)
            for method, measure, radius in itertools.product(METHODS, MEASURES, RADII):
                key = case_key(name, method, measure, radius, seed)
                config = ReconstructionConfig(method=method, measure=measure, search_radius=radius)
                tables, widened = displacement_tables(dataset, rois, config)
                arrays[f"{key}|widened"] = np.array(widened)
                for s, table in enumerate(tables):
                    arrays[f"{key}|table|{s}"] = table
                    for threshold in THRESHOLDS:
                        arrays[f"{key}|accepted|{s}|{threshold}"] = decide(table, threshold)[1]
    arrays["specs"] = np.array(json.dumps(specs, sort_keys=True))
    np.savez(out, **arrays)


def compare(parent: dict, change: dict) -> dict:
    """The largest table difference, decision flips per threshold and widened-count differences of two workers' results."""
    if set(parent) != set(change):
        raise ValueError("the two checkouts produced different cases or sequence counts")
    report = {
        "cases": sum(k.endswith("|widened") for k in parent),
        "tables": sum("|table|" in k for k in parent),
        "largest_difference": 0.0,
        "largest_in": None,
        "decisions": {str(t): 0 for t in THRESHOLDS},
        "flips": {str(t): 0 for t in THRESHOLDS},
        "widened_differ": [],
        "specs_differ": str(parent["specs"]) != str(change["specs"]),
    }
    for key in sorted(parent):
        a, b = parent[key], change[key]
        if key.endswith("|widened"):
            if int(a) != int(b):
                report["widened_differ"].append(key.rsplit("|", 1)[0])
        elif "|table|" in key:
            if a.shape != b.shape:
                raise ValueError(f"{key}: table shapes differ, {a.shape} vs {b.shape}")
            diff = float(np.max(np.abs(a - b), initial=0.0))
            if diff > report["largest_difference"]:
                report["largest_difference"], report["largest_in"] = diff, key.split("|table|")[0]
        elif "|accepted|" in key:
            threshold = key.rsplit("|", 1)[1]
            report["decisions"][threshold] += a.size
            report["flips"][threshold] += int(np.count_nonzero(a != b))
    return report


def main(argv=None, phantoms=PHANTOMS, seeds=SEEDS, small=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    grid = json.dumps({"phantoms": list(phantoms), "seeds": list(seeds), "small": small})

    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / f"{side}.npz" for side in ("parent", "change")}
        runs = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(checkout), str(outs[side]), grid],
                stderr=subprocess.PIPE, text=True,
            )
            for side, checkout in (("parent", args.parent), ("change", args.change))
        }
        for side, run in runs.items():
            _, err = run.communicate()
            if run.returncode:
                print(f"error: the {side} checkout failed:\n{err}", file=sys.stderr)
                return 1
        loaded = {}
        for side, out in outs.items():
            with np.load(out) as data:
                loaded[side] = {key: data[key] for key in data.files}
    report = compare(loaded["parent"], loaded["change"])
    print(f"{report['cases']} cases, {report['tables']} tables")
    print(f"largest table difference {report['largest_difference']:.3g} ({report['largest_in']})")
    for t in report["flips"]:
        print(f"decisions flipped at {t} px: {report['flips'][t]} of {report['decisions'][t]}")
    print(f"widened counts differ in {len(report['widened_differ'])} cases {report['widened_differ']}")
    if report["specs_differ"]:
        print("the two checkouts render different phantom specs")
    failed = (report["specs_differ"] or report["widened_differ"] or any(report["flips"].values())
              or report["largest_difference"] > ATOL)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # one side's run, started by main
        checkout, out, grid = sys.argv[2:]
        worker(Path(checkout).resolve(), Path(out), **json.loads(grid))
    else:
        sys.exit(main())
