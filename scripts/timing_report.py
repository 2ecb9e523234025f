#!/usr/bin/env python3
"""Compare full-frame vs search-region matching wall time on one dataset.

Usage: python3 scripts/timing_report.py dataset_dir rois.json [--runs 3] [--radius 10]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resp4d.evalharness import compare_timing
from resp4d.imgcore import load_dataset
from resp4d.reconstructor import ReconstructionConfig
from resp4d.tracker import rois_from_obj


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("dataset", type=Path)
    ap.add_argument("rois", type=Path)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--radius", type=int, default=10)
    args = ap.parse_args()

    dataset = load_dataset(args.dataset)
    rois = rois_from_obj(json.loads(args.rois.read_text()))
    config = ReconstructionConfig(search_radius=args.radius)

    cmp = compare_timing(dataset, rois, config, runs=args.runs)
    h, w = dataset.frame_shape
    navigators = sum(len(seq.navigators()) for seq in dataset.interleaved)
    print(f"frame {h}x{w}, radius {args.radius}, {navigators} navigators, median of {args.runs} runs")
    print(f"  full-frame : {cmp.full_seconds:.3f} s  {[f'{t:.3f}' for t in cmp.full_runs]}")
    print(f"  region     : {cmp.region_seconds:.3f} s  {[f'{t:.3f}' for t in cmp.region_runs]}")
    print(f"  speedup    : {cmp.speedup:.2f}x")
    print(f"  identical match decisions: {cmp.decisions_identical}")
    # region search pays off while the speedup stays well above 1x and few
    # region searches fall back to a full-frame search anyway
    print(f"  widened searches: region {cmp.widened_region}, full-frame {cmp.widened_full}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
