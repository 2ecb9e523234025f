"""Command-line front end.

Exit codes: 0 success, 1 dataset/input validation failure, 2 processing
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import phantom as phantom_mod
from .errors import DatasetIOError, ProcessingError, ValidationError
from .evalharness import compare_timing, sweep, write_rates_csv, write_timing_csv
from .imgcore import load_dataset, read_json, write_dataset, write_json
from .matcher import CCOEFF_NORMED, CCORR_NORMED
from .reconstructor import (
    METHODS,
    ReconstructionConfig,
    reconstruct,
    save_reconstruction,
    track_configured,
)
from .tracker import rois_from_obj, rois_to_obj, write_trace_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROCESSING = 2
EXIT_USAGE = 64

_MEASURES = {"ccoeff": CCOEFF_NORMED, "ccorr": CCORR_NORMED}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for processing
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_DEFAULTS = ReconstructionConfig()


def _add_matching_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reference", type=int, choices=(1, 2), default=_DEFAULTS.reference)
    p.add_argument("--method", choices=METHODS, default=_DEFAULTS.method)
    measure = next(name for name, m in _MEASURES.items() if m == _DEFAULTS.measure)
    p.add_argument("--measure", choices=sorted(_MEASURES), default=measure)
    p.add_argument("--search-radius", type=int, default=_DEFAULTS.search_radius)
    p.add_argument("--min-score", type=float, default=_DEFAULTS.min_score)


def build_parser() -> _Parser:
    parser = _Parser(prog="resp4d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", parents=[], help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--spec", help="phantom spec JSON (defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="lint a dataset directory")
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("track", help="track ROIs through a reference sequence")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rois", required=True)
    p.add_argument("--out", required=True, help="trace CSV path")
    _add_matching_flags(p)

    p = sub.add_parser("reconstruct", help="build the 4D volume")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rois", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_matching_flags(p)
    p.add_argument("--threshold", type=float, default=_DEFAULTS.threshold_px)

    p = sub.add_parser("sweep", help="reconstruction-rate grid over thresholds/measures/references/methods")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rois", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--thresholds", default="0.5,1,2", help="comma-separated pixel thresholds")
    p.add_argument("--timing", action="store_true", help="also time region vs full-frame search")

    return parser


def _cmd_phantom(args) -> int:
    spec = phantom_mod.load_spec(args.spec) if args.spec else phantom_mod.PhantomSpec()
    dataset, truth = phantom_mod.generate_phantom(spec, seed=args.seed)
    out = Path(args.out)
    write_dataset(dataset, out)
    phantom_mod.write_ground_truth_csv(truth, out / "ground_truth.csv")
    phantom_mod.save_spec(spec, out / "phantom_spec.json")
    rois = phantom_mod.suggested_rois(spec, truth)
    write_json(out / "rois.json", rois_to_obj(rois))
    print(f"wrote phantom dataset to {out} ({len(dataset.interleaved)} interleaved sequences)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset = load_dataset(args.dataset)
    n_frames = sum(len(s.frames) for s in dataset.interleaved)
    n_frames += len(dataset.reference_1.frames) + len(dataset.reference_2.frames)
    print(f"ok: {len(dataset.interleaved)} interleaved sequences, {n_frames} frames total")
    return EXIT_OK


def _config_from_args(args) -> ReconstructionConfig:
    return ReconstructionConfig(
        reference=args.reference,
        method=args.method,
        measure=_MEASURES[args.measure],
        threshold_px=getattr(args, "threshold", _DEFAULTS.threshold_px),
        search_radius=args.search_radius,
        min_score=args.min_score,
    )


def _cmd_track(args) -> int:
    config = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    trace, _ = track_configured(dataset, read_json(args.rois, rois_from_obj), config)
    write_trace_csv(trace, args.out)
    print(f"wrote {trace.n_frames} frames x {len(trace.labels)} vessels to {args.out}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    config = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    rois = read_json(args.rois, rois_from_obj)
    t0 = time.perf_counter()  # the stacks are built while they are saved
    volume, report = reconstruct(dataset, rois, config)
    save_reconstruction(volume, report, args.out)
    print(
        f"rate {report.reconstruction_rate:.2f}% "
        f"({int(volume.completeness.sum())}/{volume.completeness.size} cells), "
        f"{time.perf_counter() - t0:.2f}s"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    dataset = load_dataset(args.dataset)
    rois = read_json(args.rois, rois_from_obj)
    try:
        thresholds = tuple(float(t) for t in args.thresholds.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --thresholds value {args.thresholds!r}: {exc}") from exc
    t0 = time.perf_counter()
    cells = sweep(dataset, rois, thresholds=thresholds)
    elapsed = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rates_csv(cells, out / "rates.csv")
    for c in cells:
        print(f"ref{c.reference} {c.method:8s} {c.measure:13s} t={c.threshold_px:<4g} rate {c.rate:6.2f}%")
    print(f"sweep: {len(cells)} cells in {elapsed:.2f}s")
    if args.timing:
        comparison = compare_timing(dataset, rois)
        write_timing_csv(comparison, out / "timing.csv")
        navigators = sum(len(seq.navigators()) for seq in dataset.interleaved)
        print(
            f"timing: full {comparison.full_seconds:.2f}s vs region "
            f"{comparison.region_seconds:.2f}s -> speedup {comparison.speedup:.2f}x; "
            f"{navigators} navigators, widened region {comparison.widened_region}"
        )
    return EXIT_OK


_COMMANDS = {
    "phantom": _cmd_phantom,
    "validate": _cmd_validate,
    "track": _cmd_track,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, DatasetIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProcessingError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
