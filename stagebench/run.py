#!/usr/bin/env python3
"""Stage-level benchmark of resp4d on three phantom workloads.

    python3 stagebench/run.py --workload updating_region --seed 0 --seconds 40 --trace 0
    python3 stagebench/run.py --smoke

Paths are resolved from this file, so any working directory works.  One run
renders its workload's session from ``--seed`` five times (set-up), then
repeats the workload's operation until ``--seconds`` have passed, checks
every operation's outputs against ground truth, and prints one JSON object
as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``).  With ``--trace 1`` every second operation runs
with timing wrappers installed and the metrics are the per-layer ones.
``--smoke`` runs each workload once at reduced size, traced, and exits 0
when every output check passed.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
from checks import OutputCounts, read_dataset_files

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".stagebench"
SETUP_REPEATS = 5
RECONSTRUCT_SPANS = ("reconstructor.reconstruct", "evalharness.reconstruct")


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    counts: OutputCounts | None  # None when the operation failed
    bytes_written: int


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, repeat the operation for ``seconds``, and return the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    setup_s: list[float] = []
    records: list[OpRecord] = []
    try:
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.op = -1 - k
            t0 = time.perf_counter()
            inputs = workload.setup(seed, work / f"input{k}", tracer, smoke)
            setup_s.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(work / f"input{k - 1}")
        files = read_dataset_files(inputs.dataset_dir)
        bytes_read = _tree_bytes(inputs.dataset_dir)

        deadline = time.perf_counter() + seconds
        while len(records) < (2 if trace else 1) or time.perf_counter() < deadline:
            index = len(records)
            traced = trace and index % 2 == 1
            out = work / f"out{index}"
            if tracer is not None:
                tracer.op = index
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                if traced:
                    with tracer.installed():
                        workload.operation(inputs, out, tracer)
                else:
                    workload.operation(inputs, out)
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                problems, counts = workload.check(out, inputs, files)
            except Exception:  # a failed operation is counted, not fatal to the run
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                problems, counts = [traceback.format_exc()], None
            for problem in problems[:5]:
                print(f"{name} op {index}: {problem}", file=sys.stderr)
            records.append(OpRecord(index, traced, wall, cpu, None if problems else counts, _tree_bytes(out)))
            shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.op = -1
            tracing.write_spans(tracer.spans, WORK / f"spans-{name}-seed{seed}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passed = [r for r in records if r.counts is not None]
    if trace:
        metrics = _layer_metrics(tracer, records, passed, bytes_read)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "run_s": _metric(statistics.median(r.wall_s for r in passed or records), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": _counters_agree(tracer, passed),
        "attempted": len(records),
        "failed": len(records) - len(passed),
        "metrics": metrics,
    }


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _counters_agree(tracer, passed: list[OpRecord]) -> bool:
    """Deterministic counters must repeat exactly from operation to operation."""
    outputs = {(r.counts.decisions, r.counts.accepted) for r in passed}
    matcher = set()
    if tracer is not None:
        matcher = {
            (tracer.matcher[r.index].calls, tracer.matcher[r.index].placements)
            for r in passed
            if r.traced
        }
    if len(outputs) > 1 or len(matcher) > 1:
        print(f"error: deterministic counters differ between operations: {outputs} {matcher}", file=sys.stderr)
        return False
    return True


def _layer_metrics(tracer, records: list[OpRecord], passed: list[OpRecord], bytes_read: int) -> dict:
    totals = tracing.span_totals(tracer.spans)

    def seconds(op: int, *names: str, own: bool = False) -> float:
        return sum(totals.get(op, {}).get(n, (0, 0.0, 0.0))[2 if own else 1] for n in names)

    def calls(op: int, name: str) -> int:
        return totals.get(op, {}).get(name, (0, 0.0, 0.0))[0]

    setups = [op for op in totals if op < 0]
    traced = [r for r in passed if r.traced] or [r for r in records if r.traced]
    per_op = []
    for r in traced:
        m = tracer.matcher.get(r.index, tracing.MatcherCounts())
        match_s = seconds(r.index, "matcher.match_template")
        reconstructs = calls(r.index, "evalharness.reconstruct")
        saved = calls(r.index, "reconstructor.save_reconstruction") > 0
        per_op.append(
            {
                "imgcore.load_s": (seconds(r.index, "imgcore.load_dataset"), "s"),
                "tracker.track_reference_s": (seconds(r.index, "tracker.track_reference"), "s"),
                "tracker.locate_s": (seconds(r.index, "tracker.locate_in_navigator"), "s"),
                "tracker.locate_calls": (calls(r.index, "tracker.locate_in_navigator"), "count"),
                "matcher.match_s": (match_s, "s"),
                "matcher.calls": (m.calls, "count"),
                "matcher.placements": (m.placements, "count"),
                "matcher.full_frame_placements": (m.full_frame_placements, "count"),
                "matcher.widened": (m.widened, "count"),
                "matcher.madds": (m.madds, "count"),
                "matcher.placements_per_s": (m.placements / match_s if match_s else 0.0, "1/s"),
                "reconstructor.reconstruct_s": (seconds(r.index, *RECONSTRUCT_SPANS), "s"),
                "reconstructor.self_s": (seconds(r.index, *RECONSTRUCT_SPANS, own=True), "s"),
                "reconstructor.average_s": (seconds(r.index, "reconstructor.average_bin"), "s"),
                "reconstructor.bins_filled": (calls(r.index, "reconstructor.average_bin"), "count"),
                "reconstructor.save_s": (seconds(r.index, "reconstructor.save_reconstruction"), "s"),
                "reconstructor.bytes_written": (r.bytes_written if saved else 0, "B"),
                "evalharness.sweep_s": (seconds(r.index, "evalharness.sweep"), "s"),
                "evalharness.reconstructs": (reconstructs, "count"),
                "evalharness.matcher_calls_per_cell": (m.calls / reconstructs if reconstructs else 0.0, "count"),
            }
        )
    metrics = {
        "phantom.generate_s": _metric(statistics.median(seconds(op, "phantom.generate_phantom") for op in setups), "s"),
        "imgcore.write_s": _metric(statistics.median(seconds(op, "imgcore.write_dataset") for op in setups), "s"),
        "imgcore.bytes_read": _metric(bytes_read, "B"),
    }
    # median_low keeps counts whole: it returns one of the measured values
    for key, (_, unit) in per_op[0].items():
        metrics[key] = _metric(statistics.median_low(values[key][0] for values in per_op), unit)
    counts = passed[0].counts if passed else OutputCounts(0, 0, 0.0)
    metrics["reconstructor.decisions"] = _metric(counts.decisions, "count")
    metrics["reconstructor.accepted"] = _metric(counts.accepted, "count")
    metrics["reconstructor.rate_pct"] = _metric(counts.rate_pct, "%")
    plain = [r for r in records if not r.traced]
    metrics["process.cpu_s"] = _metric(statistics.median(r.cpu_s for r in plain), "s")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(r.wall_s for r in records if r.traced) - statistics.median(r.wall_s for r in plain), "s"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at reduced size")
    args = parser.parse_args(argv)

    if not (SRC / "resp4d" / "__init__.py").is_file():
        print(f"error: no resp4d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result = run_workload(name, args.seed, 0.0, trace=True, smoke=True)
            ok &= result["correct"] and result["failed"] == 0
            print(json.dumps({"workload": name, **result}))
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
