#!/usr/bin/env python3
"""Alternating A/B runs of the stage benchmark between two checkouts.

    python3 tools/bench_pairs.py --parent A --change B --workload baseline_bulk \
        --pairs 10 --seed 50 --out BENCH.json

Pair ``i`` runs ``DIR/stagebench/run.py --workload W --seed S+i`` once in
each checkout, with the interpreter running this script, so the run length
and tracing are run.py's own defaults.  Even pairs run the parent first and
odd pairs the change first, so a drift in the host's speed falls on both
sides alike.  ``--out`` holds one JSON entry per workload, and a
run replaces only its own workload's entry.  An entry holds every run's result
and per side the operations attempted and failed, then per side the median
and quartiles of every metric, then for each end-to-end metric of the
change's ``BENCHMARK.json`` the number of pairs the change won, whether
its median beats the parent's by more than the parent's interquartile range,
and whether it is worse than the parent's by more than the metric's
``bound``, a share of the parent's median.  ``src_lines`` holds the line
count of ``src/resp4d/*.py`` in each checkout.
If a run of run.py fails, its stderr is printed, the entry is written with
the runs completed so far and ``"complete": false``, and the exit status is
1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run; the result object is run.py's last stdout line."""
    cmd = [sys.executable, str(checkout / "stagebench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def src_lines(checkout: Path) -> int:
    """Lines of ``src/resp4d/*.py``, counted as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "resp4d").glob("*.py"))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="pair i runs seed + i on both sides")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    report = {
        "workload": args.workload,
        "seeds": list(range(args.seed, args.seed + args.pairs)),
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
        "runs": runs,
    }
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run_once(dirs[side], args.workload, seed)
                runs.append({"pair": i, "seed": seed, "side": side, **result})
                print(f"pair {i} seed {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr}", file=sys.stderr)
        write_entry(args.out, {**report, **operations(runs), "complete": False})
        return 1

    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"]) for side in SIDES}
    names = sorted(set.intersection(*(set(r["metrics"]) for r in runs)))
    summary = {
        side: {name: quartiles([r["metrics"][name] for r in by_side[side]]) for name in names} for side in SIDES
    }
    wins = {}
    for metric in declared:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        gains = [sign * (p["metrics"][name] - c["metrics"][name]) for p, c in zip(by_side["parent"], by_side["change"])]
        parent_median = summary["parent"][name]["median"]
        gain = sign * (parent_median - summary["change"][name]["median"])
        wins[name] = {
            "better": metric["better"],
            "change_won": sum(g > 0 for g in gains),
            "pairs": args.pairs,
            "median_gain": gain,
            "parent_iqr": summary["parent"][name]["iqr"],
            "gain_exceeds_parent_iqr": gain > summary["parent"][name]["iqr"],
            "bound": metric["bound"],
            "worse_than_bound": -gain > metric["bound"] * abs(parent_median),
        }
    write_entry(args.out, {**report, **operations(runs), "complete": True, "summary": summary, "wins": wins})
    print(json.dumps(wins, indent=2))
    return 0


def operations(runs: list[dict]) -> dict:
    """Operations attempted and failed per side, so a larger failed share on either side shows."""
    per_side = {
        side: {key: sum(r[key] for r in runs if r["side"] == side) for key in ("attempted", "failed")}
        for side in SIDES
    }
    return {"operations": per_side, "all_correct": all(r["correct"] for r in runs)}


def write_entry(out: Path, report: dict) -> None:
    """Write ``report`` as its workload's entry of ``out``, keeping the other workloads' entries."""
    reports = json.loads(out.read_text()) if out.exists() else {}
    reports[report["workload"]] = report
    out.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
