"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rsicd-analyze --seeds 1-10 [--trace 0] [--seconds N]

For every metric it prints the median over the runs, and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound ``BENCHMARK.json`` gives the metric.
Runs one seed at a time from the current directory, which must be a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="also write every run's JSON result here")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in bounds}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"{'metric':28} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:28} {median:12.6g} {spread:11.4f} {bound if bound is not None else '':>6}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
