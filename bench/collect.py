#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 bench/collect.py --workload exact_lowtemp --seeds 1-10 [--trace 1]

Prints one line per run, then a JSON summary: for every metric the ten
values, their median, quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, which is what a metric's
``bound`` in BENCHMARK.json is compared with.  End-to-end runs also
summarise the uncalibrated times of each record as ``uncalibrated.<name>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().split("\n")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return json.loads(lines[-1]), record


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in seed_list(args.seeds):
        result, record = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "tail": record.get("tail"), "ref_loop_per_s": record["ref_loop_per_s"],
                     "loadavg_start": record["loadavg_start"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for name, value in record.get("uncalibrated", {}).items():
            values.setdefault(f"uncalibrated.{name}", []).append(value)
            units[f"uncalibrated.{name}"] = units.get(name, "")
        print(json.dumps(runs[-1] | {k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "runs": runs,
               "metrics": {k: summarise(v) | {"unit": units[k]} for k, v in values.items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
