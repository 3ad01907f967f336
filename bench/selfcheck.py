#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

For every workload in BENCHMARK.json it runs ``bench/run.py --tiny`` once
untraced and twice traced with one seed, and checks that:

* the last line has exactly the keys correct/attempted/failed/metrics and
  carries every metric of BENCHMARK.json with its unit, and nothing else;
* the lines before it name all six end-to-end metrics, fail_frac included;
* fail_frac is failed/attempted, also when ops fail (checked on injected
  failures);
* the traced run's span counts equal the counting pass's deterministic
  counts, and two runs of one seed give identical counts;
* a directory holding only BENCHMARK.json and bench/ is refused.

Prints each broken check and exits 1, or exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
PROBLEMS: list[str] = []


def check(condition: bool, message: str):
    if not condition:
        PROBLEMS.append(message)
        print(f"FAIL {message}", flush=True)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess, label: str):
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    printed = dict(line.split(" = ", 1) for line in lines if " = " in line)
    return result, record, printed


def check_result(label: str, result: dict, expected_units: dict):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(units == expected_units,
          f"{label}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(units.items()) ^ set(expected_units.items()))}")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: non-numeric metric value")
    check(type(result["attempted"]) is int and result["attempted"] >= 1
          and type(result["failed"]) is int, f"{label}: attempted/failed not whole numbers")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")


def check_workload(workload: str, e2e: dict, layers: dict):
    untraced, record, printed = parse(bench(workload, 0), f"{workload} trace 0")
    check_result(f"{workload} trace 0", untraced, e2e)
    for name, unit in (e2e | {"fail_frac": "ratio"}).items():
        check(printed.get(name, "").endswith(f" {unit}"), f"{workload}: {name} not printed")
    check(record["fail_frac"] == untraced["failed"] / untraced["attempted"]
          and record["attempted"] == untraced["attempted"],
          f"{workload}: fail_frac is not failed/attempted")

    traced, traced_record, _ = parse(bench(workload, 1), f"{workload} trace 1")
    again, again_record, _ = parse(bench(workload, 1), f"{workload} trace 1 again")
    check_result(f"{workload} trace 1", traced, layers)
    check(traced_record["trace_counts"]["consistent"]
          and again_record["trace_counts"]["consistent"],
          f"{workload}: traced span counts differ from the counting pass: "
          f"{traced_record['trace_counts']}")
    check(record["counts_per_op"] == traced_record["counts_per_op"]
          == again_record["counts_per_op"], f"{workload}: counts differ between runs of one seed")
    counts = [name for name, unit in layers.items() if unit == "count"]
    check(all(traced["metrics"][n]["value"] == again["metrics"][n]["value"] for n in counts),
          f"{workload}: per-layer counts differ between runs of one seed")


def check_failure_accounting():
    """Injected failures: one op raises, one item's output breaks power*tau = |w_tot|."""
    sys.path.insert(0, str(BENCH_DIR))
    import run
    import verify
    import workloads

    qs = run.import_qstirling()
    pool = workloads.make_pool("exact_crossover", SEED, tiny=True)[:3]
    loop = run.LoopResult()
    loop.n = 10    # items 0, 1, 2 visited 4, 3 and 3 times
    loop.results = {i: workloads.exact_op(qs, p) for i, p in enumerate(pool)}
    loop.results[2] = dataclasses.replace(loop.results[2], tau=2.0 * loop.results[2].tau)
    loop.errors = [(4, 1, "RuntimeError: injected")]
    verdict, failed, failures = run.verify_in_process(qs, verify, "exact_crossover", pool,
                                                      [loop], tiny=True)
    check(failed == 4 and len(failures) == 2,
          f"injected failures: counted {failed} failed ops, expected 1 raised + 3 visits")
    check(any("power_tau" in p for p in verdict.failures), "injected power*tau error not caught")


def check_bare_directory():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact_lowtemp",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[:200]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"checking {workload}", flush=True)
        check_workload(workload, e2e, layers)
    check_failure_accounting()
    check_bare_directory()
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "all checks passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
