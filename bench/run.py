#!/usr/bin/env python3
"""qstirling benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exact_lowtemp --seed 1 --seconds 25 --trace 0

Run from a checkout that holds ``src/qstirling``, ``configs`` and
``tests/golden``.  One process drives one closed-loop client: the next op
starts when the previous one has returned.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` prints the per-layer
metrics, measured by spans around calls into the package (see spans.py).
The last line of standard output is the JSON result; the lines before it
name every metric with its unit and carry the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_CSV = ROOT / "tests" / "golden" / "power_sweep_reference.csv"
GOLDEN_SUMMARY = ROOT / "tests" / "golden" / "power_sweep_reference.summary.json"
REQUIRED = (SRC / "qstirling" / "__init__.py", ROOT / "configs" / "engine_lowtemp.ini",
            ROOT / "configs" / "power_sweep_reference.ini", GOLDEN_CSV, GOLDEN_SUMMARY)

SETUP_REPEATS = 7
WARMUP_OPS = 128
# Fixed percentile ladder; the tail is its highest rung, up to the workload's
# cap, with at least MIN_BEYOND samples beyond it in the whole run.  The cap
# keeps the same percentile on both sides of a comparison when a change
# alters the op count.  On a shared host, stalls of ~1 ms hit 1-2% of
# in-process ops in some runs and not in others, so p99 there measures the
# host; p90 measures the mix.
TAIL_LADDER = (50, 75, 90)
TAIL_CAP = {"cli_cold": 75}
MIN_BEYOND = 10
# Throughput and the tail are taken per block of at least this many ops
# (one rotation for cli_cold), and the run reports the median block.
MIN_BLOCK_OPS = 100
INTERP_REPEATS = 5

# Host-speed calibration.  On a shared host the machine's speed drifts by
# tens of percent within seconds, and every wall time drifts with it.  The
# timed loops therefore run a fixed calibration kernel between segments of
# ops (at least SEGMENT_S of in-process ops) and scale each segment's times
# by CALIBRATION_NOMINAL_S over the median of the CALIBRATION_WINDOW kernel
# times nearest to it: the time the ops would take on a host where the
# kernel takes the nominal time.  The kernel mixes what an op does (Python
# calls, float math, numpy scalar ufuncs) and calls nothing in qstirling, so
# no program change moves it.
CALIBRATION_N = 2000
CALIBRATION_NOMINAL_S = 1.4e-3     # about its median on the 2-core reference box
CALIBRATION_WINDOW = 6
SEGMENT_S = 0.1
# Set-up probes and cli_cold ops start fresh interpreters, whose cost
# (exec, imports, page faults, numpy's thread pool) the in-process kernel
# does not track.  Their kernel, the cold kernel, is a fresh interpreter
# importing numpy and the standard modules the CLI uses; it runs after every
# set-up probe and after every CLI_SEGMENT_OPS cli_cold ops.
COLD_CALIBRATION_CODE = ("import argparse, configparser, csv, dataclasses, enum, json, "
                         "concurrent.futures, numpy")
COLD_CALIBRATION_NOMINAL_S = 0.2
CLI_SEGMENT_OPS = 7

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "fail_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def fail_usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_qstirling():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qstirling
    return qstirling


# -- set-up ----------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, generate, announce readiness."""
    import_qstirling()
    if args.workload == "cli_cold":
        workloads.write_cli_inputs(args.setup_probe, args.seed,
                                   1 if args.tiny else workloads.CLI_ROTATIONS)
    else:
        workloads.make_pool(args.workload, args.seed, args.tiny)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(workload: str, seed: int, tiny: bool, workdir: str) -> list[tuple]:
    """(set-up time in seconds, host speed) for each repeat.

    Fresh interpreter to first op ready: ``import qstirling`` plus input
    generation (for cli_cold, writing its INI files), timed from outside
    the child.
    """
    import shutil
    import subprocess

    samples, kernel = [], [cold_calibration_s()]
    for repeat in range(2 if tiny else SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{repeat}")
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", probe_dir,
               "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        shutil.rmtree(probe_dir, ignore_errors=True)
        if line != b"ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
        kernel.append(cold_calibration_s())
    return list(zip(samples, speeds(kernel, COLD_CALIBRATION_NOMINAL_S)))


# -- helpers -----------------------------------------------------------------------

def calibration_s() -> float:
    """Wall time of the fixed calibration kernel, in seconds."""
    import math

    import numpy

    half = numpy.asarray(0.5)
    clock = time.perf_counter
    t0 = clock()
    acc = 0.0
    for i in range(CALIBRATION_N):
        acc += math.exp(-(i % 13) * 0.1) / (1.0 + i)
        if not i % 4:
            acc += float(numpy.exp(-half))
    return clock() - t0


def cold_calibration_s() -> float:
    """Wall time of the cold calibration kernel, in seconds."""
    import subprocess

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_CALIBRATION_CODE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def speeds(kernel: list[float], nominal: float = CALIBRATION_NOMINAL_S) -> list[float]:
    """Host speed relative to nominal in each interval between consecutive kernel runs.

    Each interval takes the median of the CALIBRATION_WINDOW kernel times
    nearest to it, so that one kernel run cut short by the host does not
    rescale the work beside it.
    """
    half = CALIBRATION_WINDOW // 2
    return [nominal / statistics.median(kernel[max(0, k + 1 - half):k + 1 + half])
            for k in range(len(kernel) - 1)]


def tail(latencies, cap: int) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) by the nearest-rank method."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = None
    for p in TAIL_LADDER:
        if p > cap:
            break
        rank = -(-p * n // 100)          # ceil(p*n/100)
        if n - rank >= MIN_BEYOND or chosen is None:
            chosen = (ordered[max(rank, 1) - 1], p, n - rank)
    return chosen


def block_percentile(latencies, percentile: int) -> float:
    ordered = sorted(latencies)
    return ordered[max(-(-percentile * len(ordered) // 100), 1) - 1]


def git_sha() -> str:
    import subprocess

    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


# -- in-process loops --------------------------------------------------------------

class LoopResult:
    def __init__(self):
        self.n = 0
        self.wall = 0.0
        self.latencies = []         # seconds, as measured
        self.speeds = []            # host speed of each op's segment
        self.blocks = []            # (first op, end op, calibrated ops per second)
        self.errors = []            # (op number, item index, reason)
        self.results = {}           # item index (or op number with keep_all) -> output

    @property
    def rate(self) -> float:
        """Median calibrated throughput over the run's blocks."""
        return statistics.median(rate for _, _, rate in self.blocks)

    @property
    def calibrated_latencies(self) -> list[float]:
        return [lat * s for lat, s in zip(self.latencies, self.speeds)]


def timed_loop(op, items, seconds: float, multiple_of: int = 1, keep_all: bool = False,
               segment_s: float = SEGMENT_S, segment_ops: int = 1,
               block_ops: int = MIN_BLOCK_OPS, calibrate=calibration_s,
               nominal: float = CALIBRATION_NOMINAL_S) -> LoopResult:
    """Closed loop over ``items`` for ``seconds`` of wall time.

    Ops run in segments of at least ``segment_s`` and whole multiples of
    ``segment_ops`` ops, with the ``calibrate`` kernel between segments.
    Once time is up the loop still runs on to the end of a multiple, so a
    fixed mix is measured in whole rotations.  Consecutive segments form
    blocks of at least ``block_ops`` ops; a short last block is dropped.
    Outputs are kept per item, or per op with ``keep_all``.
    """
    from array import array

    out = LoopResult()
    lat = array("d")
    results = out.results
    size = len(items)
    clock = time.perf_counter
    kernel = [calibrate()]
    segments = []               # (ops, wall)
    start = clock()
    deadline = start + seconds
    t1 = start
    n = 0
    while t1 < deadline or n % multiple_of:
        first = n
        segment_start = clock()
        while True:
            index = n % size
            t0 = clock()
            try:
                res = op(items[index])
            except Exception as exc:
                res = None
                out.errors.append((n, index, f"{type(exc).__name__}: {exc}"))
            t1 = clock()
            lat.append(t1 - t0)
            if res is not None:
                results[n if keep_all else index] = res
            n += 1
            if not (n - first) % segment_ops and (t1 - segment_start >= segment_s
                                                  or t1 >= deadline):
                break
        segments.append((n - first, t1 - segment_start))
        kernel.append(calibrate())
    out.n, out.wall, out.latencies = n, clock() - start, lat
    first, end, busy = 0, 0, 0.0
    for (count, wall), s in zip(segments, speeds(kernel, nominal)):
        out.speeds.extend([s] * count)
        end, busy = end + count, busy + wall * s
        if end - first >= block_ops:
            out.blocks.append((first, end, (end - first) / busy))
            first, busy = end, 0.0
    if not out.blocks:
        out.blocks.append((0, n, n / busy))
    return out


def snapshot(tracer) -> dict[str, int]:
    counts = {f"calls:{k}": v[0] for k, v in tracer.stats.items()}
    counts.update(tracer.work_counts())
    return counts


def counting_pass(op, items, tracer_cls) -> dict[str, list[int]]:
    """Run every item once under a tracer; per-item span calls and GK15 work.

    These are the deterministic work counts: the same items give the same
    numbers on every run.
    """
    tracer = tracer_cls()
    per_item: dict[str, list[int]] = {}
    with tracer:
        for i, item in enumerate(items):
            before = snapshot(tracer)
            try:
                op(item)
            except Exception:
                pass   # the timed loop records and reports failures
            after = snapshot(tracer)
            for key in after.keys() | before.keys():
                per_item.setdefault(key, [0] * len(items))[i] = after.get(key, 0) - before.get(key, 0)
    return per_item


def expected_counts(per_item: dict[str, list[int]], n_ops: int) -> dict[str, int]:
    """Counts a loop of ``n_ops`` ops over the items must produce, from the counting pass."""
    out = {}
    for key, values in per_item.items():
        full, rest = divmod(n_ops, len(values))
        total = full * sum(values) + sum(values[:rest])
        if total:
            out[key] = total
    return out


def visits(index: int, n_ops: int, size: int) -> int:
    return n_ops // size + (1 if index < n_ops % size else 0)


def cli_main_op(cli):
    """In-process ``qstirling`` invocation with captured output, as ``python -m`` runs it."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    def op(cli_op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(cli_op.argv))
        return code, out.getvalue(), err.getvalue()
    return op


# -- verification ------------------------------------------------------------------

def verify_in_process(qs, verify, workload, pool, loops, tiny) -> tuple:
    """Check each distinct output once; failed ops are counted per visit of a bad item."""
    import random

    v = verify.Verdict()
    outputs = {}
    for loop in loops:
        outputs.update(loop.results)
    check = verify.check_closed_form if workload == "closed_form_scan" else verify.check_exact
    bad_items = {}
    for index in sorted(outputs):
        before = len(v.failures)
        check(v, qs, workloads.build, pool[index], outputs[index], f"item {index}")
        if len(v.failures) > before:
            bad_items[index] = v.failures[before]
    if workload != "closed_form_scan":
        rng = random.Random(f"oracle:{workload}:{pool[0].x_min!r}")
        count = verify.TINY_ORACLE_POINTS if tiny else verify.ORACLE_POINTS
        for index in rng.sample(sorted(outputs), min(count, len(outputs))):
            before = len(v.failures)
            verify.check_oracle(v, pool[index], outputs[index], workloads.NUMERICS[0],
                                f"item {index} oracle")
            if len(v.failures) > before:
                bad_items.setdefault(index, v.failures[before])
    failed, failures = 0, []
    for loop in loops:
        raised = {}
        for n, index, reason in loop.errors:
            raised[index] = raised.get(index, 0) + 1
            failures.append({"op": n, "item": index, "point": pool[index]._asdict(),
                             "reason": reason})
        failed += len(loop.errors)
        for index, reason in bad_items.items():
            count = visits(index, loop.n, len(pool)) - raised.get(index, 0)
            failed += count
            failures.append({"ops": count, "item": index, "point": pool[index]._asdict(),
                             "reason": reason})
    return v, failed, failures


def verify_cli(qs, verify, entries, tiny) -> tuple:
    """Check CLI outputs; ``entries`` holds (where, op, (code, stdout, stderr), ops it stands for)."""
    import random

    v = verify.Verdict()
    golden = GOLDEN_CSV.read_text(encoding="utf-8") + GOLDEN_SUMMARY.read_text(encoding="utf-8")
    library = {}
    failed, failures = 0, []
    for where, op, (code, out, err), weight in entries:
        where = f"{where} {op.label}"
        before = len(v.failures)
        if code != op.expect_exit:
            v.fail(where, f"exit code {code}, expected {op.expect_exit}: {err.strip()[-200:]}")
        elif "Traceback" in err:
            v.fail(where, "traceback on stderr")
        elif op.label == "ordering-violation":
            if "ordering violated" not in err or "beta1 < beta2" not in err or out:
                v.fail(where, f"unexpected ordering message {err.strip()!r}")
        elif op.label == "power-sweep":
            if out != golden:
                v.fail(where, "output differs from tests/golden/power_sweep_reference.*")
        elif op.label == "regime-map":
            grid = int(op.argv[op.argv.index("--grid") + 1])
            verify.check_regime_map(v, qs, out, grid, where)
        elif op.label == "validate":
            verify.check_validate(v, out, where)
        else:
            key = (op.point, op.mode)
            if key not in library:
                spec, model, regen = workloads.build(qs, op.point)
                fn = workloads.performance_fn(qs, op.point.kind)
                library[key] = fn(spec, model, regen, qs.QuadratureConfig(*workloads.NUMERICS),
                                  qs.Mode(op.mode))
                verify.check_report(v, library[key], where)
            verify.check_cycle_output(v, out, op, verify.expected_cycle_fields(library[key]),
                                      where)
        if len(v.failures) > before:
            failed += weight
            failures.append({"where": where, "ops": weight, "reason": v.failures[before]})
    exact = sorted((k for k in library if k[1] == "exact"), key=repr)
    rng = random.Random(f"oracle:cli:{exact[0][0].x_min!r}" if exact else "oracle:cli")
    count = verify.TINY_ORACLE_POINTS if tiny else verify.ORACLE_POINTS
    for point, mode in rng.sample(exact, min(count, len(exact))):
        before = len(v.failures)
        verify.check_oracle(v, point, library[(point, mode)], workloads.NUMERICS[0],
                            f"{point.kind}/exact oracle")
        if len(v.failures) > before:
            failures.append({"where": f"{point.kind}/exact oracle", "ops": 0,
                             "reason": v.failures[before]})
    return v, failed, failures


# -- per-layer probes ------------------------------------------------------------

CLI_COMMANDS = ("engine", "fridge", "power-sweep", "regime-map", "validate")


def interpreter_times(repeats: int) -> dict[str, float]:
    """Median wall time of bare start, ``import numpy`` and ``import qstirling``."""
    import subprocess

    out = {}
    for name, code in (("cli.interp_start_s", "pass"), ("cli.import_numpy_s", "import numpy"),
                       ("cli.import_qstirling_s", "import qstirling")):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
            samples.append(time.perf_counter() - t0)
        out[name] = statistics.median(samples)
    return out


def cli_probe(spans, main_op, rotation):
    """In-process ``cli.main`` over one rotation: untraced ms per command, then a traced pass."""
    times = {c: [] for c in CLI_COMMANDS}
    for cli_op in rotation:
        t0 = time.perf_counter()
        main_op(cli_op)
        if cli_op.label != "ordering-violation":
            times[cli_op.argv[0]].append(time.perf_counter() - t0)
    tracer = spans.Tracer()
    with tracer:
        for cli_op in rotation:
            main_op(cli_op)
    return {f"cli.main_ms.{c}": 1e3 * statistics.median(t) for c, t in times.items()}, tracer


# per-layer times: (name, span keys, column 1 = inclusive / 2 = self, ns per unit)
_LAYER_TIMES = (
    ("quadrature.self_us", ("quadrature.integrate",), 2, 1e3),
    ("timing.stroke_us", ("timing.stroke",), 1, 1e3),
    ("timing.integrand.self_us", ("timing.integrand",), 2, 1e3),
    ("timing.closed_form_us", ("timing.closed_form",), 1, 1e3),
    ("statistics.population.self_us", ("statistics.population",), 2, 1e3),
    ("statistics.integrate_path.self_ms", ("statistics.integrate_path",), 2, 1e6),
    ("cycles.ledger.self_us", ("cycles.ledger",), 2, 1e3),
    ("performance.exact_us", ("performance.exact",), 1, 1e3),
    ("performance.low_temp_us", ("performance.low_temp",), 1, 1e3),
    ("performance.high_temp_us", ("performance.high_temp",), 1, 1e3),
    ("performance.self_us",
     ("performance.exact", "performance.low_temp", "performance.high_temp"), 2, 1e3),
    ("config.load_us", ("config.load",), 1, 1e3),
)
# per-op deterministic counts from the counting pass: (name, keys)
_LAYER_COUNTS = (
    ("quadrature.integrate.calls", ("integrate_calls",)),
    ("quadrature.panel_evals", ("panel_evals",)),
    ("quadrature.integrand_evals", ("integrand_evals",)),
    ("timing.strokes", ("calls:timing.stroke",)),
    ("statistics.population.calls", ("calls:statistics.population",)),
    ("cycles.ledger.calls", ("calls:cycles.ledger",)),
    ("relaxation.calls", ("calls:relaxation.model_init", "calls:relaxation.call")),
)
_SHARE_LAYERS = ("quadrature", "timing", "statistics", "cycles", "performance", "relaxation")

PER_LAYER_UNITS = {
    **{name: "count" for name, _ in _LAYER_COUNTS},
    **{name: ("ms" if name.endswith("_ms") else "us") for name, *_ in _LAYER_TIMES},
    **{f"{layer}.share": "ratio" for layer in _SHARE_LAYERS},
    "quadrature.failures": "count",
    "cli.interp_start_s": "s", "cli.import_numpy_s": "s", "cli.import_qstirling_s": "s",
    **{f"cli.main_ms.{c}": "ms" for c in CLI_COMMANDS},
    "host.ref_loop_per_s": "1/s", "trace.overhead_frac": "ratio",
    "verify.max_rel_err": "ratio", "verify.oracle_points": "count",
    "verify.fail_frac": "ratio",
}


def layer_metrics(traced, traced_loop, per_item, probe) -> tuple[dict, dict]:
    """Per-layer values: times from the traced loop, else from the in-process CLI probe.

    Counts are per op over one pass of the counting pass, so the same seed
    always gives the same numbers.  Shares are self time over traced op time.
    """
    values, source = {}, {}
    for name, keys, column, unit_ns in _LAYER_TIMES:
        for label, tracer in (("workload", traced), ("cli_probe", probe)):
            ns = tracer.per_call_ns(keys, column)
            if ns is not None:
                values[name], source[name] = ns / unit_ns, label
                break
        else:
            values[name], source[name] = 0.0, "not called"
    size = len(next(iter(per_item.values())))
    for name, keys in _LAYER_COUNTS:
        values[name] = sum(sum(per_item.get(k, ())) for k in keys) / size
    values["quadrature.failures"] = traced.counters["failures"]
    op_ns = sum(traced_loop.latencies) * 1e9
    for layer in _SHARE_LAYERS:
        values[f"{layer}.share"] = traced.layer_self.get(layer, 0) / op_ns
    return values, source


def traced_metrics(spans, op, items, per_item, main_op, rotation, args, record,
                   multiple_of: int = 1):
    """Untraced then traced loop, half the run each, plus the CLI and start-up probes."""
    untraced = timed_loop(op, items, args.seconds / 2, multiple_of)
    tracer = spans.Tracer()
    with tracer:
        traced = timed_loop(op, items, args.seconds / 2, multiple_of)
    expected = expected_counts(per_item, traced.n)
    seen = {k: v for k, v in snapshot(tracer).items() if v}
    consistent = seen == expected
    record["trace_counts"] = {"traced_ops": traced.n, "consistent": consistent}
    if not consistent:
        record["trace_counts"]["mismatch"] = {
            k: [seen.get(k), expected.get(k)] for k in seen.keys() | expected.keys()
            if seen.get(k) != expected.get(k)}
    metrics = {"trace.overhead_frac": 1.0 - traced.rate / untraced.rate}
    metrics.update(interpreter_times(2 if args.tiny else INTERP_REPEATS))
    main_ms, probe = cli_probe(spans, main_op, rotation)
    metrics.update(main_ms)
    values, record["layer_source"] = layer_metrics(tracer, traced, per_item, probe)
    metrics.update(values)
    return [untraced, traced], metrics, consistent


# -- the run ----------------------------------------------------------------------

def e2e_from_loop(loop, workload: str, record: dict, rss_mb: float) -> dict:
    """Calibrated end-to-end metrics; the record keeps the uncalibrated ones beside them."""
    cap = TAIL_CAP.get(workload, 90)
    calibrated = loop.calibrated_latencies
    _, percentile, beyond = tail(calibrated, cap)
    value = statistics.median(block_percentile(calibrated[a:b], percentile)
                              for a, b, _ in loop.blocks)
    record["tail"] = {"percentile": percentile, "samples": loop.n, "beyond": beyond,
                      "blocks": len(loop.blocks)}
    record["uncalibrated"] = {"ops_per_s": loop.n / loop.wall,
                              "op_p50_ms": 1e3 * statistics.median(loop.latencies),
                              "op_tail_ms": 1e3 * tail(loop.latencies, cap)[0]}
    record["host_speed"] = {"min": min(loop.speeds), "median": statistics.median(loop.speeds),
                            "max": max(loop.speeds)}
    return {"ops_per_s": loop.rate, "op_p50_ms": 1e3 * statistics.median(calibrated),
            "op_tail_ms": 1e3 * value, "peak_rss_mb": rss_mb}


def run_in_process(qs, spans, verify, args, rotation, record) -> tuple:
    pool = workloads.make_pool(args.workload, args.seed, args.tiny)
    raw_op = workloads.OPS[args.workload]

    def op(point):
        return raw_op(qs, point)

    for point in pool[:WARMUP_OPS]:
        op(point)
    consistent = True
    if not args.trace:
        loop = timed_loop(op, pool, args.seconds)
        metrics = e2e_from_loop(loop, args.workload, record, peak_rss_mb(children=False))
        loops = [loop]
        per_item = counting_pass(op, pool, spans.Tracer)
    else:
        from qstirling import cli

        per_item = counting_pass(op, pool, spans.Tracer)
        loops, metrics, consistent = traced_metrics(spans, op, pool, per_item,
                                                    cli_main_op(cli), rotation, args, record)
    record["counts_per_op"] = {k: sum(v) / len(pool) for k, v in sorted(per_item.items())}
    verdict, failed, failures = verify_in_process(qs, verify, args.workload, pool, loops,
                                                  args.tiny)
    return metrics, loops, verdict, failed, failures, consistent


def run_cli(qs, spans, verify, args, plan, record) -> tuple:
    import subprocess

    from qstirling import cli

    rotation = plan[0]
    main_op = cli_main_op(cli)
    consistent = True
    if not args.trace:
        items = [cli_op for ops in plan for cli_op in ops]
        env = child_env()

        def op(cli_op):
            proc = subprocess.run([sys.executable, "-m", "qstirling", *cli_op.argv],
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        loop = timed_loop(op, items, args.seconds, multiple_of=len(rotation), keep_all=True,
                          segment_s=0.0, segment_ops=CLI_SEGMENT_OPS,
                          block_ops=len(rotation), calibrate=cold_calibration_s,
                          nominal=COLD_CALIBRATION_NOMINAL_S)
        metrics = e2e_from_loop(loop, args.workload, record, peak_rss_mb(children=True))
        loops = [loop]
        entries = [(f"op {n}", items[n % len(items)], loop.results[n], 1)
                   for n in sorted(loop.results)]
        per_item = counting_pass(main_op, rotation, spans.Tracer)
    else:
        items = rotation
        per_item = counting_pass(main_op, rotation, spans.Tracer)
        loops, metrics, consistent = traced_metrics(spans, main_op, rotation, per_item, main_op,
                                                    rotation, args, record,
                                                    multiple_of=len(rotation))
        entries = [(f"item {i}", rotation[i], loop.results[i], visits(i, loop.n, len(rotation)))
                   for loop in loops for i in sorted(loop.results)]
    record["counts_per_op"] = {k: sum(v) / len(rotation) for k, v in sorted(per_item.items())}
    verdict, failed, failures = verify_cli(qs, verify, entries, args.tiny)
    for loop in loops:
        for n, index, reason in loop.errors:
            failed += 1
            failures.append({"where": f"op {n} {items[index].label}", "ops": 1,
                             "reason": reason})
    return metrics, loops, verdict, failed, failures, consistent


def engine_lowtemp_ini_counts(qs, spans) -> dict:
    """GK15 work of the shipped configs/engine_lowtemp.ini EXACT point."""
    from qstirling.config import load_run_config

    cfg = load_run_config(str(ROOT / "configs" / "engine_lowtemp.ini"))
    tracer = spans.Tracer()
    with tracer:
        qs.engine_performance(cfg.spec, cfg.model, cfg.regen, cfg.quad, cfg.mode)
    return tracer.work_counts()


def run(args) -> dict:
    import shutil

    import spans
    import verify

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "git_sha": git_sha(),
              "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "loadavg_start": os.getloadavg()}
    kernel = [calibration_s() for _ in range(5)]
    workdir = str(ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # set-up is an end-to-end metric; the traced run does not report it
        setup = [] if args.trace else measure_setup(args.workload, args.seed, args.tiny, workdir)
        qs = import_qstirling()
        import numpy
        record.update(numpy=numpy.__version__, setup_samples=setup)
        if args.workload == "cli_cold":
            rotations = 1 if args.tiny else workloads.CLI_ROTATIONS
            measured = run_cli(qs, spans, verify, args,
                               workloads.write_cli_inputs(workdir, args.seed, rotations), record)
        else:
            rotation = workloads.write_cli_inputs(workdir, args.seed, 1)[0] if args.trace else None
            measured = run_in_process(qs, spans, verify, args, rotation, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass   # another run still uses it
    metrics, loops, verdict, failed, failures, consistent = measured
    kernel += [calibration_s() for _ in range(5)]
    attempted = sum(loop.n for loop in loops)
    fail_frac = failed / attempted
    record.update(loadavg_end=os.getloadavg(),
                  ref_loop_per_s=CALIBRATION_N / statistics.median(kernel),
                  engine_lowtemp_ini_counts=engine_lowtemp_ini_counts(qs, spans),
                  attempted=attempted, failed=failed, fail_frac=fail_frac,
                  failures=failures[:200], failure_entries=len(failures),
                  verify={"max_rel_err": verdict.max_rel_err,
                          "max_err_by_check": verdict.max_err,
                          "oracle_points": verdict.oracle_points,
                          "problems": verdict.failures[:50]})
    if args.trace:
        metrics.update({"host.ref_loop_per_s": record["ref_loop_per_s"],
                        "verify.max_rel_err": verdict.max_rel_err,
                        "verify.oracle_points": verdict.oracle_points,
                        "verify.fail_frac": fail_frac})
        units = PER_LAYER_UNITS
    else:
        metrics.update(setup_s=statistics.median(t * s for t, s in setup), fail_frac=fail_frac)
        record["uncalibrated"]["setup_s"] = statistics.median(t for t, _ in setup)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print("record " + json.dumps(record, sort_keys=True, default=str))
    # fail_frac is 0 whenever the program is correct, so BENCHMARK.json cannot
    # bound it relative to a median; the result carries it as failed/attempted
    metrics.pop("fail_frac", None)
    correct = failed == 0 and not verdict.failures and consistent
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small pools and repeats, for the self-check")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        fail_usage(f"not a qstirling checkout (missing {', '.join(missing)}); "
                   f"run from the repository root")
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
