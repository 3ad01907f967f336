"""Stroke times in units in the last place against a 40-digit mpmath oracle.

Takes every stroke of the benchmark's seed-0 ``exact_crossover`` and
``exact_lowtemp`` pools (through ``make_pool`` and ``build`` of
``bench/workloads.py``, imported, never changed; ``--sample N`` keeps N
evenly spaced points of each pool) and of the shipped EXACT configs.  Each
stroke's duration comes from ``isothermal_time``/``isochoric_time`` of the
working tree, run in a child process, and, with ``--base REV``, of that
revision's ``src/`` exported with ``git archive``.  The oracle is
``mp_isothermal_time``/``mp_isochoric_time`` of ``tests/conftest.py``; a
stroke's error is ``|duration - oracle| / ulp(oracle)``.

Prints one line per group (pool or config) with the strokes judged, those
left unjudged (the oracle did not resolve the stroke, or the tree raised),
and the max and median ulp of each tree.

    python3 tools/ulp_report.py --sample 64 --base HEAD~1

Needs mpmath; the oracle takes about 10 ms per stroke.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POOLS = ("exact_crossover", "exact_lowtemp")
POOL_SEED = 0
CYCLE_CONFIGS = ("engine_hightemp_bosonic.ini", "engine_lowtemp.ini", "fridge_lowtemp.ini")


def strokes(sample: int | None = None) -> list[tuple[str, list]]:
    """``(group, row)`` per stroke, a row being the plain numbers ``durations`` takes.

    Uses the working tree's ``qstirling`` for the stroke tables.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import qstirling
    import workloads
    from qstirling.config import load_run_config
    from qstirling.timing import _strokes

    def rows(group, spec, model, regen, numerics):
        return [(group, [spec.stat.value, model.a, model.q, isotherm, by, held, start, end,
                         *numerics])
                for _, isotherm, held, start, end, by in _strokes(spec, regen)]

    out = []
    for workload in POOLS:
        pool = workloads.make_pool(workload, POOL_SEED)
        if sample:
            pool = pool[::max(1, len(pool) // sample)][:sample]
        for point in pool:
            out += rows(workload, *workloads.build(qstirling, point), workloads.NUMERICS)
    for name in CYCLE_CONFIGS:
        cfg = load_run_config(str(ROOT / "configs" / name))
        if cfg.mode is qstirling.Mode.EXACT:
            quad = cfg.quad
            out += rows(name, cfg.spec, cfg.model, cfg.regen,
                        (quad.rel_tol, quad.abs_tol, quad.max_subdivisions))
    return out


def durations(rows: list[list]) -> list[float | None]:
    """Each row's stroke duration from whichever ``qstirling`` is first on ``sys.path``; None
    where it raises."""
    import qstirling as qs
    out = []
    for stat, a, q, isotherm, by, held, start, end, *numerics in rows:
        fn = qs.isothermal_time if isotherm else qs.isochoric_time
        try:
            out.append(fn(qs.Statistics(stat), qs.GevaKosloff(a, q), by, held, start, end,
                          qs.QuadratureConfig(*numerics)).duration)
        except Exception:  # a stroke the tree rejects goes unjudged
            out.append(None)
    return out


def oracle(rows: list[list]) -> list[float | None]:
    """Each row's 40-digit duration, rounded to a float; None where it did not resolve."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import qstirling as qs
    from conftest import mp_isochoric_time, mp_isothermal_time
    out = []
    for stat, a, q, isotherm, by, held, start, end, *_ in rows:
        fn = mp_isothermal_time if isotherm else mp_isochoric_time
        try:
            out.append(fn(qs.Statistics(stat), qs.GevaKosloff(a, q), by, held, start, end))
        except ArithmeticError:  # the oracle's own quadrature did not resolve the stroke
            out.append(None)
    return out


def _tree_durations(src: Path, rows: list[list]) -> list[float | None]:
    """``durations(rows)`` run in a child against the tree at ``src``."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import ulp_report; "
            "print(json.dumps(ulp_report.durations(json.load(sys.stdin))))")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(rows), text=True,
                          capture_output=True, env=env, cwd=src.parent, check=True)
    return json.loads(proc.stdout)


def _export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def ulps(values: list[float | None], exact: list[float | None]) -> list[float | None]:
    """``|value - exact| / ulp(exact)`` per stroke; None where either is missing."""
    return [None if v is None or e is None else abs(v - e) / math.ulp(e)
            for v, e in zip(values, exact)]


def report(groups: list[str], trees: dict[str, list[float | None]]) -> str:
    """One line per group: strokes judged and unjudged, then max and median ulp per tree."""
    names = list(trees)
    lines = [f"{'group':<28} {'strokes':>7} {'unjudged':>8}"
             + "".join(f" {name + ' max':>12} {name + ' median':>14}" for name in names)]
    for group in dict.fromkeys(groups):
        picked = [i for i, g in enumerate(groups) if g == group]
        judged = [i for i in picked if all(trees[name][i] is not None for name in names)]
        line = f"{group:<28} {len(judged):>7} {len(picked) - len(judged):>8}"
        for name in names:
            errors = [trees[name][i] for i in judged] or [math.nan]
            line += f" {max(errors):>12.1f} {statistics.median(errors):>14.1f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, metavar="N",
                        help="evenly spaced points per pool (default: every point)")
    parser.add_argument("--base", metavar="REV",
                        help="git revision whose src/ is reported next to the working tree")
    args = parser.parse_args(argv)
    groups, rows = zip(*strokes(args.sample))
    exact = oracle(list(rows))
    trees = {"head": ulps(_tree_durations(ROOT / "src", list(rows)), exact)}
    if args.base:
        with tempfile.TemporaryDirectory(prefix="ulp_report_") as tmp:
            base_src = _export(args.base, Path(tmp))
            trees["base"] = ulps(_tree_durations(base_src, list(rows)), exact)
    sys.stdout.write(report(list(groups), trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
