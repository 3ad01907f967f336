"""Stroke times in units in the last place against a 40-digit mpmath oracle.

Takes every stroke of the benchmark's seed-0 ``exact_crossover`` and
``exact_lowtemp`` pools (through ``make_pool`` and ``build`` of
``bench/workloads.py``, imported, never changed), of the shipped EXACT
configs, and the library calls of ``STROKES`` in ``tools/output_parity.py``,
which reach the strokes no pool point does (ends near the bottom of the float
range, a gap that rounds to zero); ``--sample N`` keeps N evenly spaced points
of each pool and N evenly spaced ``STROKES``.  Each stroke's duration comes
from ``isothermal_time``/``isochoric_time`` of the working tree, run in a
child process, and, with ``--base REV``, of that revision's ``src/`` exported
with ``git archive``.  The oracle is ``mp_isothermal_time``/
``mp_isochoric_time`` of ``tests/conftest.py``; a stroke's error is
``|duration - oracle| / ulp(oracle)``.

Prints one line per group (pool, config or ``STROKES``) with the strokes
judged, those left unjudged (the oracle did not resolve the stroke, or the
tree raised), and the max and median ulp of each tree.  A second table gives,
per group and tree, how many strokes each method of ``timing._linear_time``
took: ``series``, ``high_temp``, ``gauss_legendre`` or ``gk15``, ``split`` for
a stroke summed as a high-temperature head and a rest, or ``raised`` for a
stroke the tree rejected.

    python3 tools/ulp_report.py --sample 64 --base HEAD~1

Needs mpmath; the oracle takes 10 to 40 ms per stroke.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POOLS = ("exact_crossover", "exact_lowtemp")
POOL_SEED = 0
CYCLE_CONFIGS = ("engine_hightemp_bosonic.ini", "engine_lowtemp.ini", "fridge_lowtemp.ini")
# the names each method's result comes from; a stroke none of them returns took the
# high-temperature form, and one that PIECES sums more than once is split
METHODS = {"integrate_linear": "series", "_gauss_legendre": "gauss_legendre", "integrate": "gk15"}
PIECES = "_ascending_time"
METHOD_COLUMNS = ("series", "high_temp", "gauss_legendre", "gk15", "split", "raised")


def strokes(sample: int | None = None) -> list[tuple[str, list]]:
    """``(group, row)`` per stroke, a row being the plain numbers ``durations`` takes.

    Uses the working tree's ``qstirling`` for the stroke tables.  A ``STROKES``
    row carries no numerics: each tree times it at its default config.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
    import qstirling
    import workloads
    from output_parity import STROKES
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
    # each call's arguments, read by evaluating it with stand-ins for the stroke functions
    stand_ins = {"isothermal_time": lambda *args: (True, args),
                 "isochoric_time": lambda *args: (False, args)}
    calls = STROKES[::max(1, len(STROKES) // sample)][:sample] if sample else STROKES
    for call in calls:
        isotherm, (stat, model, by, held, start, end) = eval(call, {**vars(qstirling),
                                                                     **stand_ins})
        out.append(("STROKES", [stat.value, model.a, model.q, isotherm, by, held, start, end]))
    return out


def durations(rows: list[list]) -> list[tuple[float | None, str]]:
    """Each row's stroke duration and method from whichever ``qstirling`` is first on
    ``sys.path``; None and ``raised`` where it raises."""
    import qstirling as qs
    import qstirling.timing
    taken = []

    def recording(name, real):
        def wrapped(*args):
            result = real(*args)
            if result is not None:  # None: the series or Gauss-Legendre declined the stroke
                taken.append(METHODS.get(name, name))
            return result
        return wrapped

    for name in (*METHODS, PIECES):
        if hasattr(qstirling.timing, name):  # an older tree may lack a method
            setattr(qstirling.timing, name, recording(name, getattr(qstirling.timing, name)))
    out = []
    for stat, a, q, isotherm, by, held, start, end, *numerics in rows:
        fn = qs.isothermal_time if isotherm else qs.isochoric_time
        taken.clear()
        try:
            duration = fn(qs.Statistics(stat), qs.GevaKosloff(a, q), by, held, start, end,
                          qs.QuadratureConfig(*numerics)).duration
        except Exception:  # a stroke the tree rejects goes unjudged
            out.append((None, "raised"))
        else:
            methods = [m for m in taken if m != PIECES] or ["high_temp"]
            out.append((duration, "split" if taken.count(PIECES) > 1 else methods[-1]))
    return out


def oracle(rows: list[list]) -> list[float | None]:
    """Each row's 40-digit duration, rounded to a float; None where it did not resolve or is
    not finite."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import qstirling as qs
    from conftest import mp_isochoric_time, mp_isothermal_time
    out = []
    for stat, a, q, isotherm, by, held, start, end, *_ in rows:
        fn = mp_isothermal_time if isotherm else mp_isochoric_time
        try:
            value = fn(qs.Statistics(stat), qs.GevaKosloff(a, q), by, held, start, end)
        except ArithmeticError:  # the oracle's own quadrature did not resolve the stroke
            value = None
        # an infinite or nan value: a stroke past the float range, or an infinite end
        out.append(value if value is not None and math.isfinite(value) else None)
    return out


def _tree_durations(src: Path, rows: list[list]) -> list[list]:
    """``durations(rows)`` run in a child against the tree at ``src``."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import ulp_report; "
            "print(json.dumps(ulp_report.durations(json.load(sys.stdin))))")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(rows), text=True,
                          capture_output=True, env=env, cwd=src.parent, check=True)
    return json.loads(proc.stdout)


def ulps(values: list[float | None], exact: list[float | None]) -> list[float | None]:
    """``|value - exact| / ulp(exact)`` per stroke; None where either is missing."""
    return [None if v is None or e is None else abs(v - e) / math.ulp(e)
            for v, e in zip(values, exact)]


def report(groups: list[str], trees: dict[str, list[float | None]],
           methods: dict[str, list[str]]) -> str:
    """One line per group: strokes judged and unjudged, then max and median ulp per tree;
    then one line per group and tree: the strokes each method took."""
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
    lines += ["", f"{'group':<28} {'tree':<4}" + "".join(f" {m:>14}" for m in METHOD_COLUMNS)]
    for group in dict.fromkeys(groups):
        for name, taken in methods.items():
            counts = collections.Counter(m for g, m in zip(groups, taken) if g == group)
            lines.append(f"{group:<28} {name:<4}"
                         + "".join(f" {counts[m]:>14}" for m in METHOD_COLUMNS))
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
    timed = {"head": _tree_durations(ROOT / "src", list(rows))}
    if args.base:
        from output_parity import _export
        with tempfile.TemporaryDirectory(prefix="ulp_report_") as tmp:
            timed["base"] = _tree_durations(_export(args.base, Path(tmp)), list(rows))
    trees = {name: ulps([value for value, _ in out], exact) for name, out in timed.items()}
    methods = {name: [method for _, method in out] for name, out in timed.items()}
    sys.stdout.write(report(list(groups), trees, methods))
    return 0


if __name__ == "__main__":
    sys.exit(main())
