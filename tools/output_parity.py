"""Byte-for-byte CLI parity of the working tree against another revision.

Exports ``src/`` of ``--base REV`` with ``git archive`` into a temporary
directory and runs ``python -m qstirling`` on both trees over a fixed set of
cases: ``engine``/``fridge`` on the three cycle configs in every regime mode,
both statistics and both output formats; ``validate`` on all four configs
and on ``engine_lowtemp.ini`` with beta_h*omega1 = 709, next to the top of
e^x's range; ``power-sweep`` in csv (with ``--out``) and json; and
``regime-map``.  Each case compares exit code, stdout, stderr and every file
written under the output directory.

It also runs the library from both trees on the benchmark's seed-0 pools of
``exact_lowtemp``, ``exact_crossover`` and ``closed_form_scan``, through
``make_pool`` and ``OPS`` of ``bench/workloads.py`` (imported, never
changed), and compares the ``repr`` of every result field of every point, or
the exception text.  These reach the series and Gauss-Legendre strokes that
the four configs barely touch.

It calls the stroke functions of both trees on ``STROKES``, a fixed list of
library calls that reach branches of ``timing._linear_time`` no config, pool
or mutation reaches (the bosonic high-temperature form, a stroke down to the
bottom of the float range split into a high-temperature head and a rest, a
boson weight that rounds to zero), a bath rate whose quadrature scale
2^(k-1)/a is subnormal, an infinite stroke end or frequency and a
wrong-direction stroke whose magnitude underflows, and compares the ``repr``
of each result or its exception text.

Last, it reaches the config reader's error paths: each shipped config is
mutated (every line deleted, duplicated, or with its value replaced by each
of ``JUNK``; every section header renamed; each of ``EXTRA_KEYS`` added to
every section), the mutated files are written to one directory both trees
read (so a parse error quotes the same path), and one child per tree runs
``cli.main`` in process with the config's cycle command on each.  Exit code,
stdout and stderr are compared per mutation.

Prints one line per differing case, pool, stroke or mutation and exits 1 if
any differs, 0 otherwise.

    python3 tools/output_parity.py --base HEAD~1

Needs git; takes about 20 s.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
CONFIGS = ROOT / "configs"
CYCLE_CONFIGS = ("engine_lowtemp.ini", "engine_hightemp_bosonic.ini", "fridge_lowtemp.ini")
MODES = ("exact", "low_temp", "high_temp")  # the fridge has no high_temp set; parity covers its error too
STATISTICS = ("bosonic", "fermionic")
FORMATS = ("csv", "json")
POOLS = ("exact_lowtemp", "exact_crossover", "closed_form_scan")
POOL_SEED = 0
JUNK = ("", "nan", "inf", "-inf", "0", "-1", "-0.0", "1e308", "1e-310", "5e-324", "1_000",
        "0x10", "1,5", "abc", "fermionic")
EXTRA_KEYS = ("kind", "a", "rho0", "beta_h", "alpha_c", "gamma1", "x_low_threshold")
_B, _F, _MODEL = "Statistics.BOSONIC", "Statistics.FERMIONIC", "GevaKosloff(1.0, -0.05)"
_INF = "float('inf')"
STROKES = (
    # the bosonic high-temperature form
    f"isothermal_time({_B}, {_MODEL}, 2e-20, 1e-20, 1.0, 2.0)",
    # strokes down to the bottom of the float range: the high-temperature head
    # below u* = 2^-60/max(A, B) holds a bosonic 1/u^2 that takes the duration
    # near the top of the range, and GK15 sums the rest
    f"isochoric_time({_B}, GevaKosloff(1e10, -0.05), 1.4, 1.0, 1e-310, 2.0)",
    f"isochoric_time({_B}, {_MODEL}, 1.4, 1.0, 1e-308, 2.0)",
    # a gap 0.5 * 5e-324 that rounds to zero, inside the head (swept up from
    # 5e-324 the stroke runs backwards, and is named by its direction), and one
    # that does not
    f"isothermal_time({_F}, {_MODEL}, 0.5, 1.0, 2.0, 5e-324)",
    f"isothermal_time({_F}, {_MODEL}, 0.5, 1.0, 5e-324, 2.0)",
    f"isothermal_time({_F}, {_MODEL}, 2.0, 1.0, 5e-324, 2.0)",
    # a boson weight beta_s * 1e-18 that rounds to zero at the lower end of a
    # stroke that starts above u*
    f"isothermal_time({_B}, {_MODEL}, 1.0, 1e-307, 1e-18, 2.0)",
    # stroke A->B of engine_hightemp_bosonic.ini, whose quadrature scale is subnormal at these a
    *(f"isothermal_time({_B}, GevaKosloff({a}, -0.05), 0.00010714285714285714, "
      "0.00017857142857142857, 2.0, 1.0)" for a in ("1e306", "1e307", "3e307", "1e308")),
    # an infinite end or frequency, which the config reader never passes on
    f"isothermal_time({_B}, GevaKosloff(1.0, -0.9), 1e-323, 5e-324, 1.0, {_INF})",
    f"isothermal_time({_B}, {_MODEL}, 2.0, 1.0, 1.0, {_INF})",
    f"isochoric_time({_B}, {_MODEL}, 1.4, 1.0, 1.0, {_INF})",
    f"isochoric_time({_B}, {_MODEL}, 1.4, {_INF}, 1.0, 2.0)",
    # a wrong-direction series stroke whose magnitude underflows to zero
    f"isothermal_time({_B}, GevaKosloff(1e308, -0.05), 150.0, 250.0, 1.0, 2.0)",
)


def _export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def _edited_config(source: Path, dest: Path, **sections: dict) -> Path:
    """``source`` with the keys each of ``sections`` names set, written to ``dest``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(source, encoding="utf-8")
    for section, values in sections.items():
        parser[section].update(values)
    with open(dest, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return dest


def _cases(work: Path):
    """(name, argv) pairs; ``{out}`` in an argument is the per-run output directory."""
    for name in CYCLE_CONFIGS:
        kind = configparser.ConfigParser(interpolation=None)
        kind.read(CONFIGS / name, encoding="utf-8")
        command = kind["cycle"]["kind"]
        for mode in MODES:
            for stat in STATISTICS:
                config = _edited_config(CONFIGS / name, work / f"{name[:-4]}-{mode}-{stat}.ini",
                                        working_medium={"statistics": stat},
                                        numerics={"regime_mode": mode})
                for fmt in FORMATS:
                    yield (f"{command} {name} {mode} {stat} {fmt}",
                           [command, "--config", str(config), "--format", fmt])
    for config in sorted(CONFIGS.glob("*.ini")):
        yield f"validate {config.name}", ["validate", "--config", str(config)]
    # beta_h = 0.6 beta1 puts the detailed-balance probe at x = 709
    edge = _edited_config(CONFIGS / "engine_lowtemp.ini", work / "engine_lowtemp-exp-edge.ini",
                          cycle={"beta1": "1181.6666666666667", "beta2": "2400.0"})
    yield "validate engine_lowtemp.ini exp edge", ["validate", "--config", str(edge)]
    sweep = str(CONFIGS / "power_sweep_reference.ini")
    grid = ["--x-grid", "0.5:10:96"]
    yield ("power-sweep csv --out",
           ["power-sweep", "--config", sweep, *grid, "--format", "csv", "--out", "{out}/sweep.csv"])
    yield "power-sweep json", ["power-sweep", "--config", sweep, *grid, "--format", "json"]
    yield ("regime-map --grid 200 --threads 2",
           ["regime-map", "--q-min", "-0.9", "--q-max", "-0.1", "--x-min", "0.5",
            "--x-max", "12", "--grid", "200", "--threads", "2"])


def _run(src: Path, argv: list[str], out: Path):
    """Exit code, stdout, stderr and the files written, with ``out`` emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "qstirling",
                           *(a.replace("{out}", str(out)) for a in argv)],
                          capture_output=True, env=env, cwd=out)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def _fields(result):
    """A result as plain data: each record's fields, tuples of records expanded."""
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result)
    return [_fields(r) for r in result]


def pool_text(workload: str, tiny: bool = False) -> str:
    """One line per seed-0 pool point: the repr of its result's fields, or its exception.

    Uses whichever ``qstirling`` is first on ``sys.path``.
    """
    import qstirling
    sys.path.insert(0, str(BENCH))
    import workloads
    op = workloads.OPS[workload]
    lines = []
    for point in workloads.make_pool(workload, POOL_SEED, tiny):
        try:
            lines.append(repr(_fields(op(qstirling, point))))
        except Exception as exc:  # an op's error is part of the output compared
            lines.append(f"{type(exc).__name__}: {exc}")
    return "".join(line + "\n" for line in lines)


def stroke_text() -> str:
    """One line per call of ``STROKES``: the repr of its result, or its exception.

    Uses whichever ``qstirling`` is first on ``sys.path``.
    """
    import qstirling
    lines = []
    for call in STROKES:
        try:
            lines.append(repr(eval(call, vars(qstirling))))
        except Exception as exc:  # a stroke's error is part of the output compared
            lines.append(f"{type(exc).__name__}: {exc}")
    return "".join(line + "\n" for line in lines)


def _child_run(src: Path, call: str):
    """Exit code, stdout and stderr of ``output_parity.<call>`` run against the tree at ``src``."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import output_parity; "
            f"sys.stdout.write(output_parity.{call})")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          cwd=src.parent)
    return proc.returncode, proc.stdout, proc.stderr


def _pool_run(src: Path, workload: str, tiny: bool = False):
    """Exit code, stdout and stderr of ``pool_text`` run against the tree at ``src``."""
    return _child_run(src, f"pool_text({workload!r}, tiny={tiny!r})")


def _mutated(lines: list[str]):
    """(label, lines) of each mutation of one config's lines."""
    for i, line in enumerate(lines):
        rest = lines[i + 1:]
        yield f"line{i + 1}-deleted", lines[:i] + rest
        yield f"line{i + 1}-duplicated", lines[:i + 1] + [line] + rest
        key, sep, _ = line.partition("=")
        if sep and not line.startswith("#"):
            for j, value in enumerate(JUNK):
                yield f"line{i + 1}-junk{j}", lines[:i] + [f"{key}= {value}"] + rest
        if line.startswith("["):
            yield f"line{i + 1}-renamed", lines[:i] + [f"[renamed_{line[1:]}"] + rest
            for key in EXTRA_KEYS:
                yield f"line{i + 1}-extra-{key}", lines[:i + 1] + [f"{key} = 1.5"] + rest


def write_mutations(dest: Path, names=None) -> int:
    """Write every mutation of the shipped configs (or of ``names``) to ``dest``.

    Each file is named ``<index>-<command>-<config>-<mutation>.ini``, where
    ``<command>`` is the unmutated config's cycle kind.  Returns the count.
    """
    dest.mkdir(parents=True, exist_ok=True)
    count = 0
    for source in names or sorted(path.name for path in CONFIGS.glob("*.ini")):
        text = (CONFIGS / source).read_text(encoding="utf-8")
        kind = configparser.ConfigParser(interpolation=None)
        kind.read_string(text)
        command = kind["cycle"]["kind"]
        for label, lines in _mutated(text.splitlines()):
            count += 1
            (dest / f"{count:04d}-{command}-{source[:-4]}-{label}.ini").write_text(
                "\n".join(lines) + "\n", encoding="utf-8")
    return count


def mutation_text(directory: str) -> str:
    """One line per config in ``directory``: the repr of its (file name, exit code, stdout,
    stderr) from ``cli.main`` run in process with the command its name holds.

    Uses whichever ``qstirling`` is first on ``sys.path``.
    """
    from qstirling import cli
    lines = []
    for path in sorted(Path(directory).glob("*.ini")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([path.name.split("-")[1], "--config", str(path)])
            except Exception as exc:  # an escaping exception is part of the output compared
                code = f"{type(exc).__name__}: {exc}"
        lines.append(repr((path.name, code, out.getvalue(), err.getvalue())))
    return "".join(line + "\n" for line in lines)


def _mutation_run(src: Path, directory: Path):
    """Exit code, stdout and stderr of ``mutation_text`` run against the tree at ``src``."""
    return _child_run(src, f"mutation_text({str(directory)!r})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision whose src/ the working tree is compared against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_parity_") as tmp:
        work = Path(tmp)
        base_src = _export(args.base, work / "base")
        out = work / "out"
        differing = total = 0
        for name, case in _cases(work):
            total += 1
            base = _run(base_src, case, out)
            head = _run(ROOT / "src", case, out)
            if base != head:
                parts = ("exit code", "stdout", "stderr", "output files")
                what = ", ".join(p for p, b, h in zip(parts, base, head) if b != h)
                print(f"DIFFERS {name}: {what}")
                differing += 1
        pools_differing = 0
        for workload in POOLS:
            base, head = _pool_run(base_src, workload), _pool_run(ROOT / "src", workload)
            if base != head:
                parts = ("exit code", "results", "stderr")
                what = ", ".join(p for p, b, h in zip(parts, base, head) if b != h)
                print(f"DIFFERS pool {workload} seed {POOL_SEED}: {what}")
                pools_differing += 1
        base, head = (_child_run(src, "stroke_text()") for src in (base_src, ROOT / "src"))
        strokes_differing = 0
        if base[0] or head[0] or base[2] != head[2]:  # a child failed, so nothing is compared
            print(f"DIFFERS stroke run: the children exited {base[0]} and {head[0]}")
            strokes_differing = len(STROKES)
        else:
            for call, b, h in zip(STROKES, base[1].decode().splitlines(),
                                  head[1].decode().splitlines()):
                if b != h:
                    print(f"DIFFERS stroke {call}: {b} -> {h}")
                    strokes_differing += 1
        mutations = work / "mutations"
        mutation_count = write_mutations(mutations)
        base, head = (_mutation_run(src, mutations) for src in (base_src, ROOT / "src"))
        mutations_differing = 0
        if base[0] or head[0] or base[2] != head[2]:  # a child failed, so nothing is compared
            print(f"DIFFERS mutation run: the children exited {base[0]} and {head[0]}")
            mutations_differing = mutation_count
        else:
            for base_line, head_line in zip(base[1].splitlines(), head[1].splitlines()):
                if base_line != head_line:
                    name, *b = ast.literal_eval(base_line.decode())
                    _, *h = ast.literal_eval(head_line.decode())
                    what = ", ".join(p for p, x, y in zip(("exit code", "stdout", "stderr"), b, h)
                                     if x != y)
                    print(f"DIFFERS mutation {name}: {what}")
                    mutations_differing += 1
    print(f"{total - differing} of {total} cases, {len(POOLS) - pools_differing} of "
          f"{len(POOLS)} pools, {len(STROKES) - strokes_differing} of {len(STROKES)} strokes "
          f"and {mutation_count - mutations_differing} of {mutation_count} "
          f"config mutations identical to {args.base}")
    return 1 if differing or pools_differing or strokes_differing or mutations_differing else 0


if __name__ == "__main__":
    sys.exit(main())
