"""Functions of ``src/qstirling`` whose body no shipped input or benchmark op runs,
and INI keys that no shipped input sets.

Under ``sys.settrace`` (call events only) it runs, in one process:

- ``cli.main`` for each shipped config's own cycle command (``engine`` or
  ``fridge``) in csv and json, and ``validate`` on each shipped config;
- one ``cli_cold`` rotation from ``workloads.write_cli_inputs``, which
  holds the benchmark's ``power-sweep``, ``regime-map`` and ``validate``
  argv (both these and the above through ``bench/run.py``'s ``cli_main_op``);
- each in-process workload's op over its seed-0 pool, through
  ``output_parity.pool_text``;
- one ``exact_crossover`` op under ``bench/spans.py``'s ``Tracer``.

It then prints each function and lambda of the ``qstirling`` first on
``sys.path`` (this tree's ``src`` otherwise) whose body never ran, as
``module.qualname`` in source order, and a count.  Next it prints each
``section.key`` that ``qstirling.config`` accepts for some cycle kind (its
``_SCHEMA`` plus each kind's spec fields but ``stat`` and its regenerator
fields) but that no INI given to a command above as ``--config`` sets, and
a count.  ``bench/`` is imported, never changed.  A report only: it exits 0
whatever it finds.  ``--tiny`` runs the benchmark's tiny pools.

    python3 tools/reach.py [--tiny]
    PYTHONPATH=<another tree>/src python3 tools/reach.py
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _functions(package: Path):
    """(file, first line, name, qualname) of every function and lambda in ``package``."""
    found = []
    for path in sorted(package.glob("*.py")):
        pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while pending:
            for const in pending.pop().co_consts:
                if isinstance(const, types.CodeType):
                    pending.append(const)
                    if not const.co_name.startswith("<") or const.co_name == "<lambda>":
                        found.append((os.path.realpath(path), const.co_firstlineno,
                                      const.co_name, getattr(const, "co_qualname",
                                                             const.co_name)))
    return sorted(found)


def _config_ops():
    """Each shipped config's cycle command in csv and json, and ``validate``, as ``CliOp``s."""
    import workloads

    for config in sorted(CONFIGS.glob("*.ini")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config, encoding="utf-8")
        kind = parser["cycle"]["kind"]
        for fmt in ("csv", "json"):
            yield workloads.CliOp(kind, (kind, "--config", str(config), "--format", fmt), 0)
        yield workloads.CliOp("validate", ("validate", "--config", str(config)), 0)


def _ini_keys(path: str) -> set[str]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return {f"{section}.{key}" for section in parser.sections() for key in parser[section]}


def _accepted_keys() -> set[str]:
    """``section.key`` of every INI key ``qstirling.config`` accepts for some cycle kind."""
    from dataclasses import fields

    from qstirling import config
    from qstirling.cycles import CYCLE_KINDS

    keys = {f"{section}.{key}" for section, names in config._SCHEMA.items() for key in names}
    for kind in CYCLE_KINDS.values():
        keys.update(f"cycle.{f.name}" for f in fields(kind.spec) if f.name != "stat")
        keys.update(f"regenerator.{f.name}" for f in fields(kind.regen))
    return keys


def _exercise(tiny: bool) -> set[str]:
    """Run every input under the tracer; return the INI keys its configs set."""
    import output_parity
    import qstirling
    import run
    import spans
    import workloads
    from qstirling import cli

    main_op = run.cli_main_op(cli)
    set_keys = set()
    with tempfile.TemporaryDirectory(prefix="reach_") as workdir:
        rotation = workloads.write_cli_inputs(workdir, output_parity.POOL_SEED, 1)[0]
        for cli_op in (*_config_ops(), *rotation):
            main_op(cli_op)
            if "--config" in cli_op.argv:
                set_keys |= _ini_keys(cli_op.argv[cli_op.argv.index("--config") + 1])
    for workload in output_parity.POOLS:
        output_parity.pool_text(workload, tiny)
    point = workloads.make_pool("exact_crossover", output_parity.POOL_SEED, tiny)[0]
    with spans.Tracer():
        workloads.exact_op(qstirling, point)
    return set_keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="use the benchmark's tiny pools")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # the benchmark's argv name configs/ relative to the repository
    sys.path.append(str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    reached = set()

    def trace(frame, event, arg):
        reached.add(frame.f_code)

    sys.settrace(trace)  # before the package loads, so import-time calls count
    try:
        set_keys = _exercise(args.tiny)
    finally:
        sys.settrace(None)
    import qstirling

    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
           for code in reached}
    functions = _functions(Path(qstirling.__file__).parent)
    missed = [(Path(path).stem, qualname) for path, line, name, qualname in functions
              if (path, line, name) not in ran]
    for module, qualname in missed:
        print(f"{module}.{qualname}")
    print(f"{len(missed)} of {len(functions)} functions in "
          f"{Path(qstirling.__file__).parent} never ran")
    accepted = _accepted_keys()
    unset = sorted(accepted - set_keys)
    for key in unset:
        print(key)
    print(f"{len(unset)} of {len(accepted)} INI keys set by no shipped or cli_cold config")
    return 0


if __name__ == "__main__":
    sys.exit(main())
