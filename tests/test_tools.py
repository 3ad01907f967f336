"""tools/code_lines.py against a plain line count and a hand-counted module;
tools/output_parity.py's pool, stroke and config-mutation dumps against themselves;
tools/reach.py's two reports; tools/ulp_report.py on a tiny sample."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
PARITY = ROOT / "tools" / "output_parity.py"
REACH = ROOT / "tools" / "reach.py"
ULP = ROOT / "tools" / "ulp_report.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_line_column_is_the_plain_line_count():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout
    _, *rows, total = out.splitlines()
    counted = {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}
    modules = sorted((ROOT / "src" / "qstirling").glob("*.py"))
    assert list(counted) == [path.name for path in modules]
    for path in modules:
        lines, code = counted[path.name]
        assert lines == path.read_bytes().count(b"\n")
        assert 0 < code <= lines
    assert total.split() == ["total", str(sum(lines for lines, _ in counted.values())),
                             str(sum(code for _, code in counted.values()))]


def test_code_lines_skip_blanks_comments_and_docstrings():
    tool = _load(TOOL)
    source = ('"""Module doc."""\n'
              '\n'
              'import os  # a trailing comment\n'
              '# a comment line\n'
              '\n'
              'def f():\n'
              '    """Doc\n'
              '    more."""\n'
              '    x = """a\n'
              'b"""\n'
              '    return x\n')
    # code: import, def, both lines of the assigned string, return
    assert tool.count(source) == (11, 5)


def test_pool_text_is_deterministic_with_one_line_per_point():
    tool = _load(PARITY)
    first, second = (tool._pool_run(ROOT / "src", "exact_crossover", tiny=True) for _ in range(2))
    assert first == second
    code, out, err = first
    assert (code, err) == (0, b"")
    tiny_pool_size = _load(ROOT / "bench" / "workloads.py").TINY_POOL_SIZE
    assert len(out.decode().splitlines()) == tiny_pool_size


def test_stroke_text_is_deterministic_with_one_line_per_call():
    tool = _load(PARITY)
    first, second = (tool._child_run(ROOT / "src", "stroke_text()") for _ in range(2))
    assert first == second
    code, out, err = first
    assert (code, err) == (0, b"")
    lines = out.decode().splitlines()
    assert len(lines) == len(tool.STROKES)
    # the boson weight that rounds to zero at u = 1e-18 is named, each infinite end
    # or frequency by its argument, and each wrong-direction stroke by its bath, the
    # one swept up from 5e-324 included; every other call returns, the strokes down
    # to 5e-324 or 1e-310 summed as a high-temperature head and a rest among them
    backwards = ("ParameterError: integration direction yields a negative duration; the "
                 "stroke must run toward the bath-driven equilibrium")
    named = [line for line in lines if not line.startswith("StrokeTime(duration=")]
    assert named == [backwards, "SingularityError: the integrand's gap or weight underflows "
                     "to zero at u = 1e-18"] + [
        f"ParameterError: {name} must be positive and finite, got inf"
        for name in ("omega_f", "omega_f", "beta_f", "omega")] + [backwards]


def test_mutation_text_is_deterministic_with_one_line_per_mutation(tmp_path):
    tool = _load(PARITY)
    count = tool.write_mutations(tmp_path, ["fridge_lowtemp.ini"])
    first, second = (tool._mutation_run(ROOT / "src", tmp_path) for _ in range(2))
    assert first == second
    code, out, err = first
    assert (code, err) == (0, b"")
    names = [ast.literal_eval(line)[0] for line in out.decode().splitlines()]
    assert names == sorted(path.name for path in tmp_path.iterdir())
    assert len(names) == count


def test_reach_lists_only_functions_no_input_runs():
    out = subprocess.run([sys.executable, str(REACH), "--tiny"], capture_output=True,
                         text=True, check=True).stdout
    *missed, total, key_m, key_rho0, key_total = out.splitlines()
    # an error path that no shipped input reaches, and two the pipeline always runs
    assert "cycles.check_corner_overflow" in missed
    assert "cycles.cycle_ledger" not in missed
    assert "statistics.population" not in missed
    assert total.startswith(f"{len(missed)} of ")
    # every INI key but the thermal-field bath's is set by a shipped or benchmark config
    assert (key_m, key_rho0) == ("bath.m", "bath.rho0")
    assert key_total.startswith("2 of ")


def test_ulp_report_judges_every_stroke_of_a_tiny_sample():
    # one point of each pool and the three shipped EXACT configs (four strokes
    # each) and the first of the parity tool's STROKES, all within a few ulp of
    # the 40-digit oracle; then the strokes each method took
    out = subprocess.run([sys.executable, str(ULP), "--sample", "1"], capture_output=True,
                         text=True, check=True).stdout
    ulp_table, method_table = out.split("\n\n")
    header, *rows = ulp_table.splitlines()
    assert header.split() == ["group", "strokes", "unjudged", "head", "max", "head", "median"]
    groups = ["exact_crossover", "exact_lowtemp", "engine_hightemp_bosonic.ini",
              "engine_lowtemp.ini", "fridge_lowtemp.ini", "STROKES"]
    assert [row.split()[0] for row in rows] == groups
    for row in rows:
        group, judged, unjudged, worst, median = row.split()
        assert (judged, unjudged) == ("1" if group == "STROKES" else "4", "0"), row
        assert 0.0 <= float(median) <= float(worst) <= 8.0, row
    header, *rows = method_table.splitlines()
    assert header.split() == ["group", "tree", "series", "high_temp", "gauss_legendre", "gk15",
                              "split", "raised"]
    # the first STROKES call is the bosonic high-temperature form; no stroke of the
    # pools or configs is split, taken by GK15 or rejected
    taken = {row.split()[0]: [int(n) for n in row.split()[2:]] for row in rows}
    assert list(taken) == groups
    assert taken["STROKES"] == [0, 1, 0, 0, 0, 0]
    assert all(sum(counts) == 4 and counts[3:] == [0, 0, 0] for group, counts in taken.items()
               if group != "STROKES"), taken


def test_ulp_report_names_the_method_that_took_each_stroke():
    # rows as the tool builds them: (stat, a, q, isotherm, drive, held, start, end)
    tool = _load(ULP)
    rows = [["bosonic", 1.0, -0.05, True, 12.0, 20.0, 2.0, 1.0],
            ["bosonic", 1.0, -0.05, True, 2e-20, 1e-20, 1.0, 2.0],
            ["bosonic", 1.0, -0.05, True, 0.6, 1.0, 2.0, 1.0],
            ["bosonic", 1.0, -0.05, False, 1.4, 1.0, 1e-15, 2.0],
            # a high-temperature head below u* = 2^-60/1.4, and GK15 on the rest
            ["bosonic", 1.0, -0.05, False, 1.4, 1.0, 1e-308, 2.0],
            ["bosonic", 1.0, -0.05, True, 12.0, 20.0, 1.0, 2.0]]  # run backwards
    timed = tool._tree_durations(ROOT / "src", rows)
    assert [method for _, method in timed] == ["series", "high_temp", "gauss_legendre", "gk15",
                                               "split", "raised"]
    assert [value is None for value, _ in timed] == [False] * 5 + [True]
