"""tools/code_lines.py against a plain line count and a hand-counted module."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


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
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
