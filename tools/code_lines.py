"""Line and code-line counts of each module of ``src/qstirling``, and their total.

A code line holds at least one token that is not a comment or a docstring;
blank lines, comment-only lines and docstring lines do not count.
Docstrings are found with ``ast`` (the leading string of a module, class or
function body) and the remaining tokens with ``tokenize``.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring token of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                      and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code)


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted((ROOT / "src" / "qstirling").glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
