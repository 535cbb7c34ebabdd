"""Count the code lines of Python modules.

A line counts when it holds a token that is neither a comment nor part of
a module, class or function docstring; blank lines do not count. Prints
one line per module and the total.

    python3 tools/code_lines.py src
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at ``path``."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    counted: set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - docstrings)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src"]:
        base = Path(root)
        for path in sorted(base.rglob("*.py")) if base.is_dir() else [base]:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
