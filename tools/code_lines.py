"""Count the code lines of the package, per module and in total.

A code line holds at least one token other than a comment. Blank lines,
comment-only lines and the docstrings of modules, classes and functions
are left out; a line that holds code and a comment counts.

Run from the root of a checkout:

    python tools/code_lines.py [directory]

The directory defaults to ``src/maxent_marl``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/maxent_marl")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6,d}  {path.relative_to(root)}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
