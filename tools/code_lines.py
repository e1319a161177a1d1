"""Count the code lines of Python sources.

A code line holds at least one token that is not a comment; blank
lines, comment lines and docstrings (module, class and function) do not
count.  Prints one count per file and the total:

    python tools/code_lines.py [PATH ...]    # default: src/torus_fiber
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    docstrings = _docstring_lines(ast.parse(path.read_text(), str(path)))
    lines: set[int] = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/torus_fiber")]
    files = sorted(
        f for root in roots for f in (root.rglob("*.py") if root.is_dir() else [root])
    )
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
