"""Count the code lines of Python sources, and their internal checks.

A code line holds at least one token that is not a comment; blank
lines, comment lines and docstrings (module, class and function) do not
count.  Prints one count per file, the total, and the number of
``raise InternalConsistencyError`` sites (the package's internal
cross-checks), then each site as ``file:line`` with the first words of
its message:

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
CHECK = "InternalConsistencyError"
MESSAGE_WORDS = 8


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


def _text(part: ast.expr) -> str:
    """A string constant as itself, an f-string field as its source in
    braces, anything else as its source."""
    if isinstance(part, ast.Constant):
        return str(part.value)
    if isinstance(part, ast.FormattedValue):
        return "{" + ast.unparse(part.value) + "}"
    return ast.unparse(part)


def _message(call: ast.expr) -> str:
    """The first words of a raised exception's message."""
    args = call.args if isinstance(call, ast.Call) else []
    if not args:
        return ""
    parts = args[0].values if isinstance(args[0], ast.JoinedStr) else [args[0]]
    words = "".join(_text(part) for part in parts).split()
    return " ".join(words[:MESSAGE_WORDS]) + (" ..." if len(words) > MESSAGE_WORDS else "")


def check_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and the first words of the message of each ``raise
    InternalConsistencyError`` statement in ``tree``, in line order."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == CHECK:
                sites.append((node.lineno, _message(node.exc)))
    return sorted(sites)


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
    sites = []
    for path in files:
        count = code_lines(path)
        total += count
        tree = ast.parse(path.read_text(), str(path))
        sites.extend((path, line, message) for line, message in check_sites(tree))
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    print(f"{len(sites):6d}  raise {CHECK} sites")
    for path, line, message in sites:
        print(f"        {path}:{line}  {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
