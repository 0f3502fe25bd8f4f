"""Count the code lines of each module of the cubesteiner package.

A code line is a non-blank line outside comments and docstrings. A
docstring is the first statement of a module, class or function when that
statement is a string, found by `ast`; every other string counts, each of
its non-blank lines. Comments are found by `tokenize`, so a "#" inside a string
is code.

Usage: python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the package next to this script, src/cubesteiner. It
prints one line per module, in file-name order, then the total:

    <module>.py <code lines>
    ...
    total <code lines>
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    spanned: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            spanned.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    spanned -= docstring_lines(ast.parse(source))
    return sum(1 for row in spanned if text[row - 1].strip())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/code_lines.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else Path(__file__).parent.parent / "src" / "cubesteiner"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(f"{path.name} {count}")
        total += count
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
