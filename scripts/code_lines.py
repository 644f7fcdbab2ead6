"""Code lines of each module under src/, without docstrings, comments and
blank lines.

    python3 scripts/code_lines.py [ROOT]

prints one `module lines` row per module of ROOT/src/artinpal (ROOT is
the repository this script lives in by default) and a `total` row.  A
line counts when it holds a token that is not a comment, an indent, a
dedent or a line break, and is not inside a docstring: the string that
opens a module, a class or a function, as `ast` reads it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def count(root: Path) -> dict[str, int]:
    """Module name -> code lines, for every module of root/src/artinpal."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / "src" / "artinpal").glob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    counts = count(root)
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
