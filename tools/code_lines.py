"""Count the code lines of the nulut package, per module and in total.

A code line is a physical line that holds part of a statement: blank
lines, comment-only lines and the lines of module, class and function
docstrings do not count.  A statement split over several lines counts
each of its lines.

    python tools/code_lines.py [package_dir]

package_dir defaults to src/nulut next to this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of a module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_package(package: Path) -> dict:
    """Code lines of each module in package, keyed by file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "nulut"
    counts = count_package(package)
    for name, count in counts.items():
        print(f"{name:16} {count:6,}")
    print(f"{'total':16} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
