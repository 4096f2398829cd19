"""Count the lines of a Python package: all of them, and the code lines alone.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation). A string that is not a docstring counts on every
line it spans, as does a bracketed expression. Standard library only.

    python tools/count_lines.py                   # src/captionkit
    python tools/count_lines.py path/to/package   # any directory of .py files
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstrings(ast.parse(source, str(path)))
    code: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT:
                continue
            if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "captionkit"
    counts = [count(path) for path in sorted(root.rglob("*.py"))]
    total, code = sum(t for t, _ in counts), sum(c for _, c in counts)
    print(f"{root.name}: {total:,} lines, {code:,} code lines in {len(counts)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
