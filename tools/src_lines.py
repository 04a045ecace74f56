"""Print the total lines and the code lines of each src/betamix/*.py, then of all of them.

Code lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings. Run from anywhere:

    python tools/src_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "betamix"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main() -> None:
    totals = []
    for path in sorted(SRC.glob("*.py")):
        totals.append(count(path))
        print(f"{path.name}: total {totals[-1][0]}, code {totals[-1][1]}")
    print(f"total lines: {sum(t for t, _ in totals)}")
    print(f"code lines: {sum(c for _, c in totals)}")


if __name__ == "__main__":
    main()
