"""Count the lines of each ``src/lgwigner`` module by kind.

Run from anywhere, with no arguments::

    python tools/src_lines.py

Each line is counted once, by the first rule that holds: a line inside a
module, class or function docstring is ``docstring``; an empty line is
``blank``; a line starting with ``#`` is ``comment``; any other line is
``code``. Prints one row per module and a total.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lgwigner"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    rows = {path.name: count(path) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<14}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'all':>8}")
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[kind]:>11,}" for kind in KINDS) + f"{sum(row.values()):>8,}")


if __name__ == "__main__":
    main()
