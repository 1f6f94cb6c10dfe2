"""``tools/src_lines.py``, the line counter that design changes quote:
one row per module, each row's kinds summing to its total, and a total
row that is the column sums."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def _table():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")], capture_output=True, text=True, check=True
    ).stdout
    header, *lines = out.splitlines()
    assert header.split() == ["module", *KINDS, "all"]
    rows = {}
    for line in lines:
        name, *counts = line.split()
        rows[name] = dict(zip((*KINDS, "all"), (int(c.replace(",", "")) for c in counts), strict=True))
    return rows


def test_src_lines_counts_every_module_and_sums():
    rows = _table()
    total = rows.pop("total")
    modules = sorted(path.name for path in (ROOT / "src" / "lgwigner").glob("*.py"))
    assert list(rows) == modules
    for row in rows.values():
        assert sum(row[kind] for kind in KINDS) == row["all"]
    for column in (*KINDS, "all"):
        assert total[column] == sum(row[column] for row in rows.values())
    # every line of a module is counted once
    for name, row in rows.items():
        text = (ROOT / "src" / "lgwigner" / name).read_text(encoding="utf-8")
        assert row["all"] == len(text.splitlines())
