"""List the function-body lines of ``src/lgwigner`` that no benchmark
workload executes.

Run from anywhere, with no arguments::

    python tools/traffic_lines.py

Each ``perfbench.workloads.WORKLOADS`` entry's ``setup`` and ``body`` run
once, in a temporary working directory that is also the workload's
``workdir``, so nothing is written under ``perfbench/``. They run under
``sys.settrace``, with line events taken only in the package's files.
The script prints, per module and per top-level function or method, the
line ranges that hold bytecode of a function body and that no workload
reached. A function's first line (its ``def``, or its first decorator)
counts as reached when the function is called. Module and class bodies
run at import and are not listed.

Forked processes are not followed. The CLI formats large CSV files in
``os.fork``ed children (``cli._write_csv``). The lines that only a child
runs, such as ``cli._format_in_child``, are listed even where a child ran
them.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lgwigner"


def body_lines(path: Path) -> dict[int, str]:
    """Line -> top-level function name, for every line that holds bytecode
    of a function, method, lambda or comprehension in the file ``path``;
    module and class bodies are left out."""
    source = path.read_text(encoding="utf-8")
    classes = {
        (node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)]))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    lines: dict[int, str] = {}
    stack = [(const, None) for const in compile(source, str(path), "exec").co_consts if isinstance(const, types.CodeType)]
    while stack:
        code, owner = stack.pop()
        is_class = (code.co_name, code.co_firstlineno) in classes
        name = owner or (None if is_class else code.co_qualname)
        stack.extend((const, name) for const in code.co_consts if isinstance(const, types.CodeType))
        if not is_class:
            lines.update((line, name) for _, _, line in code.co_lines() if line is not None)
    return lines


def collect(paths, run) -> dict[str, set[int]]:
    """Call ``run()`` with a trace on and return, per file of ``paths``, the
    lines it executed, with the first line of every function it called.
    Frames of other files are not traced line by line."""
    files = {str(Path(p).resolve()) for p in paths}
    seen: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        seen[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
        return local

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def unreached(paths, run) -> dict[str, dict[str, list[int]]]:
    """Per file of ``paths``, per top-level function, the sorted body lines
    that ``run()`` did not execute; functions it reached fully are left
    out."""
    files = {str(Path(p).resolve()): body_lines(Path(p)) for p in paths}
    seen = collect(list(files), run)
    out: dict[str, dict[str, list[int]]] = {}
    for file, lines in files.items():
        per_function: dict[str, list[int]] = {}
        for line in sorted(set(lines) - seen[file]):
            per_function.setdefault(lines[line], []).append(line)
        out[file] = per_function
    return out


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_workloads() -> None:
    """Run every workload's set-up and body once, each in its own
    temporary working directory."""
    from perfbench.workloads import WORKLOADS

    cwd = os.getcwd()
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                workload.body(workload.setup(1, Path(workdir)))
            finally:
                os.chdir(cwd)


def main() -> None:
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    paths = sorted(SRC.glob("*.py"))
    report = unreached(paths, run_workloads)
    for path in paths:
        print(path.name)
        for function, lines in report[str(path.resolve())].items():
            print(f"  {function}: {ranges(lines)}")


if __name__ == "__main__":
    main()
