"""Run the benchmark in alternating pairs on a parent commit and HEAD and
write one record.

Run from anywhere, for example::

    python tools/bench_pairs.py --parent HEAD~1 --first-seed 16001 --out BENCH_16.json

Each side is the committed tree of its commit, unpacked by ``git archive``
into a temporary directory, so only committed files take part, as on a
fresh checkout; nothing is registered in the repository. For every
workload that ``BENCHMARK.json`` lists, each of ten pairs, pair i on seed
``first_seed + i - 1``, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both trees, one run at a time, with T the ``run_seconds`` of
``BENCHMARK.json``: the parent first in odd pairs, the change first in
even ones. The record keeps each run's last line of
standard output verbatim and, for each end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles and the
number of pairs each side won in the metric's better direction; equal
values count for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest alternating pairs a claimed gain rests on


def run_command(workload: str, seed: int, seconds: float) -> list[str]:
    """The benchmark command of one run, relative to the tree's root."""
    return [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric in ``better`` (name -> ``"lower"`` or ``"higher"``): each
    side's quartiles over ``pairs`` and the pairs each side won.

    Each pair maps ``"parent"`` and ``"change"`` to a run's parsed result,
    whose ``"metrics"`` map a name to ``{"value": ..., "unit": ...}``.
    """
    summary = {}
    for name, direction in better.items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = dict.fromkeys(SIDES, 0)
        for p, c in zip(values["parent"], values["change"], strict=True):
            if p != c:
                wins["change" if sign * c < sign * p else "parent"] += 1
        summary[name] = {"better": direction, "wins": wins, "ties": len(pairs) - sum(wins.values())}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            summary[name][side] = {"q1": q1, "median": median, "q3": q3}
    return summary


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _unpack(sha: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", "--format=tar", sha), check=True)


def _last_line(tree: Path, command: list[str]) -> str:
    out = subprocess.run(
        [sys.executable, *command], cwd=tree, capture_output=True, text=True, check=True
    ).stdout
    return out.strip().splitlines()[-1]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    shas = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
            for side, ref in zip(SIDES, (args.parent, "HEAD"))}
    record = {
        "what": "Alternating parent/change pairs of the benchmark. Each run's entry is the last line "
        "of standard output of the command, verbatim; the summary is computed from those lines.",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        **shas,
        "machine": f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}",
        "order": "odd pairs run the parent first, even pairs the change first",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _unpack(shas[side], trees[side])
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(1, PAIRS + 1):
                seed = args.first_seed + i - 1
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {"pair": i, "seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = _last_line(trees[side], run_command(workload, seed, seconds))
                    print(f"{workload} pair {i} {side}: {pair[side]}", flush=True)
                pairs.append(pair)
            parsed = [{side: json.loads(pair[side]) for side in SIDES} for pair in pairs]
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(parsed, better)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
