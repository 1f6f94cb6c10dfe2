"""``tools/bench_pairs.py``, which writes the committed ``BENCH_*.json``
records: its summary of alternating pairs, on fixed input. No benchmark
runs here."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(run_s, pass_ratio):
    return {"metrics": {"run_s": {"value": run_s, "unit": "s"}, "pass_ratio": {"value": pass_ratio, "unit": "ratio"}}}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [(1.0, 1.0), (2.0, 1.0), (3.0, 0.5), (4.0, 1.0), (5.0, 1.0)]
    change = [(0.5, 1.0), (2.0, 0.9), (2.5, 1.0), (4.5, 1.0), (4.0, 1.0)]
    pairs = [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"run_s": "lower", "pass_ratio": "higher"})
    assert summary["run_s"]["better"] == "lower"
    # lower wins: the change in pairs 1, 3 and 5, the parent in pair 4
    assert summary["run_s"]["wins"] == {"parent": 1, "change": 3}
    assert summary["run_s"]["ties"] == 1
    # higher wins: the change in pair 3, the parent in pair 2
    assert summary["pass_ratio"]["wins"] == {"parent": 1, "change": 1}
    assert summary["pass_ratio"]["ties"] == 3
    # inclusive quartiles: the median of each half, the median included
    assert summary["run_s"]["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert summary["run_s"]["change"] == {"q1": 2.0, "median": 2.5, "q3": 4.0}
    assert summary["pass_ratio"]["change"]["median"] == 1.0

