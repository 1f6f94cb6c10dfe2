"""Tests of the benchmark's own machinery: the tracer's self-time
arithmetic, the CLI read-back gate, and failure accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import types

import numpy as np
import pytest

import lgwigner
from lgwigner import cli
from lgwigner.modes import ModeIndex, lg_mode
from lgwigner.verify import SUITE_CHECKS, CheckResult, SuiteReport
from perfbench import run, tracer, workloads
from perfbench.tracer import Span


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, None, "outer", "a", 0.0, 10.0),
        Span(1, 0, "inner", "b", 2.0, 5.0),
        Span(2, 1, "leaf", "c", 3.0, 4.0),
        Span(3, 0, "inner", "b", 6.0, 7.0),
    ]
    assert tracer.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = tracer.layer_totals(spans)
    assert totals["outer"]["self_s"] == 6.0
    assert totals["inner"] == {"calls": 2, "self_s": 3.0, "nodes": 0, "useful_node_ratio": 0.0}


def test_tracer_follows_nested_calls_and_restores():
    mod = types.ModuleType("synthetic")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def inner(x):\n    return leaf(x) * 2\n"
        "def outer(x):\n    return inner(x) + inner(x)\n",
        mod.__dict__,
    )
    originals = (mod.outer, mod.inner, mod.leaf)
    t = tracer.Tracer()
    t.install([("top", mod.outer), ("mid", mod.inner), ("low", mod.leaf)], [mod])
    try:
        assert mod.outer(1) == 8
    finally:
        t.restore()
    assert (mod.outer, mod.inner, mod.leaf) == originals
    by_id = {s.sid: s for s in t.spans}
    layers = sorted(s.layer for s in t.spans)
    assert layers == ["low", "low", "mid", "mid", "top"]
    for s in t.spans:
        expected_parent = {"top": None, "mid": "top", "low": "mid"}[s.layer]
        assert (by_id[s.parent].layer if s.parent is not None else None) == expected_parent
    top = next(s for s in t.spans if s.layer == "top")
    mids = [s for s in t.spans if s.layer == "mid"]
    selfs = tracer.self_times(t.spans)
    assert selfs[top.sid] == pytest.approx((top.end - top.start) - sum(m.end - m.start for m in mids), abs=1e-12)


def test_tracer_sees_calls_rebound_by_from_imports():
    t = tracer.Tracer()
    original = lgwigner.modes.laguerre
    t.install_package(lgwigner)
    try:
        lgwigner.lg_mode(ModeIndex.lg(2, 1), np.zeros(4), np.ones(4))
        lgwigner.wigner1d(lambda u: np.exp(-u * u), lambda u: np.exp(-u * u), 0.0, 0.0)
    finally:
        t.restore()
    assert lgwigner.modes.laguerre is original
    names = [(s.layer, s.name) for s in t.spans]
    assert ("modes", "lg_mode") in names and ("specfun", "laguerre") in names
    oracle = next(s for s in t.spans if s.layer == "wigner.oracle1d")
    assert oracle.nodes == lgwigner.DEFAULT_QUAD.nodes
    assert 0 < oracle.useful < oracle.nodes


@pytest.fixture
def small_lg_csv(tmp_path):
    out = tmp_path / "lg.csv"
    argv = ["modes", "lg", "--index", "2", "1", "--nx", "6", "--ny", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    xs, ys = np.linspace(-4.0, 4.0, 6), np.linspace(-4.0, 4.0, 5)
    coords = np.column_stack([np.repeat(xs, 5), np.tile(ys, 6)])
    values = lg_mode(ModeIndex.lg(2, 1), xs[:, None], ys[None, :]).ravel()
    return out, coords, values


def test_read_back_accepts_cli_output(small_lg_csv):
    out, coords, values = small_lg_csv
    table, problem = workloads.read_back(out, "x,y,re,im", coords, values)
    assert problem == "" and table.shape == (30, 4)


@pytest.mark.parametrize("where", ["header", "coordinate", "value_digit", "last_digit", "newline"])
def test_read_back_flags_one_byte_corruption(small_lg_csv, where):
    out, coords, values = small_lg_csv
    raw = bytearray(out.read_bytes())
    lines = raw.split(b"\n")
    row = len(lines[0]) + 1 + len(lines[1]) + 1  # start of the second data row
    if where == "header":
        pos, new = 0, ord("X")
    elif where == "coordinate":
        pos = raw.index(b".", row) - 1  # integer digit of the row's x
        new = ord("1") if raw[pos] != ord("1") else ord("2")
    elif where == "value_digit":
        pos = raw.rindex(b".", row, raw.index(b"\n", row)) + 3  # inside the imaginary part
        new = ord("7") if raw[pos] != ord("7") else ord("8")
    elif where == "last_digit":
        pos = raw.index(b"\n", row) - 1
        new = ord("1") if raw[pos] != ord("1") else ord("3")
    else:
        pos, new = raw.index(b"\n", row), ord("\r")
    raw[pos] = new
    out.write_bytes(bytes(raw))
    table, problem = workloads.read_back(out, "x,y,re,im", coords, values)
    assert table is None and problem


def _fake_all_report(failing):
    checks = [
        CheckResult(name, 10.0 if name == failing else 1e-9, 1e-6, name != failing, 1, 0.0)
        for names in SUITE_CHECKS.values()
        for name in names
    ]
    return SuiteReport("all", checks, passed=all(c.passed for c in checks), seed=7)


def test_forced_failing_check_counts_in_failed_ratio(monkeypatch):
    monkeypatch.setattr(lgwigner, "run_suite", lambda *a, **k: _fake_all_report("moyal_kronecker"))
    wl = workloads.VerifyFull()
    inputs = wl.setup(1, None)
    gate = wl.gate(inputs, [wl.body(inputs)])
    total = sum(len(names) for names in SUITE_CHECKS.values())
    assert (gate.attempted, gate.failed) == (total, 1)
    metrics = run.end_to_end(gate, setup_s=1.0, run_s=1.0, peak_rss_mb=1.0)
    assert metrics["pass_ratio"]["value"] == pytest.approx(1.0 - 1.0 / total)
    assert metrics["worst_margin"]["value"] == pytest.approx(10.0 / 1e-6)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_catalog()
