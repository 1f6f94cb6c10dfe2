"""Command-line interface: file formats, round-trips, determinism, and
exit-code semantics."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgwigner import cli
from lgwigner.modes import ModeIndex, hg_mode, lg_mode
from lgwigner.wigner import PhasePoint4, wigner_hermite_closed, wigner_hg_closed, wigner_lg_closed


def _read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:-1]]
    return header, rows


def test_modes_lg_csv_round_trip(tmp_path):
    out = tmp_path / "lg.csv"
    code = cli.main(
        ["modes", "lg", "--index", "1", "0", "--nx", "16", "--ny", "16", "--out", str(out)]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["x", "y", "re", "im"]
    assert len(rows) == 256
    idx = ModeIndex.lg(1, 0)
    for x, y, re, im in rows:
        want = lg_mode(idx, x, y)
        assert re == want.real and im == want.imag  # bit-for-bit round trip


def test_modes_hg_is_real(tmp_path):
    out = tmp_path / "hg.csv"
    assert cli.main(["modes", "hg", "--index", "2", "1", "--nx", "8", "--ny", "8", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(row[3] == 0.0 for row in rows)
    assert any(row[2] != 0.0 for row in rows)


def test_modes_lg_equal_indices_real(tmp_path):
    out = tmp_path / "lg22.csv"
    assert cli.main(["modes", "lg", "--index", "2", "2", "--nx", "8", "--ny", "8", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(abs(row[3]) <= 1e-16 for row in rows)


def test_modes_image_deterministic(tmp_path):
    args = ["modes", "lg", "--index", "2", "1", "--nx", "32", "--ny", "32"]
    img1, img2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert cli.main(args + ["--out", str(tmp_path / "a.csv"), "--image", str(img1)]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b.csv"), "--image", str(img2)]) == 0
    data1, data2 = img1.read_bytes(), img2.read_bytes()
    assert data1 == data2
    assert data1.startswith(b"P5\n32 32\n255\n")
    assert len(data1) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_wigner_hermite_grid(tmp_path):
    out = tmp_path / "wh.csv"
    code = cli.main(
        ["wigner", "hermite", "--indices", "0", "0", "--nx", "8", "--ny", "8", "--out", str(out)]
    )
    assert code == 0
    _, rows = _read_csv(out)
    for x, y, re, im in rows:
        want = wigner_hermite_closed(0, 0, x, y)
        assert re == want.real and im == want.imag


def test_wigner_lg_diag_sign_at_origin(tmp_path):
    out = tmp_path / "diag.csv"
    code = cli.main(
        [
            "wigner", "lg_diag", "--indices", "1", "0",
            "--xmin", "-1", "--xmax", "1", "--nx", "3",
            "--ymin", "-1", "--ymax", "1", "--ny", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    _, rows = _read_csv(out)
    center = [row for row in rows if row[0] == 0.0 and row[1] == 0.0]
    assert center and center[0][2] == pytest.approx(-1.0 / np.pi, abs=1e-15)


def test_wigner_general_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,xi1,xi2\n1.0,0.5,-0.25,0.75\n0,0,0,0\n-1,2,0.5,-0.5\n")
    out = tmp_path / "gen.csv"
    code = cli.main(["wigner", "lg_general", "--indices", "1", "0", "0", "1", "--points", str(pts), "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["x1", "x2", "xi1", "xi2", "re", "im"]
    assert len(rows) == 3
    for x1, x2, xi1, xi2, re, im in rows:
        want = wigner_lg_closed(1, 0, 0, 1, PhasePoint4(x1, x2, xi1, xi2))
        assert re == want.real and im == want.imag


@pytest.mark.parametrize(
    "kind, closed, indices",
    [("lg_general", wigner_lg_closed, (2, 1, 0, 3)), ("hg_general", wigner_hg_closed, (1, 2, 3, 0))],
)
def test_wigner_general_csv_equals_pointwise_calls_bitwise(tmp_path, kind, closed, indices):
    # |j - m| = 2 and |k - n| = 2 pairs, where array and scalar complex
    # arithmetic in numpy round differently unless routed alike
    points = np.random.default_rng([19, *indices]).uniform(-3.0, 3.0, size=(2000, 4)).tolist()
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(",".join(map(repr, pt)) + "\n" for pt in points))
    out = tmp_path / "out.csv"
    argv = ["wigner", kind, "--indices", *map(str, indices), "--points", str(pts), "--out", str(out)]
    assert cli.main(argv) == 0
    _, rows = _read_csv(out)
    assert [row[:4] for row in rows] == points
    want = [closed(*indices, PhasePoint4(*pt)) for pt in points]
    assert [complex(re, im) for *_, re, im in rows] == want


def test_wigner_malformed_points_file(tmp_path, capsys):
    pts = tmp_path / "bad.csv"
    pts.write_text("1.0,2.0,3.0\n")
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "hg_general", "--indices", "0", "0", "0", "0", "--points", str(pts), "--out", str(out)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_points_file_not_utf8_exits_2(tmp_path, capsys):
    pts = tmp_path / "binary.csv"
    pts.write_bytes(b"x1,x2,xi1,xi2\n0.5,0.5,\xff,0.5\n")
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "hg_general", "--indices", "0", "0", "0", "0", "--points", str(pts), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(pts) in err and "UTF-8" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,3,oops\n0.5,0.5,0.5,0.5\n", "line 1:"),
        ("x1,x2,xi,xi2\n0.5,0.5,0.5,0.5\n", "line 1:"),
        ("x1,x2,xi1,xi2\n0.5,0.5,0.5,0.5\nx1,x2,xi1,xi2\n", "line 3:"),
        # the header alone leaves nothing to evaluate
        ("x1,x2,xi1,xi2\n", "points file contains no points"),
    ],
)
def test_wigner_points_file_only_exact_header_skipped(tmp_path, capsys, text, message):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "lg_general", "--indices", "1", "0", "0", "1", "--points", str(pts), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_wigner_wrong_index_count(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main(["wigner", "hermite", "--indices", "1", "2", "3", "--out", str(out)]) == 2


def test_beam_slice(tmp_path):
    out = tmp_path / "beam.csv"
    code = cli.main(
        [
            "beam", "--index", "0", "0", "--w0", "1.0", "--k", "10.0",
            "--nx", "9", "--ny", "9", "--xmin", "-2", "--xmax", "2",
            "--ymin", "-2", "--ymax", "2", "--out", str(out),
        ]
    )
    assert code == 0
    _, rows = _read_csv(out)
    mags = {(x, y): np.hypot(re, im) for x, y, re, im in rows}
    # radially symmetric magnitude for the fundamental mode
    assert mags[(1.0, 0.0)] == pytest.approx(mags[(0.0, 1.0)], rel=1e-12)
    assert mags[(2.0, 0.0)] == pytest.approx(mags[(0.0, -2.0)], rel=1e-12)


def test_beam_vortex_dark_axis(tmp_path):
    out = tmp_path / "vortex.csv"
    code = cli.main(
        ["beam", "--index", "0", "2", "--w0", "1.0", "--k", "10.0",
         "--nx", "5", "--ny", "5", "--out", str(out)]
    )
    assert code == 0
    _, rows = _read_csv(out)
    axis = [row for row in rows if row[0] == 0.0 and row[1] == 0.0]
    assert axis and axis[0][2] == 0.0 and axis[0][3] == 0.0


_FAR = ["--xmin=-1e4", "--xmax", "1e4", "--ymin=-1e4", "--ymax", "1e4", "--nx", "8", "--ny", "8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["modes", "lg", "--index", "64", "64", *_FAR],
        ["beam", "--index", "64", "0", "--w0", "1e-3", "--k", "10", "--nx", "8", "--ny", "8"],
        ["wigner", "hermite", "--indices", "64", "60", *_FAR],
        ["wigner", "lg_diag", "--indices", "64", "60", *_FAR],
        ["wigner", "lg_diag", "--indices", "3", "1", "--xi1", "1e150", "--nx", "4", "--ny", "4"],
        # r**2 / w**2 overflows to inf: the Laguerre argument would be inf
        [
            "beam", "--index", "2", "1", "--w0", "1e-100", "--k", "1e300",
            "--xmin=-1e150", "--xmax", "1e150", "--nx", "4", "--ny", "4",
        ],
    ],
)
def test_values_past_the_gaussian_underflow_are_written_as_numbers(tmp_path, argv):
    # the Gaussian factor is 0 at most of these samples, where the
    # polynomial or the power of r alone would overflow
    out = tmp_path / "far.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert not np.isnan(rows).any()


def test_beam_curvature_does_not_overflow(tmp_path):
    # zR = 5e306, so zR**2 overflows and 1/R underflows to 0, while
    # k r**2 = 1e307 r**2 overflows at every sample past r = 1.35
    out = tmp_path / "curvature.csv"
    argv = [
        "beam", "--index", "0", "0", "--w0", "1", "--k", "1e307", "--z", "1",
        "--xmin=-8", "--xmax", "8", "--ymin=-8", "--ymax", "8", "--nx", "5", "--ny", "5",
    ]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert "nan" not in out.read_text()
    _, rows = _read_csv(out)
    assert len(rows) == 25 and np.isfinite(rows).all()


def test_verify_subcommand_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "beam", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "beam" and report["passed"] is True


def test_verify_runs_the_one_budget(tmp_path):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "moyal", "--out", str(report)]) == 0
    assert "budget" not in json.loads(report.read_text())
    # there is no budget to choose, so the flag is refused like any unknown one
    flagged = tmp_path / "flagged.json"
    for budget in ("full", "quick"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "moyal", "--budget", budget, "--out", str(flagged)])
        assert exc.value.code == 2
    assert not flagged.exists()


def test_verify_unknown_suite_exits_2(capsys):
    assert cli.main(["verify", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exits_1(monkeypatch, tmp_path):
    from lgwigner.verify import CheckResult, SuiteReport

    def fake(name, seed=0):
        bad = CheckResult("x", 1.0, 1e-6, False, 1, 0.0)
        return SuiteReport(suite=name, checks=[bad], passed=False, seed=seed)

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify", "beam", "--out", str(tmp_path / "r.json")]) == 1


def test_verify_summary_reports_a_nan_error(monkeypatch, capsys):
    from lgwigner.verify import CheckResult, SuiteReport

    def fake(name, seed=0):
        good = CheckResult("a", 1e-16, 1e-6, True, 1, 0.0)
        bad = CheckResult("b", float("nan"), 1e-6, False, 1, 0.0)
        return SuiteReport(suite=name, checks=[good, bad], passed=False, seed=seed)

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify", "beam"]) == 1
    assert "FAIL (2 checks, worst error nan," in capsys.readouterr().out


def _non_finite_report(name, seed=0):
    from lgwigner.verify import CheckResult, SuiteReport

    good = CheckResult("a", 1e-16, 1e-6, True, 1, 0.0)
    nan = CheckResult("b", float("nan"), 1e-6, False, 1, 0.0)
    inf = CheckResult("c", float("inf"), 1e-6, False, 1, 0.0)
    return SuiteReport(suite=name, checks=[good, nan, inf], passed=False, seed=seed)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_report_json_writes_non_finite_errors_as_null():
    parsed = _strict_json(_non_finite_report("beam").to_json())
    assert parsed["passed"] is False
    checks = parsed["checks"]
    assert [c["max_abs_err"] for c in checks] == [1e-16, None, None]
    assert [c["margin"] for c in checks][1:] == [None, None]
    assert [c["passed"] for c in checks] == [True, False, False]


def test_verify_out_file_is_strict_json_with_a_nan_error(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_suite", _non_finite_report)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "beam", "--out", str(out)]) == 1
    parsed = _strict_json(out.read_text())
    assert parsed["passed"] is False
    assert [c["max_abs_err"] for c in parsed["checks"]] == [1e-16, None, None]


def _readme_commands():
    """Every ``lgwigner ...`` line of README.md's ``sh`` blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("lgwigner ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {shlex.split(line)[1] for line in commands} == {"modes", "wigner", "beam", "verify"}
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_usage_errors_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    # inverted bounds
    assert cli.main(["modes", "hg", "--index", "0", "0", "--xmin", "2", "--xmax", "-2", "--out", str(out)]) == 2
    # count out of range
    assert cli.main(["modes", "hg", "--index", "0", "0", "--nx", "1", "--out", str(out)]) == 2
    # index out of range surfaces as usage error
    assert cli.main(["modes", "hg", "--index", "99", "0", "--out", str(out)]) == 2
    # unknown subcommand exits 2 via argparse
    with pytest.raises(SystemExit) as exc:
        cli.main(["noexist"])
    assert exc.value.code == 2


def test_io_error_exits_3(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = cli.main(["modes", "hg", "--index", "0", "0", "--nx", "4", "--ny", "4", "--out", str(missing_dir)])
    assert code == 3


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(name, seed=0):
        raise RuntimeError("suite beam produced unexpected checks")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert cli.main(["verify", "beam"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: suite beam produced unexpected checks\n")
    assert "Traceback" in err


def test_internal_value_error_exits_4(monkeypatch, tmp_path, capsys):
    def broken(index, x, y):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "hg_mode", broken)
    argv = ["modes", "hg", "--index", "0", "0", "--nx", "4", "--ny", "4", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: ValueError: internal bug\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["modes", "hg", "--index", "65", "0"], "first index 65 outside supported range [0, 64]"),
        (["wigner", "hermite", "--indices", "65", "0"], "first index 65 outside"),
        (["wigner", "hg_general", "--indices", "0", "0", "0", "65"], "second index 65 outside"),
        (["wigner", "lg_general", "--indices", "1", "0"], "kind lg_general takes four indices, got 2"),
        (["wigner", "lg_general", "--indices", "0", "0", "0", "0"], "kind lg_general requires --points FILE"),
        (["modes", "lg", "--index", "0", "0", "--xmin=-inf"], "xmin must be finite"),
        (["modes", "lg", "--index", "0", "0", "--xmin=-inf", "--xmax=inf"], "xmin must be finite"),
        (["wigner", "lg_diag", "--indices", "0", "0", "--xi1", "nan"], "xi1 must be finite"),
        (["beam", "--index", "0", "0", "--w0", "1", "--k", "2", "--z", "nan"], "z must be finite"),
        (["beam", "--index", "0", "0", "--w0", "-1", "--k", "2"], "w0 must be positive and finite"),
        (["beam", "--index", "0", "65", "--w0", "1", "--k", "2"], "ell 65 outside supported range [-64, 64]"),
        (["verify", "beam", "--seed", "-1"], "seed must be non-negative"),
        # finite, but past the coordinate and Rayleigh-range domain
        (["modes", "lg", "--index", "0", "0", "--xmin=-1e200", "--xmax", "1e200"], "xmin must lie in"),
        (["beam", "--index", "0", "0", "--w0", "1e-200", "--k", "1", "--z", "1"], "zR = k w0**2 / 2"),
        (["beam", "--index", "0", "0", "--w0", "1", "--k", "1", "--z", "1e300"], "z must lie in"),
        (["beam", "--index", "0", "0", "--w0", "1e200", "--k", "1"], "w0 must be at most 1e150"),
        (["wigner", "lg_diag", "--indices", "0", "0", "--xi1", "1e200"], "xi1 must lie in"),
        (["beam", "--index", "0", "0", "--w0", "1e-100", "--k", "1", "--z", "1"], "1e150 Rayleigh ranges"),
        # inside the Rayleigh-range bound, but k z overflows the carrier phase
        (
            ["beam", "--index", "0", "0", "--w0", "1e-100", "--k", "1e300", "--z", "1e10", "--nx", "3", "--ny", "3"],
            "k |z| must be finite",
        ),
    ],
)
def test_invalid_user_input_exits_2(tmp_path, capsys, argv, message):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.5,0.5,0.5\n")
    out = tmp_path / "never.csv"
    points = ["--points", str(pts)] if "hg_general" in argv else []
    assert cli.main(argv + points + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "0x1p3", "", "1e200", "-1.5e150"])
def test_points_file_non_finite_or_malformed_token_exits_2(tmp_path, capsys, token):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x1,x2,xi1,xi2\n0.5,0.5,0.5,0.5\n0.5,{token},0.5,0.5\n")
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "hg_general", "--indices", "0", "0", "0", "0", "--points", str(pts), "--out", str(out)])
    assert code == 2
    assert "line 3:" in capsys.readouterr().err
    assert not out.exists()


# The per-element writers the bulk ones replaced, kept as the reference
# for the byte format.
def _reference_fmt(value):
    return repr(float(value))


def _reference_grid_csv(xs, ys, values):
    lines = ["x,y,re,im\n"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = complex(values[i, j])
            lines.append(f"{_reference_fmt(x)},{_reference_fmt(y)},{_reference_fmt(v.real)},{_reference_fmt(v.imag)}\n")
    return "".join(lines).encode()


def _reference_points_csv(points, values):
    lines = ["x1,x2,xi1,xi2,re,im\n"]
    for pt, v in zip(points, values):
        v = complex(v)
        coords = ",".join(_reference_fmt(c) for c in pt)
        lines.append(f"{coords},{_reference_fmt(v.real)},{_reference_fmt(v.imag)}\n")
    return "".join(lines).encode()


_EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.5e-300]


def test_grid_csv_matches_per_element_reference(tmp_path):
    xs = np.array([-0.0, 1e-5, 0.1 + 0.2])
    ys = np.array([5e-324, 1e16, -1.5e-300, 2.5, -7.0])  # nx != ny pins the row order
    edge = np.array(_EDGE_VALUES)
    values = edge[:, None] + 1j * edge[None, ::-1]
    values = np.resize(values, (xs.size, ys.size))
    out = tmp_path / "grid.csv"
    cli._write_grid_csv(str(out), xs, ys, values)
    assert out.read_bytes() == _reference_grid_csv(xs, ys, values)
    # a real grid writes its imaginary parts as 0.0
    cli._write_grid_csv(str(out), xs, ys, values.real)
    assert out.read_bytes() == _reference_grid_csv(xs, ys, values.real)
    # ... NaN, infinities and -0.0 included
    real = np.resize(np.array([-0.0, np.nan, np.inf, -np.inf, *_EDGE_VALUES]), (xs.size, ys.size))
    cli._write_grid_csv(str(out), xs, ys, real)
    assert out.read_bytes() == _reference_grid_csv(xs, ys, real)
    assert out.read_bytes().count(b",nan,0.0\n") == np.isnan(real).sum()


def test_points_csv_matches_per_element_reference(tmp_path):
    points = [tuple(np.roll(_EDGE_VALUES, s)[:4].tolist()) for s in range(6)]
    values = [complex(a, b) for a, b in zip(_EDGE_VALUES, _EDGE_VALUES[::-1])]
    out = tmp_path / "points.csv"
    cli._write_points_csv(str(out), points, values)
    assert out.read_bytes() == _reference_points_csv(points, values)


def _force_workers(monkeypatch, workers):
    """Make every CSV of at least ``workers`` rows use ``workers`` processes,
    whatever the CPU count."""
    monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _chunk_edge_values(rows, workers):
    """Values cycling through the edge cases, with NaN and infinities on the
    first and last row of every chunk the writer splits ``rows`` into."""
    edge = np.array(_EDGE_VALUES)
    values = np.empty(rows, dtype=complex)
    values.real = np.resize(edge, rows)
    values.imag = np.resize(edge[::-1], rows)
    bounds = [rows * w // workers for w in range(workers + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        values[start] = complex(np.nan, -np.inf)
        values[stop - 1] = complex(np.inf, np.nan)
    return values


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("nx, ny", [(3, 5), (4, 5), (2, 7)])  # 15, 20 and 14 rows
def test_parallel_grid_csv_matches_per_element_reference(tmp_path, monkeypatch, workers, nx, ny):
    _force_workers(monkeypatch, workers)
    forks = _count_forks(monkeypatch)
    xs = np.resize(np.array([np.nan, *_EDGE_VALUES]), nx)
    ys = np.resize(np.array([*_EDGE_VALUES[::-1], -np.inf]), ny)
    values = _chunk_edge_values(nx * ny, workers).reshape(nx, ny)
    out = tmp_path / "grid.csv"
    for grid in (values, values.real):
        cli._write_grid_csv(str(out), xs, ys, grid)
        assert out.read_bytes() == _reference_grid_csv(xs, ys, grid)
    assert forks == [os.getpid()] * 2 * (workers - 1)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [7, 10, 11])
def test_parallel_points_csv_matches_per_element_reference(tmp_path, monkeypatch, workers, rows):
    _force_workers(monkeypatch, workers)
    forks = _count_forks(monkeypatch)
    points = [tuple(np.roll(_EDGE_VALUES, s)[:4].tolist()) for s in range(rows)]
    values = _chunk_edge_values(rows, workers)
    out = tmp_path / "points.csv"
    cli._write_points_csv(str(out), points, values)
    assert out.read_bytes() == _reference_points_csv(points, values)
    assert len(forks) == workers - 1
    _assert_no_child_left()


@pytest.mark.parametrize("workers, fail_in", [(2, "child"), (2, "parent"), (1, "parent")])
@pytest.mark.parametrize(
    "error, code, message",
    [
        (ValueError("formatting bug"), cli.EXIT_INTERNAL, "internal error: "),
        (OSError(28, "No space left on device"), cli.EXIT_IO, "i/o error: "),
    ],
)
def test_a_failing_writer_exits_as_one_process_does_and_leaves_no_child(
    tmp_path, monkeypatch, capsys, workers, fail_in, error, code, message
):
    _force_workers(monkeypatch, workers)
    parent = os.getpid()
    csv_lines = cli._csv_lines

    def failing(coords, values):
        if (os.getpid() == parent) == (fail_in == "parent"):
            raise error
        return csv_lines(coords, values)

    monkeypatch.setattr(cli, "_csv_lines", failing)
    argv = ["modes", "lg", "--index", "1", "0", "--nx", "4", "--ny", "4", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and str(error) in captured.err
    if fail_in == "child":
        assert "formatting CSV rows 8-15 failed" in captured.err
    _assert_no_child_left()


def _run_cli(*args):
    """Run Python on ``args`` with stdout piped and block-buffered."""
    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True
    )


def test_forked_writers_print_nothing_of_their_own(tmp_path):
    """Stdout piped to another process is block-buffered; a child that
    flushed it on exit would repeat what the parent had not yet written."""
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    # 2 * 16,384 rows: one process per CPU, up to two
    argv = ["modes", "lg", "--index", "2", "1", "--nx", "128", "--ny", "256"]
    run = _run_cli("-m", "lgwigner.cli", *argv, "--out", str(plain))
    assert run.stdout == f"modes lg (2,1): wrote 32768 samples to {plain}\n"
    run = _run_cli("-m", "lgwigner.cli", *argv, "--out", str(timed), "--timings")
    assert run.stdout == f"modes lg (2,1): wrote 32768 samples to {timed}\n"
    assert plain.read_bytes() == timed.read_bytes()
    # three processes on any machine, with a line already waiting in the buffer
    forced = tmp_path / "forced.csv"
    script = (
        "import sys; from lgwigner import cli; print('before'); "
        "cli._usable_cpus = lambda: 3; cli._ROWS_PER_WORKER = 4; sys.exit(cli.main(sys.argv[1:]))"
    )
    run = _run_cli("-c", script, "modes", "lg", "--index", "2", "1", "--nx", "5", "--ny", "3", "--out", str(forced))
    assert run.stdout == f"before\nmodes lg (2,1): wrote 15 samples to {forced}\n"
    xs, ys = np.linspace(-4.0, 4.0, 5), np.linspace(-4.0, 4.0, 3)
    assert forced.read_bytes() == _reference_grid_csv(xs, ys, lg_mode(ModeIndex.lg(2, 1), xs[:, None], ys[None, :]))


@pytest.mark.parametrize(
    "argv",
    [
        ["modes", "lg", "--index", "2", "1", "--nx", "12", "--ny", "9"],
        ["wigner", "hermite", "--indices", "3", "1", "--nx", "5", "--ny", "11"],
        ["wigner", "lg_diag", "--indices", "2", "1", "--xi1", "0.5", "--nx", "7", "--ny", "10"],
        ["wigner", "hg_general", "--indices", "1", "2", "0", "1"],
        ["beam", "--index", "1", "-2", "--w0", "1.0", "--k", "10.0", "--z", "0.5", "--nx", "8", "--ny", "6"],
    ],
)
def test_timings_change_only_stderr(tmp_path, capsys, argv):
    if "hg_general" in argv:
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2,xi1,xi2\n1.0,0.5,-0.25,0.75\n0,0,0,0\n-1,2,0.5,-0.5\n")
        argv = argv + ["--points", str(pts)]
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    out_plain, err_plain = capsys.readouterr()
    assert cli.main(argv + ["--out", str(timed), "--timings"]) == 0
    out_timed, err_timed = capsys.readouterr()
    assert plain.read_bytes() == timed.read_bytes()
    assert out_plain.replace(str(plain), str(timed)) == out_timed
    assert err_plain == ""
    assert err_timed.startswith("timings: evaluate ") and "format+write" in err_timed
