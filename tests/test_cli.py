"""Command-line interface: file formats, round-trips, determinism, and
exit-code semantics."""

import json

import numpy as np
import pytest

from lgwigner import cli
from lgwigner.modes import ModeIndex, hg_mode, lg_mode
from lgwigner.wigner import PhasePoint4, wigner_hermite_closed, wigner_lg_closed


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


def test_wigner_malformed_points_file(tmp_path, capsys):
    pts = tmp_path / "bad.csv"
    pts.write_text("1.0,2.0,3.0\n")
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "hg_general", "--indices", "0", "0", "0", "0", "--points", str(pts), "--out", str(out)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1,2,3,oops\n0.5,0.5,0.5,0.5\n", 1),
        ("x1,x2,xi,xi2\n0.5,0.5,0.5,0.5\n", 1),
        ("x1,x2,xi1,xi2\n0.5,0.5,0.5,0.5\nx1,x2,xi1,xi2\n", 3),
    ],
)
def test_wigner_points_file_only_exact_header_skipped(tmp_path, capsys, text, lineno):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "never.csv"
    code = cli.main(["wigner", "lg_general", "--indices", "1", "0", "0", "1", "--points", str(pts), "--out", str(out)])
    assert code == 2
    assert f"line {lineno}:" in capsys.readouterr().err
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


def test_verify_subcommand_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "beam", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "beam" and report["passed"] is True


def test_verify_unknown_suite_exits_2(capsys):
    assert cli.main(["verify", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exits_1(monkeypatch, tmp_path):
    from lgwigner.verify import CheckResult, SuiteReport

    def fake(name, seed=0, budget="quick"):
        bad = CheckResult("x", 1.0, 1e-6, False, 1, 0.0)
        return SuiteReport(suite=name, checks=[bad], passed=False, seed=seed)

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify", "beam", "--out", str(tmp_path / "r.json")]) == 1


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
