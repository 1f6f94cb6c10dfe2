"""The benchmark's workloads, each with its set-up, timed body and gate.

Every workload calls ``lgwigner`` only through module attributes looked up
at call time, so the tracer's wrappers see the calls in traced runs and
untraced runs execute the library untouched.

- ``verify_full`` is the paper's product: a certified full-budget
  ``run_suite("all")``. Its operations are the 31 checks.
- ``cli_export`` calls ``cli.main`` in-process for a fixed set of
  invocations. Its operations are the invocations; each output must read
  back exactly and agree with a second library route.
- ``library_grid`` evaluates large arrays through whole-array calls, the
  only place where ``extended_wigner_rotfft`` and degrees above 12 carry
  weight. Its operations are the library calls, each gated by a second
  route.

Inputs come from the seed. Orders, grid sizes and rotate-plus-FFT inputs
are fixed so that every seed asks for the same work and the gates'
error margins do not swing from seed to seed; the seed draws the sample
points, and they are many, so the largest error over them is stable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

import lgwigner as lg
import lgwigner.cli
import lgwigner.verify

SQRT2 = math.sqrt(2.0)

#: Closed form against closed form: the README's form-vs-form budget.
FORM_TOL = 1e-12


@dataclass
class Check:
    """One correctness gate: an error against its tolerance.

    ``tol`` is ``None`` for exact gates (read-back, byte identity), which
    pass or fail and have no margin.
    """

    name: str
    err: float
    tol: float | None
    passed: bool
    detail: str = ""

    @property
    def margin(self) -> float | None:
        return None if self.tol is None else self.err / self.tol


@dataclass
class Outcome:
    """What one execution of a workload's timed body produced.

    ``results`` holds the values the gate inspects; the timed loop drops
    them from all but the last outcome, so a run holds one execution's
    arrays at a time.
    """

    attempted: int = 0
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # operation -> failure text
    parts: dict = field(default_factory=dict)  # part -> seconds
    fingerprint: dict = field(default_factory=dict)  # output -> sha256


@dataclass
class Gate:
    """The verdict over all of a run's outcomes."""

    attempted: int
    failed: int
    checks: list
    outputs: dict = field(default_factory=dict)  # file -> {"sha256", "bytes"}
    rotfft_max_err: float = 0.0
    bytes_written: int = 0


def _error_check(name, err, tol) -> Check:
    err = float(err)
    return Check(name, err, tol, bool(err <= tol))


def _timed(outcome: Outcome, name: str, fn):
    """Run one operation, recording its time and any exception."""
    t0 = time.perf_counter()
    try:
        outcome.results[name] = fn()
    except Exception as exc:  # an operation that raises counts as failed
        outcome.errors[name] = f"{type(exc).__name__}: {exc}"
    outcome.parts[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# verify_full


class VerifyFull:
    name = "verify_full"

    #: The suites draw their sample points from this seed, not from the
    #: benchmark seed. The worst margin is set by ``rotfft_parseval``,
    #: whose error depends on a random superposition: over 200 seeds its
    #: margin ranged 0.08 to 0.22, and the quartile spread of ten seeds
    #: came to 0.21 to 0.36 of the median, wider than any bound this
    #: benchmark may set. Seed 7 is the acceptance gate's seed.
    SUITE_SEED = 7

    def setup(self, seed, workdir):
        return {"suite_seed": self.SUITE_SEED}

    def body(self, inputs, split=False) -> Outcome:
        """One certified full-budget run; ``split`` runs it suite by suite."""
        outcome = Outcome()
        seed = inputs["suite_seed"]
        names = [s for s in lg.SUITE_NAMES if s != "all"] if split else ["all"]
        for suite in names:
            _timed(outcome, suite, lambda s=suite: lg.run_suite(s, seed=seed, budget="full"))
            members = lg.verify.SUITE_CHECKS if suite == "all" else {suite: lg.verify.SUITE_CHECKS[suite]}
            expected = [check for checks in members.values() for check in checks]
            outcome.attempted += len(expected)
            raised = outcome.errors.pop(suite, None)
            if raised is not None:  # every check of the suite is lost
                outcome.errors.update(dict.fromkeys(expected, raised))
                continue
            for c in outcome.results[suite].checks:
                if not c.passed:
                    outcome.errors[c.name] = f"error {c.max_abs_err:.3e} above tolerance {c.tolerance:.0e}"
        return outcome

    def gate(self, inputs, outcomes) -> Gate:
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(len(o.errors) for o in outcomes)
        checks = [
            Check(c.name, float(c.max_abs_err), float(c.tolerance), bool(c.passed))
            for report in outcomes[-1].results.values()
            for c in report.checks
        ]
        rot = [c.err for c in checks if c.name.startswith("rotfft_")]
        return Gate(attempted, failed, checks, rotfft_max_err=max(rot, default=0.0))


# ---------------------------------------------------------------------------
# cli_export

GRID_HALF = 4.0  # the CLI's default grid bounds are [-4, 4] on both axes
POINTS_ROWS = 2000
POINTS_HEADER = "x1,x2,xi1,xi2"
BEAM = dict(p=2, ell=-3, w0=1.0, k=10.0, z=0.5)
LG_DIAG_XI = (0.5, -0.25)


def _grid_argv(n):
    return ["--nx", str(n), "--ny", str(n)]


#: name -> (argv without --out, grid size or None for points files)
INVOCATIONS = {
    "modes_lg": (["modes", "lg", "--index", "3", "1", *_grid_argv(512)], 512),
    "modes_hg": (["modes", "hg", "--index", "3", "2", *_grid_argv(512)], 512),
    "wigner_hermite": (["wigner", "hermite", "--indices", "4", "2", *_grid_argv(256)], 256),
    "wigner_lg_diag": (
        ["wigner", "lg_diag", "--indices", "2", "1", "--xi1", repr(LG_DIAG_XI[0]),
         "--xi2", repr(LG_DIAG_XI[1]), *_grid_argv(256)],
        256,
    ),
    "wigner_lg_general": (["wigner", "lg_general", "--indices", "2", "1", "0", "3"], None),
    "wigner_hg_general": (["wigner", "hg_general", "--indices", "1", "2", "3", "0"], None),
    "beam": (
        ["beam", "--index", str(BEAM["p"]), str(BEAM["ell"]), "--w0", repr(BEAM["w0"]),
         "--k", repr(BEAM["k"]), "--z", repr(BEAM["z"]), *_grid_argv(256)],
        256,
    ),
}


def write_points(path, seed) -> np.ndarray:
    """Seeded 4D points in [-3, 3], written as the CLI's points file."""
    points = np.random.default_rng([seed, 2]).uniform(-3.0, 3.0, size=(POINTS_ROWS, 4))
    with open(path, "w", newline="") as fh:
        fh.write(POINTS_HEADER + "\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return points


def read_back(path, header, coords, values) -> tuple[np.ndarray | None, str]:
    """Parse a CLI CSV and hold it to the documented format and values.

    The header must match, lines must end in LF only, every number must be
    the shortest round-trip decimal of its value, the coordinate columns
    must equal ``coords`` and the ``re, im`` columns must equal ``values``
    exactly: a shortest round-trip decimal reads back as the very float
    the library returned. Returns the parsed table, or ``None`` with the
    reason it was refused.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        return None, "CR byte in output"
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        return None, "non-ASCII byte in output"
    lines = text.split("\n")
    if lines[-1] != "":
        return None, "missing final LF"
    if lines[0] != header:
        return None, f"header {lines[0]!r}, expected {header!r}"
    ncols = header.count(",") + 1
    rows = lines[1:-1]
    if len(rows) != len(coords):
        return None, f"{len(rows)} rows, expected {len(coords)}"
    if any(row.count(",") != ncols - 1 for row in rows):
        return None, "wrong number of fields"
    body = ",".join(rows)
    tokens = body.split(",")
    try:
        numbers = [float(t) for t in tokens]
    except ValueError as exc:
        return None, f"unparsable field: {exc}"
    if ",".join(map(repr, numbers)) != body:
        bad = next(t for t, v in zip(tokens, numbers) if repr(v) != t)
        return None, f"field {bad!r} is not a shortest round-trip decimal"
    table = np.array(numbers).reshape(len(rows), ncols)
    width = coords.shape[1]
    if not np.array_equal(table[:, :width], coords):
        return None, "coordinates differ from the requested ones"
    if not np.array_equal(table[:, -2] + 1j * table[:, -1], values):
        return None, "values differ from the library's"
    return table, ""


def _grid_coords(n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axis = np.linspace(-GRID_HALF, GRID_HALF, n)
    coords = np.column_stack([np.repeat(axis, n), np.tile(axis, n)])
    return axis[:, None], axis[None, :], coords


def beam_route(index, params, x, y, z):
    """``beam_field`` by a second route: ``lg_mode`` at the waist, scaled
    by the width w(z) and turned by the curvature and Gouy phases.

    At the waist the normalized beam is ``(-1)**p sqrt2/w0`` times the
    oscillator LG mode at ``sqrt2 (x, y) / w0``; away from it the same
    holds with w(z), times ``exp(-i (-k z + k r**2 / (2 R) - (2p + ell + 1) gouy))``.
    """
    p, ell, k = index.p, index.ell, params.k
    geom = lg.beam_geometry(params, z)
    w = geom.w
    mode = lg.ModeIndex.lg(p, p + ell) if ell >= 0 else lg.ModeIndex.lg(p - ell, p)
    phase = -k * z + 0.5 * k * (x * x + y * y) * geom.inv_R - (2 * p + ell + 1) * geom.gouy
    return (-1.0) ** p * (SQRT2 / w) * lg.lg_mode(mode, SQRT2 * x / w, SQRT2 * y / w) * np.exp(-1j * phase)


def _hermite_poly_route(n, x):
    """h_n from the physicists' polynomial and explicit normalization."""
    norm = math.pi**-0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * np.exp(-0.5 * x * x) * lg.hermite_poly(n, x)


def _lg_product(j, k, m, n, u1, v1, u2, v2):
    return lg.lg_mode(lg.ModeIndex.lg(j, m), u1, v1) * lg.lg_mode(lg.ModeIndex.lg(k, n), u2, v2)


def _expected(name, points):
    """Same-route values (what the CLI must have written, exactly) and
    second-route values (an independent library formula) for one output."""
    if name in ("wigner_lg_general", "wigner_hg_general"):
        x1, x2, xi1, xi2 = points.T
        j, k, m, n = (int(v) for v in INVOCATIONS[name][0][-4:])
        if name == "wigner_lg_general":
            same = [lg.wigner_lg_closed(j, k, m, n, lg.PhasePoint4(*pt)) for pt in map(tuple, points)]
            second = _lg_product(j, k, m, n, (x1 + xi2) / SQRT2, (xi1 - x2) / SQRT2,
                                 (x1 - xi2) / SQRT2, (xi1 + x2) / SQRT2)
        else:
            same = [lg.wigner_hg_closed(j, k, m, n, lg.PhasePoint4(*pt)) for pt in map(tuple, points)]
            second = _lg_product(j, k, m, n, x1, xi1, x2, xi2)
        return np.array(same, dtype=complex), second
    n = INVOCATIONS[name][1]
    x, y, _ = _grid_coords(n)
    if name == "beam":
        index = lg.BeamIndex(BEAM["p"], BEAM["ell"])
        params = lg.BeamParams(BEAM["w0"], BEAM["k"])
        same = lg.beam_field(index, params, np.hypot(x, y), np.arctan2(y, x), BEAM["z"])
        return same.ravel(), np.ravel(beam_route(index, params, x, y, BEAM["z"]))
    argv = INVOCATIONS[name][0]
    j, k = int(argv[3]), int(argv[4])  # the index flags' values
    if name == "modes_lg":
        same = lg.lg_mode(lg.ModeIndex.lg(j, k), x, y)
        second = lg.wigner_hermite_closed(j, k, x, y)
    elif name == "modes_hg":
        same = lg.hg_mode(lg.ModeIndex.hg(j, k), x, y).astype(complex)
        second = _hermite_poly_route(j, x) * _hermite_poly_route(k, y)
    elif name == "wigner_hermite":
        same = np.asarray(lg.wigner_hermite_closed(j, k, x, y), dtype=complex)
        second = lg.lg_mode(lg.ModeIndex.lg(j, k), x, y)
    else:  # wigner_lg_diag
        xi1, xi2 = LG_DIAG_XI
        same = np.array(
            [[lg.wigner_lg_diag(j, k, lg.PhasePoint4(a, b, xi1, xi2)) for b in y.ravel()] for a in x.ravel()],
            dtype=complex,
        )
        second = lg.wigner_hermite_closed(j, j, (x + xi2) / SQRT2, (xi1 - y) / SQRT2) * lg.wigner_hermite_closed(
            k, k, (x - xi2) / SQRT2, (xi1 + y) / SQRT2
        )
    return same.ravel(), np.ravel(second)


class CliExport:
    name = "cli_export"

    def setup(self, seed, workdir):
        points_path = workdir / "points.csv"
        points = write_points(points_path, seed)
        argvs = {}
        for name, (argv, grid) in INVOCATIONS.items():
            extra = [] if grid else ["--points", str(points_path)]
            argvs[name] = [*argv, *extra, "--out", str(workdir / f"{name}.csv")]
        return {"argvs": argvs, "points": points, "workdir": workdir}

    def body(self, inputs, split=False) -> Outcome:
        outcome = Outcome()
        sink = io.StringIO()  # the CLI's one-line summaries
        with contextlib.redirect_stdout(sink):
            for name, argv in inputs["argvs"].items():
                _timed(outcome, name, lambda argv=argv: lg.cli.main(argv))
        outcome.attempted = len(inputs["argvs"])
        for name, code in outcome.results.items():
            if code != 0:
                outcome.errors[name] = f"exit code {code}"
        # fingerprint what this execution wrote, for byte identity across runs
        outcome.fingerprint = {name: _sha256(inputs["workdir"] / f"{name}.csv") for name in inputs["argvs"]}
        return outcome

    def gate(self, inputs, outcomes) -> Gate:
        checks, failed_ops = [], set()
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(len(o.errors) for o in outcomes)
        last = outcomes[-1]
        first_sha = outcomes[0].fingerprint
        outputs, total_bytes = {}, 0
        for name, (argv, grid) in INVOCATIONS.items():
            path = inputs["workdir"] / f"{name}.csv"
            if name in last.errors:
                continue
            size = path.stat().st_size
            total_bytes += size
            outputs[f"{name}.csv"] = {"sha256": last.fingerprint[name], "bytes": size}
            if any(o.fingerprint[name] != first_sha[name] for o in outcomes):
                failed_ops.add(name)
                checks.append(Check(f"{name}.bytes_identical", 0.0, None, False, "output changed between runs"))
            header, coords = ("x,y,re,im", _grid_coords(grid)[2]) if grid else (
                POINTS_HEADER + ",re,im", inputs["points"])
            same, second = _expected(name, inputs["points"])
            table, problem = read_back(path, header, coords, same)
            checks.append(Check(f"{name}.read_back", 0.0, None, table is not None, problem))
            if table is None:
                failed_ops.add(name)
                continue
            check = _error_check(f"{name}.second_route", np.abs(table[:, -2] + 1j * table[:, -1] - second).max(), FORM_TOL)
            checks.append(check)
            if not check.passed:
                failed_ops.add(name)
        failed += len(failed_ops)
        return Gate(attempted, failed, checks, outputs, bytes_written=total_bytes)


def _sha256(path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# library_grid

ROT_MODE = (3, 2)  # HG(3, 2) maps to LG(3, 2)
ROT_WINDOW = 8.0
#: size -> gate: verify's rotfft_maps_hg_to_lg gate at 256, the README's
#: rotate-plus-FFT budget at 512
ROT_SIZES = {256: 1e-5, 512: 1e-6}
TABLE_DEGREE = 64
TABLE_POINTS = 200_000
TABLE_HALF = 14.0
TABLE_TOL = 1e-12  # specfun: about 1e-12 at MAX_DEGREE
MP_ROWS = (0, 1, 2, 16, 32, 48, 63, 64)
MP_POINTS = 24
HIGH_ORDER = (40, 16)
HIGH_BEAM = dict(p=16, ell=-24, w0=2.0, k=10.0, z=0.75)
FIELD_HALF = 12.0
FIELD_N = 512


class LibraryGrid:
    name = "library_grid"

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        j, k = ROT_MODE
        grids = {
            n: lg.Grid2D.sample(
                lambda u, v: lg.hermite_function(j, u) * lg.hermite_function(k, v),
                (-ROT_WINDOW, ROT_WINDOW, n),
                (-ROT_WINDOW, ROT_WINDOW, n),
            )
            for n in ROT_SIZES
        }
        x, y = rng.uniform(-FIELD_HALF, FIELD_HALF, size=(2, FIELD_N, FIELD_N))
        return {
            "grids": grids,
            "table_x": rng.uniform(-TABLE_HALF, TABLE_HALF, size=TABLE_POINTS),
            "mp_index": rng.choice(TABLE_POINTS, size=MP_POINTS, replace=False),
            "x": x,
            "y": y,
            "r": np.hypot(x, y),
            "phi": np.arctan2(y, x),
        }

    def body(self, inputs, split=False) -> Outcome:
        outcome = Outcome()
        for n, grid in inputs["grids"].items():
            _timed(outcome, f"rotfft_{n}", lambda grid=grid: lg.extended_wigner_rotfft(grid))
        _timed(outcome, "hermite_table", lambda: lg.hermite_function_table(TABLE_DEGREE, inputs["table_x"]))
        j, k = HIGH_ORDER
        x, y = inputs["x"], inputs["y"]
        _timed(outcome, "hermite_closed", lambda: lg.wigner_hermite_closed(j, k, x, y))
        _timed(outcome, "lg_mode", lambda: lg.lg_mode(lg.ModeIndex.lg(j, k), x, y))
        b = HIGH_BEAM
        _timed(
            outcome,
            "beam_field",
            lambda: lg.beam_field(
                lg.BeamIndex(b["p"], b["ell"]), lg.BeamParams(b["w0"], b["k"]), inputs["r"], inputs["phi"], b["z"]
            ),
        )
        outcome.attempted = len(outcome.parts)
        return outcome

    def gate(self, inputs, outcomes) -> Gate:
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(len(o.errors) for o in outcomes)
        res = outcomes[-1].results
        checks = []  # (check, operations it vouches for)
        for n, tol in ROT_SIZES.items():
            if f"rotfft_{n}" in res:
                out = res[f"rotfft_{n}"]
                ref = lg.lg_mode(lg.ModeIndex.lg(*ROT_MODE), out.x_nodes()[:, None], out.y_nodes()[None, :])
                checks.append((_error_check(f"rotfft_{n}", np.abs(out.values - ref).max(), tol), 1))
        if "hermite_table" in res:
            err = _table_vs_mpmath(res["hermite_table"], inputs)
            checks.append((_error_check("hermite_table_vs_mpmath", err, TABLE_TOL), 1))
        if "hermite_closed" in res and "lg_mode" in res:
            err = np.abs(res["hermite_closed"] - res["lg_mode"]).max()
            checks.append((_error_check("hermite_closed_vs_lg_mode", err, FORM_TOL), 2))
        if "beam_field" in res:
            b = HIGH_BEAM
            ref = beam_route(
                lg.BeamIndex(b["p"], b["ell"]), lg.BeamParams(b["w0"], b["k"]), inputs["x"], inputs["y"], b["z"]
            )
            checks.append((_error_check("beam_field_vs_lg_mode", np.abs(res["beam_field"] - ref).max(), FORM_TOL), 1))
        failed += sum(ops for check, ops in checks if not check.passed)
        checks = [check for check, _ in checks]
        rot = [c.err for c in checks if c.name.startswith("rotfft_")]
        return Gate(attempted, failed, checks, rotfft_max_err=max(rot, default=0.0))


def _table_vs_mpmath(table, inputs) -> float:
    """Largest absolute error of sampled table rows against mpmath."""
    import mpmath

    worst = 0.0
    with mpmath.workdps(40):
        for i in inputs["mp_index"]:
            x = mpmath.mpf(float(inputs["table_x"][i]))
            gauss = mpmath.exp(-x * x / 2) / mpmath.power(mpmath.pi, 0.25)
            for n in MP_ROWS:
                ref = gauss * mpmath.hermite(n, x) / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
                worst = max(worst, abs(float(table[n, i] - ref)))
    return worst


WORKLOADS = {w.name: w for w in (VerifyFull(), CliExport(), LibraryGrid())}
