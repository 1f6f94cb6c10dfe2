"""Command-line surface.

Subcommands: ``modes`` and ``beam`` evaluate fields on rectangular grids
and write CSV (optionally a grayscale magnitude image for modes),
``wigner`` evaluates closed forms on grids, slices, or point lists, and
``verify`` runs the identity suites with exit-code semantics.

Exit codes: 0 success (verification passed), 1 verification failure,
2 usage error, 3 I/O failure, 4 internal error (any other exception).
User input is validated here, before any library call, so exit 2 means
the input was refused and a library exception always means exit 4.
Coordinates (grid bounds, ``--xi1``/``--xi2``, ``--z``, points-file
values) must be finite and at most 1e150 in magnitude, so that their
squares stay finite. Beam parameters must give a positive, finite
Rayleigh range, with ``|z|`` at most 1e150 of them and ``k |z|``
finite (see :class:`lgwigner.beam.BeamParams` and
:func:`lgwigner.beam.beam_geometry`).
All configuration is via flags; the tool reads no environment variables
or config files, so identical invocations produce identical outputs.
``--timings`` adds an evaluate and format+write breakdown on stderr and
changes nothing else.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback

import numpy as np

from .beam import BeamIndex, BeamParams, beam_field, beam_geometry
from .modes import ModeIndex, hg_mode, lg_mode
from .verify import SUITE_NAMES, run_suite
from .wigner import PhasePoint4, wigner_hermite_closed, wigner_hg_closed, wigner_lg_closed, wigner_lg_diag

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


#: The one header a points file may start with; also heads point-value CSVs
_POINTS_HEADER = "x1,x2,xi1,xi2"

#: Largest coordinate magnitude accepted, in flags and points files alike
_COORD_LIMIT = 1e150


class UsageError(ValueError):
    """Invalid arguments or malformed input files."""


def _validated(make, *args):
    """``make(*args)`` for a validating constructor applied to user input;
    the ValueError or TypeError it raises becomes a UsageError with the
    same message."""
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None


def _require_coordinates(**flags) -> None:
    for name, value in flags.items():
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite")
        if abs(value) > _COORD_LIMIT:
            raise UsageError(f"{name} must lie in [-1e150, 1e150]")


def _grid_axes(args) -> tuple[np.ndarray, np.ndarray]:
    _require_coordinates(xmin=args.xmin, xmax=args.xmax, ymin=args.ymin, ymax=args.ymax)
    if not (args.xmin < args.xmax and args.ymin < args.ymax):
        raise UsageError("grid bounds must satisfy xmin < xmax and ymin < ymax")
    for n in (args.nx, args.ny):
        if not 2 <= n <= 4096:
            raise UsageError("grid counts must lie in [2, 4096]")
    return np.linspace(args.xmin, args.xmax, args.nx), np.linspace(args.ymin, args.ymax, args.ny)


def _csv_lines(coords, values) -> str:
    """CSV lines pairing each formatted coordinate prefix with ``re,im``.

    Every float is written as its ``repr``: the shortest decimal that
    round-trips.
    """
    values = np.asarray(values, dtype=complex)
    re = map(repr, values.real.tolist())
    im = map(repr, values.imag.tolist())
    return "".join([f"{c},{r},{i}\n" for c, r, i in zip(coords, re, im)])


def _write_grid_csv(path: str, xs, ys, values) -> None:
    """Rows run x outer, y inner; written one x row at a time."""
    ys = list(map(repr, np.asarray(ys, dtype=float).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("x,y,re,im\n")
        for x, row in zip(map(repr, np.asarray(xs, dtype=float).tolist()), values):
            fh.write(_csv_lines([f"{x},{y}" for y in ys], row))


def _write_points_csv(path: str, points, values) -> None:
    coords = [",".join(map(repr, pt)) for pt in np.asarray(points, dtype=float).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(_POINTS_HEADER + ",re,im\n")
        fh.write(_csv_lines(coords, values))


def _write_pgm(path: str, values) -> None:
    """8-bit binary grayscale of |values|, linear from [0, max] to [0, 255].

    Rows scan y from max to min, columns x from min to max.
    """
    mag = np.abs(np.asarray(values))
    peak = mag.max()
    scaled = np.zeros_like(mag) if peak == 0 else mag * (255.0 / peak)
    img = np.rint(scaled).clip(0, 255).astype(np.uint8)
    img = img.T[::-1]  # values[i, j] = f(x_i, y_j); image row 0 is y max
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())


def _read_points_file(path: str) -> list[tuple[float, float, float, float]]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"points file {path!r} is not UTF-8 text: {exc.reason}") from None
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line == _POINTS_HEADER):
            continue
        point = _parse_point(line)
        if point is None:
            raise UsageError(f"points file line {lineno}: expected {_POINTS_HEADER!r}, got {line!r}")
        points.append(point)
    if not points:
        raise UsageError("points file contains no points")
    return points


def _parse_point(line: str) -> tuple[float, float, float, float] | None:
    """The four floats of a points-file line, each finite and within the
    coordinate limit, or None."""
    parts = line.split(",")
    if len(parts) != 4:
        return None
    try:
        point = tuple(map(float, parts))
    except ValueError:
        return None
    return point if all(abs(v) <= _COORD_LIMIT for v in point) else None


def _add_grid_flags(parser) -> None:
    parser.add_argument("--xmin", type=float, default=-4.0)
    parser.add_argument("--xmax", type=float, default=4.0)
    parser.add_argument("--nx", type=int, default=128)
    parser.add_argument("--ymin", type=float, default=-4.0)
    parser.add_argument("--ymax", type=float, default=4.0)
    parser.add_argument("--ny", type=int, default=128)


def _report_timings(args, start: float, evaluated: float) -> None:
    """With ``--timings``, print the seconds spent evaluating (from
    ``start`` to ``evaluated``) and formatting and writing (since then)."""
    if args.timings:
        written = time.perf_counter()
        print(
            f"timings: evaluate {evaluated - start:.6f} s, format+write {written - evaluated:.6f} s",
            file=sys.stderr,
        )


def cmd_modes(args) -> int:
    xs, ys = _grid_axes(args)
    j, k = args.index
    hg = args.kind == "hg"
    index = _validated(ModeIndex.hg if hg else ModeIndex.lg, j, k)
    start = time.perf_counter()
    values = (hg_mode if hg else lg_mode)(index, xs[:, None], ys[None, :])
    evaluated = time.perf_counter()
    _write_grid_csv(args.out, xs, ys, values)
    if args.image:
        _write_pgm(args.image, values)
    _report_timings(args, start, evaluated)
    print(f"modes {args.kind} ({j},{k}): wrote {values.size} samples to {args.out}")
    return EXIT_OK


def cmd_wigner(args) -> int:
    if args.kind in ("hermite", "lg_diag"):
        if len(args.indices) != 2:
            raise UsageError(f"kind {args.kind} takes two indices, got {len(args.indices)}")
        j, k = args.indices
        _validated(ModeIndex.lg, j, k)
        xs, ys = _grid_axes(args)
        if args.kind == "lg_diag":
            _require_coordinates(xi1=args.xi1, xi2=args.xi2)
        start = time.perf_counter()
        if args.kind == "hermite":
            values = wigner_hermite_closed(j, k, xs[:, None], ys[None, :])
        else:
            values = wigner_lg_diag(j, k, PhasePoint4(xs[:, None], ys[None, :], args.xi1, args.xi2))
        evaluated = time.perf_counter()
        _write_grid_csv(args.out, xs, ys, values)
        _report_timings(args, start, evaluated)
        print(f"wigner {args.kind} ({j},{k}): wrote {values.size} samples to {args.out}")
        return EXIT_OK

    if len(args.indices) != 4:
        raise UsageError(f"kind {args.kind} takes four indices, got {len(args.indices)}")
    if not args.points:
        raise UsageError(f"kind {args.kind} requires --points FILE")
    j, k, m, n = args.indices
    lg = args.kind == "lg_general"
    index = ModeIndex.lg if lg else ModeIndex.hg
    _validated(index, j, k)
    _validated(index, m, n)
    points = np.array(_read_points_file(args.points))
    closed = wigner_lg_closed if lg else wigner_hg_closed
    start = time.perf_counter()
    values = closed(j, k, m, n, PhasePoint4(*points.T))
    evaluated = time.perf_counter()
    _write_points_csv(args.out, points, values)
    _report_timings(args, start, evaluated)
    print(f"wigner {args.kind} ({j},{k},{m},{n}): wrote {len(values)} samples to {args.out}")
    return EXIT_OK


def cmd_beam(args) -> int:
    xs, ys = _grid_axes(args)
    params = _validated(BeamParams, args.w0, args.k)
    index = _validated(BeamIndex, *args.index)
    _require_coordinates(z=args.z)
    _validated(beam_geometry, params, args.z)
    start = time.perf_counter()
    r = np.hypot(xs[:, None], ys[None, :])
    phi = np.arctan2(ys[None, :], xs[:, None])
    values = beam_field(index, params, r, phi, args.z)
    evaluated = time.perf_counter()
    _write_grid_csv(args.out, xs, ys, values)
    _report_timings(args, start, evaluated)
    print(
        f"beam (p={index.p}, ell={index.ell}) at z={args.z}: "
        f"wrote {values.size} samples to {args.out}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite name {args.suite!r}; expected one of {SUITE_NAMES}")
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    report = run_suite(args.suite, seed=args.seed, budget=args.budget)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    # np.max, unlike Python's max, propagates a NaN error into the summary
    worst = np.max([c.max_abs_err for c in report.checks], initial=0.0)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"suite {report.suite}: {status} "
        f"({len(report.checks)} checks, worst error {worst:.3e}, seed {report.seed})"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgwigner",
        description="Evaluate oscillator modes, Wigner transforms, and beam fields; "
        "run identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="evaluate an HG or LG mode on a grid")
    p_modes.add_argument("kind", choices=("hg", "lg"))
    p_modes.add_argument("--index", type=int, nargs=2, required=True, metavar=("J", "K"))
    _add_grid_flags(p_modes)
    p_modes.add_argument("--out", required=True, help="output CSV path")
    p_modes.add_argument("--image", help="optional PGM magnitude image path")
    p_modes.set_defaults(func=cmd_modes)

    p_wig = sub.add_parser("wigner", help="evaluate Wigner closed forms")
    p_wig.add_argument("kind", choices=("hermite", "lg_diag", "lg_general", "hg_general"))
    p_wig.add_argument(
        "--indices", type=int, nargs="+", required=True,
        help="two degrees for hermite/lg_diag, four for the general kinds",
    )
    _add_grid_flags(p_wig)
    p_wig.add_argument("--xi1", type=float, default=0.0, help="fixed xi1 for lg_diag slices")
    p_wig.add_argument("--xi2", type=float, default=0.0, help="fixed xi2 for lg_diag slices")
    p_wig.add_argument("--points", help="CSV of x1,x2,xi1,xi2 rows for the general kinds")
    p_wig.add_argument("--out", required=True)
    p_wig.set_defaults(func=cmd_wigner)

    p_beam = sub.add_parser("beam", help="evaluate a transverse beam slice")
    p_beam.add_argument("--index", type=int, nargs=2, required=True, metavar=("P", "ELL"))
    p_beam.add_argument("--w0", type=float, required=True, help="waist radius")
    p_beam.add_argument("--k", type=float, required=True, help="wavenumber")
    p_beam.add_argument("--z", type=float, default=0.0, help="height along the beam axis")
    _add_grid_flags(p_beam)
    p_beam.add_argument("--out", required=True)
    p_beam.set_defaults(func=cmd_beam)

    for p in (p_modes, p_wig, p_beam):
        p.add_argument(
            "--timings", action="store_true",
            help="print evaluate and format+write seconds on stderr",
        )

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--budget", choices=("full",), default="full")
    p_ver.add_argument("--out", help="write the JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
