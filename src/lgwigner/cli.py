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
(The standard library's ``tempfile`` takes the directory for the forked
writers' chunks, below, from ``TMPDIR``; that moves no output byte.)
``--timings`` adds an evaluate and format+write breakdown on stderr and
changes nothing else.

CSV rows are formatted by up to one process per usable CPU (the CPU
affinity, or the CPU count where that is missing), at most one per
16,384 rows, so small files stay in one process. The parent formats
the first contiguous chunk of rows into the output file; each other
chunk is formatted by an ``os.fork``ed child into an unlinked temporary
file, which the parent appends in order. The bytes are the same whatever
the CPU count. A child only formats floats and writes, and makes no BLAS
call; it ends with ``os._exit``, so it neither flushes the parent's
buffered output nor runs exit handlers. From Python 3.12, forking a
process that has BLAS threads emits a ``DeprecationWarning``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import shutil
import sys
import tempfile
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

#: Fewest CSV rows per formatting process: forking one more child of a
#: ~65 MB process costs ~13 ms, the time to format ~5k rows
_ROWS_PER_WORKER = 16384


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
    round-trips. Real ``values`` write every imaginary part as ``0.0``,
    the +0.0 that casting a real value to complex gives, NaN included.
    """
    real = not np.iscomplexobj(values)
    values = np.asarray(values, dtype=float if real else complex)
    re = map(repr, values.real.tolist())
    im = itertools.repeat("0.0") if real else map(repr, values.imag.tolist())
    return "".join([f"{c},{r},{i}\n" for c, r, i in zip(coords, re, im)])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(rows: int) -> int:
    """Processes that format ``rows`` CSV rows: one per usable CPU, at
    most one per ``_ROWS_PER_WORKER`` rows, and 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), rows // _ROWS_PER_WORKER))


def _format_in_child(out, encoding: str, write_rows, start: int, stop: int) -> None:
    """In a forked child: write rows [start, stop) to the file ``out`` and
    end the process with exit code 0, or with ``EXIT_IO`` (an OSError) or
    ``EXIT_INTERNAL`` (anything else) and the error's one-line summary
    in place of the rows. Never returns."""
    code = EXIT_INTERNAL
    try:
        with open(out.fileno(), "w", encoding=encoding, newline="", closefd=False) as fh:
            write_rows(fh, start, stop)
        code = EXIT_OK
    except BaseException as exc:  # reported through the exit code: a child never returns
        code = EXIT_IO if isinstance(exc, OSError) else EXIT_INTERNAL
        os.ftruncate(out.fileno(), 0)
        os.pwrite(out.fileno(), "".join(traceback.format_exception_only(exc)).strip().encode(), 0)
    finally:
        os._exit(code)


def _write_csv(path: str, header: str, rows: int, write_rows) -> None:
    """Write ``header`` and then rows [0, rows) to ``path``;
    ``write_rows(fh, start, stop)`` writes rows [start, stop) to the text
    file ``fh``.

    The rows are split into ``_worker_count(rows)`` contiguous chunks. The
    parent writes chunk 0 straight into ``path``; each other chunk is
    written by a forked child into a temporary file and appended in order
    after every child has been reaped. A child's failure is raised here
    as an OSError (exit 3) when the child's error was one, and as a
    RuntimeError (exit 4) otherwise.
    """
    workers = _worker_count(rows)
    bounds = [rows * w // workers for w in range(workers + 1)]
    with open(path, "w", newline="") as fh, contextlib.ExitStack() as temps:
        fh.write(header)
        children = []
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                out = temps.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    _format_in_child(out, fh.encoding, write_rows, start, stop)
                children.append((pid, out, start, stop))
            write_rows(fh, 0, bounds[1])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, *_ in children]
        for code, (_, out, start, stop) in zip(codes, children):
            if code != EXIT_OK:
                out.seek(0)
                reason = out.read(4096).decode(errors="replace") if code in (EXIT_IO, EXIT_INTERNAL) else ""
                message = f"formatting CSV rows {start}-{stop - 1} failed (exit status {code}): {reason}"
                raise (OSError if code == EXIT_IO else RuntimeError)(message)
        fh.flush()
        for _, out, *_ in children:
            out.seek(0)
            shutil.copyfileobj(out, fh.buffer, 1 << 20)


def _write_grid_csv(path: str, xs, ys, values) -> None:
    """Rows run x outer, y inner; written one x row (or part of one) at a time."""
    xs = list(map(repr, np.asarray(xs, dtype=float).tolist()))
    ys = list(map(repr, np.asarray(ys, dtype=float).tolist()))
    values = np.asarray(values)

    def write_rows(fh, start: int, stop: int) -> None:
        while start < stop:
            i, j = divmod(start, len(ys))
            end = min(len(ys), j + stop - start)
            fh.write(_csv_lines([f"{xs[i]},{y}" for y in ys[j:end]], values[i, j:end]))
            start += end - j

    _write_csv(path, "x,y,re,im\n", len(xs) * len(ys), write_rows)


def _write_points_csv(path: str, points, values) -> None:
    points = np.asarray(points, dtype=float)
    values = np.asarray(values)

    def write_rows(fh, start: int, stop: int) -> None:
        coords = [",".join(map(repr, pt)) for pt in points[start:stop].tolist()]
        fh.write(_csv_lines(coords, values[start:stop]))

    _write_csv(path, _POINTS_HEADER + ",re,im\n", len(points), write_rows)


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


def _evaluate_and_write(args, label: str, evaluate, write) -> int:
    """Time ``values = evaluate()`` and then ``write(values)``; with
    ``--timings``, print both seconds on stderr. Then print the summary
    ``"<label>: wrote N samples to <out>"`` and return ``EXIT_OK``."""
    start = time.perf_counter()
    values = evaluate()
    evaluated = time.perf_counter()
    write(values)
    if args.timings:
        written = time.perf_counter()
        print(f"timings: evaluate {evaluated - start:.6f} s, format+write {written - evaluated:.6f} s", file=sys.stderr)
    print(f"{label}: wrote {values.size} samples to {args.out}")
    return EXIT_OK


def cmd_modes(args) -> int:
    xs, ys = _grid_axes(args)
    j, k = args.index
    hg = args.kind == "hg"
    index = _validated(ModeIndex.hg if hg else ModeIndex.lg, j, k)

    def write(values) -> None:
        _write_grid_csv(args.out, xs, ys, values)
        if args.image:
            _write_pgm(args.image, values)

    evaluate = functools.partial(hg_mode if hg else lg_mode, index, xs[:, None], ys[None, :])
    return _evaluate_and_write(args, f"modes {args.kind} ({j},{k})", evaluate, write)


def cmd_wigner(args) -> int:
    if args.kind in ("hermite", "lg_diag"):
        if len(args.indices) != 2:
            raise UsageError(f"kind {args.kind} takes two indices, got {len(args.indices)}")
        j, k = args.indices
        _validated(ModeIndex.lg, j, k)
        xs, ys = _grid_axes(args)
        if args.kind == "hermite":
            evaluate = functools.partial(wigner_hermite_closed, j, k, xs[:, None], ys[None, :])
        else:
            _require_coordinates(xi1=args.xi1, xi2=args.xi2)
            point = PhasePoint4(xs[:, None], ys[None, :], args.xi1, args.xi2)
            evaluate = functools.partial(wigner_lg_diag, j, k, point)
        write = functools.partial(_write_grid_csv, args.out, xs, ys)
        return _evaluate_and_write(args, f"wigner {args.kind} ({j},{k})", evaluate, write)

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
    evaluate = functools.partial(wigner_lg_closed if lg else wigner_hg_closed, j, k, m, n, PhasePoint4(*points.T))
    write = functools.partial(_write_points_csv, args.out, points)
    return _evaluate_and_write(args, f"wigner {args.kind} ({j},{k},{m},{n})", evaluate, write)


def cmd_beam(args) -> int:
    xs, ys = _grid_axes(args)
    params = _validated(BeamParams, args.w0, args.k)
    index = _validated(BeamIndex, *args.index)
    _require_coordinates(z=args.z)
    _validated(beam_geometry, params, args.z)

    def evaluate():
        r = np.hypot(xs[:, None], ys[None, :])
        phi = np.arctan2(ys[None, :], xs[:, None])
        return beam_field(index, params, r, phi, args.z)

    write = functools.partial(_write_grid_csv, args.out, xs, ys)
    return _evaluate_and_write(args, f"beam (p={index.p}, ell={index.ell}) at z={args.z}", evaluate, write)


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite name {args.suite!r}; expected one of {SUITE_NAMES}")
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    report = run_suite(args.suite, seed=args.seed)
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
