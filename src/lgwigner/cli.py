"""Command-line surface.

Subcommands: ``modes`` and ``beam`` evaluate fields on rectangular grids
and write CSV (optionally a grayscale magnitude image for modes, at a
path other than the CSV's), ``wigner`` evaluates closed forms on grids,
slices, or point lists, and ``verify`` runs the identity suites with
exit-code semantics. Each ``wigner`` kind is a subcommand of its own
that takes only the flags it uses; ``lgwigner wigner KIND -h`` lists
them.

Exit codes: 0 success (verification passed), 1 verification failure,
2 usage error (a flag the subcommand or kind does not take included),
3 I/O failure, 4 internal error (any other exception).
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
writers' chunks, see :func:`_write_csv`, from ``TMPDIR``; that moves no
output byte.) ``--timings`` adds an evaluate and format+write breakdown
on stderr and changes nothing else.

Every CSV float is written as the bytes of its ``repr``, the shortest
decimal that round-trips. A CSV file's bytes are the same whatever the
CPU count, and whether or not a forked writer could be started or
finished its rows.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
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

#: A negative flag value, exponent included (argparse's own pattern reads
#: -1e3 as an option); no option string here starts with a dash and a digit
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

#: Fewest CSV rows per formatting process: forking one more child of a
#: ~50 MB process costs ~4 ms, the time to format ~7k complex rows, so a
#: chunk this size formats in about twice what its fork costs
_ROWS_PER_WORKER = 16384

#: CSV rows formatted at a time by the grid and the points writers: a
#: span's byte matrices and rows take ~0.4 kB a row, so the writers'
#: memory stays flat however many rows there are
_POINTS_PER_SPAN = 4096


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


def _csv_lines(columns, values) -> bytes:
    """CSV lines: one row per element of ``values``, its cells those of
    ``columns`` (coordinates already formatted by :func:`format_floats`)
    followed by ``re,im``.

    Every float is written as its ``repr``: the shortest decimal that
    round-trips. Real ``values`` write every imaginary part as ``0.0``,
    the +0.0 that casting a real value to complex gives, NaN included.
    """
    from ._floatrepr import ZERO, csv_rows, format_floats  # its tables load with the first CSV

    real = not np.iscomplexobj(values)
    values = np.asarray(values, dtype=float if real else complex)
    return csv_rows([*columns, format_floats(values.real), ZERO if real else format_floats(values.imag)])


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


def _format_in_child(out, write_rows, start: int, stop: int) -> None:
    """In a forked child: write rows [start, stop) to the binary file
    ``out`` and end the process with exit code 0, or with 1 on any error.
    Never returns."""
    try:
        write_rows(out, start, stop)
        out.flush()  # os._exit flushes nothing
        os._exit(EXIT_OK)
    finally:
        os._exit(1)


def _write_csv(path: str, header: bytes, values, columns) -> None:
    """Write ``header`` and one CSV row per element of ``values`` to
    ``path``, ``_POINTS_PER_SPAN`` rows at a time; ``columns(start, stop)``
    gives the coordinate cells of rows [start, stop).

    Formatting dominates a large file, so the rows are split into
    ``_worker_count(rows)`` contiguous chunks: one per usable CPU (the CPU
    affinity, or the CPU count where that is missing), at most one per
    ``_ROWS_PER_WORKER`` rows, so small files stay in one process. Each
    chunk past the first goes to an ``os.fork``ed child, which writes it
    into an unlinked temporary file, until a temporary file or a fork
    fails with an OSError (under a process limit, say); then no further
    child is started. The parent writes chunk 0 straight into ``path``,
    reaps every child, and appends chunks 1 on in order: one rule serves
    every chunk. A chunk is copied from its child's file where that child
    exited 0, and is otherwise formatted by the parent itself, whether no
    child took it or its child failed or died. So the children only save
    time: the bytes are the same either way, and an error the parent
    meets while formatting is raised as in one process. A child only
    formats floats and writes, and makes no BLAS call; it ends with
    ``os._exit``, so it neither flushes the parent's buffered output nor
    runs exit handlers. From Python 3.12, forking a process that has BLAS
    threads emits a ``DeprecationWarning``.
    """

    def write_rows(out, start: int, stop: int) -> None:
        for first in range(start, stop, _POINTS_PER_SPAN):
            last = min(stop, first + _POINTS_PER_SPAN)
            out.write(_csv_lines(columns(first, last), values[first:last]))

    rows = len(values)
    workers = _worker_count(rows)
    bounds = [rows * w // workers for w in range(workers + 1)]
    with open(path, "wb") as fh, contextlib.ExitStack() as temps:
        fh.write(header)
        children = {}  # first row of a chunk -> (pid, temporary file)
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                try:
                    out = temps.enter_context(tempfile.TemporaryFile())
                    pid = os.fork()
                except OSError:  # no further child: the parent writes the rest
                    break
                if pid == 0:
                    _format_in_child(out, write_rows, start, stop)
                children[start] = (pid, out)
            write_rows(fh, 0, bounds[1])
        finally:
            # a wait status of 0 is an exit with code 0
            delivered = {start: out for start, (pid, out) in children.items() if os.waitpid(pid, 0)[1] == 0}
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            if start in delivered:
                delivered[start].seek(0)
                shutil.copyfileobj(delivered[start], fh, 1 << 20)
            else:
                write_rows(fh, start, stop)


def _write_grid_csv(path: str, xs, ys, values) -> None:
    """Rows run x outer, y inner; each axis is formatted once."""
    from ._floatrepr import format_floats

    xs, ys = format_floats(xs), format_floats(ys)

    def columns(start: int, stop: int) -> list:
        i, j = np.divmod(np.arange(start, stop), len(ys))
        return [xs.take(i, axis=0), ys.take(j, axis=0)]

    _write_csv(path, b"x,y,re,im\n", np.asarray(values).reshape(-1), columns)


def _write_points_csv(path: str, points, values) -> None:
    """Rows follow ``points``."""
    from ._floatrepr import format_floats

    points = np.asarray(points, dtype=float)

    def columns(start: int, stop: int) -> list:
        return list(format_floats(points[start:stop]).reshape(stop - start, 4, -1).transpose(1, 0, 2))

    _write_csv(path, f"{_POINTS_HEADER},re,im\n".encode(), np.asarray(values), columns)


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


def _read_points_file(path: str) -> np.ndarray:
    """The (n, 4) float array of the points of a UTF-8 points file, one
    line ``x1,x2,xi1,xi2`` each, every value finite and within the
    coordinate limit; a leading byte-order mark is dropped, and LF or
    CRLF may end a line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"points file {path!r} is not UTF-8 text: {exc.reason}") from None
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line == _POINTS_HEADER):
            continue
        try:
            point = list(map(float, line.split(",")))
        except ValueError:
            point = []
        if len(point) != 4 or not all(abs(v) <= _COORD_LIMIT for v in point):
            raise UsageError(f"points file line {lineno}: expected {_POINTS_HEADER!r}, got {line!r}")
        points.append(point)
    if not points:
        raise UsageError("points file contains no points")
    return np.array(points)


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


def _on_grid(args, xs, ys, label: str, field) -> int:
    """Evaluate ``field(x, y)`` on the mesh of the axes ``xs`` and ``ys``
    and write the grid CSV, and the PGM magnitude image where ``--image``
    is given, through :func:`_evaluate_and_write`. An image path that
    is the CSV's file (a hard link to it included) or, where either does
    not exist yet, resolves to the CSV's path is refused before anything
    is evaluated."""
    image = getattr(args, "image", None)
    if image:
        try:
            same = os.path.samefile(image, args.out)
        except OSError:  # not both exist
            same = os.path.realpath(image) == os.path.realpath(args.out)
        if same:
            raise UsageError(f"--image and --out name the same file: {args.out}")

    def write(values) -> None:
        _write_grid_csv(args.out, xs, ys, values)
        if image:
            _write_pgm(image, values)

    return _evaluate_and_write(args, label, functools.partial(field, xs[:, None], ys[None, :]), write)


def cmd_modes(args) -> int:
    xs, ys = _grid_axes(args)
    j, k = args.index
    hg = args.kind == "hg"
    index = _validated(ModeIndex.hg if hg else ModeIndex.lg, j, k)
    return _on_grid(args, xs, ys, f"modes {args.kind} ({j},{k})", functools.partial(hg_mode if hg else lg_mode, index))


def cmd_wigner_grid(args) -> int:
    j, k = args.indices
    _validated(ModeIndex.lg, j, k)
    xs, ys = _grid_axes(args)
    if args.kind == "hermite":
        field = functools.partial(wigner_hermite_closed, j, k)
    else:
        _require_coordinates(xi1=args.xi1, xi2=args.xi2)
        field = lambda x, y: wigner_lg_diag(j, k, PhasePoint4(x, y, args.xi1, args.xi2))
    return _on_grid(args, xs, ys, f"wigner {args.kind} ({j},{k})", field)


def cmd_wigner_points(args) -> int:
    j, k, m, n = args.indices
    lg = args.kind == "lg_general"
    index = ModeIndex.lg if lg else ModeIndex.hg
    _validated(index, j, k)
    _validated(index, m, n)
    points = _read_points_file(args.points)
    evaluate = functools.partial(wigner_lg_closed if lg else wigner_hg_closed, j, k, m, n, PhasePoint4(*points.T))
    write = functools.partial(_write_points_csv, args.out, points)
    return _evaluate_and_write(args, f"wigner {args.kind} ({j},{k},{m},{n})", evaluate, write)


def cmd_beam(args) -> int:
    xs, ys = _grid_axes(args)
    params = _validated(BeamParams, args.w0, args.k)
    index = _validated(BeamIndex, *args.index)
    _require_coordinates(z=args.z)
    _validated(beam_geometry, params, args.z)

    def field(x, y):
        return beam_field(index, params, np.hypot(x, y), np.arctan2(y, x), args.z)

    return _on_grid(args, xs, ys, f"beam (p={index.p}, ell={index.ell}) at z={args.z}", field)


def cmd_verify(args) -> int:
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

    # the flags of every parser that evaluates and writes a CSV, and of
    # those that write it on a grid
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, help="output CSV path")
    output.add_argument("--timings", action="store_true", help="print evaluate and format+write seconds on stderr")
    grid = argparse.ArgumentParser(add_help=False, parents=[output])
    for axis in "xy":
        grid.add_argument(f"--{axis}min", type=float, default=-4.0)
        grid.add_argument(f"--{axis}max", type=float, default=4.0)
        grid.add_argument(f"--n{axis}", type=int, default=128)

    p_modes = sub.add_parser("modes", parents=[grid], help="evaluate an HG or LG mode on a grid")
    p_modes.add_argument("kind", choices=("hg", "lg"))
    p_modes.add_argument("--index", type=int, nargs=2, required=True, metavar=("J", "K"))
    p_modes.add_argument("--image", help="optional PGM magnitude image path")
    p_modes.set_defaults(func=cmd_modes)

    p_wig = sub.add_parser("wigner", help="evaluate Wigner closed forms")
    kinds = p_wig.add_subparsers(dest="kind", required=True)
    p_hermite = kinds.add_parser("hermite", parents=[grid], help="W(h_j, h_k) on an (x, y) grid")
    p_diag = kinds.add_parser("lg_diag", parents=[grid], help="diagonal LG transform on an (x1, x2) slice")
    for p in (p_hermite, p_diag):
        p.add_argument("--indices", type=int, nargs=2, required=True, metavar=("J", "K"))
        p.set_defaults(func=cmd_wigner_grid)
    p_diag.add_argument("--xi1", type=float, default=0.0, help="fixed xi1 of the slice")
    p_diag.add_argument("--xi2", type=float, default=0.0, help="fixed xi2 of the slice")
    for kind in ("lg_general", "hg_general"):
        p = kinds.add_parser(kind, parents=[output], help=f"general {kind[:2].upper()} transform at listed points")
        p.add_argument("--indices", type=int, nargs=4, required=True, metavar=("J", "K", "M", "N"))
        p.add_argument("--points", required=True, help="CSV of x1,x2,xi1,xi2 rows")
        p.set_defaults(func=cmd_wigner_points)

    p_beam = sub.add_parser("beam", parents=[grid], help="evaluate a transverse beam slice")
    p_beam.add_argument("--index", type=int, nargs=2, required=True, metavar=("P", "ELL"))
    p_beam.add_argument("--w0", type=float, required=True, help="waist radius")
    p_beam.add_argument("--k", type=float, required=True, help="wavenumber")
    p_beam.add_argument("--z", type=float, default=0.0, help="height along the beam axis")
    p_beam.set_defaults(func=cmd_beam)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--out", help="write the JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    # the innermost parser's default wins: main reports an unknown flag
    # with the usage line of the subcommand or kind that was given it
    for each in (parser, *sub.choices.values(), *kinds.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
        each.set_defaults(parser=each)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
