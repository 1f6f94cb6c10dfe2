"""Compare the CLI's float formatter with ``repr`` on random float64 bit
patterns.

Run from anywhere::

    python tools/check_float_repr.py --count 10000000 --seed 0

Draws ``--count`` uniformly random 64-bit patterns from numpy's default
generator seeded with ``--seed``, so NaNs, infinities, subnormals and
both zeros come up at their share of the patterns. Each is written by
``lgwigner._floatrepr.format_floats`` and by ``repr``; the first
mismatches are printed as bits, ``repr`` and the formatter's text. The
last line counts the mismatches. Exit status 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgwigner._floatrepr import WIDTH, format_floats  # noqa: E402

CHUNK = 1 << 16  # patterns formatted at a time
SHOWN = 10  # mismatches printed


def mismatches(values: np.ndarray) -> list[tuple[int, str, str]]:
    """(index, ``repr``, formatter) for every element of the float64 array
    ``values`` where the two differ."""
    rows = np.empty((values.size, WIDTH + 1), dtype=np.uint8)
    rows[:, :WIDTH] = format_floats(values)
    rows[:, WIDTH] = ord("\n")
    got = rows.tobytes().translate(None, b"\0").decode("ascii", "replace").split("\n")[:-1]
    expected = map(repr, values.tolist())
    return [(i, e, g) for i, (e, g) in enumerate(itertools.zip_longest(expected, got)) if e != g]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--count", type=int, required=True, help="bit patterns to compare")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    found = 0
    for start in range(0, args.count, CHUNK):
        size = min(CHUNK, args.count - start)
        values = rng.integers(0, 2**64 - 1, size, dtype=np.uint64, endpoint=True).view(np.float64)
        for i, expected, got in mismatches(values):
            if found < SHOWN:
                print(f"0x{values[i:i + 1].view(np.uint64)[0]:016x}: repr {expected!r}, formatter {got!r}")
            found += 1
    print(f"{found} of {args.count} bit patterns (seed {args.seed}) differ from repr")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
