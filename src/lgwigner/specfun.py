"""Stable evaluation of Hermite polynomials, orthonormal Hermite functions,
and generalized Laguerre polynomials.

Everything here runs on three-term recurrences rather than factorial
formulas, so degrees up to ``MAX_DEGREE`` evaluate without overflow and
with near machine accuracy. All functions accept scalars or numpy arrays
and are pure, so they are safe to call concurrently.

The module also holds the package's argument rules, each written once:
``_check_int`` for every integer argument (degrees, counts, indices),
``_check_index`` for an index that may also be an integer array, and
``_scalars_as_arrays``, where every pointwise evaluator declares its
coordinates, which must be finite and are refused under the name the
caller passed, and its integer indices, which the decorator alone passes
through ``_check_index``. Calls inside the package go through the public
names (``laguerre``, never its undecorated kernel), so an inner layer
checks again what its caller checked: ``perfbench/tracer.py`` counts the
calls per layer by rebinding those names. ``_running_quotients`` is the
one builder of the factorial-ratio tables of the closed forms, the LG
modes and the beam.

The Hermite-function and Laguerre recurrences run blocked: they walk the
flattened points in blocks of ``_BLOCK`` and, within a block, update a
few preallocated rows in place, writing each result row straight into
the output. No full-size temporary is made, and the rows stay in cache
while every degree is stepped through. Each point's value is the same
sequence of elementwise operations on that point alone, so it does not
depend on the block size or on where the point falls in a block: the
bits equal those of a one-element call. The row buffers are local to
each call, so the blocked routines stay pure as well.

The degree of :func:`laguerre` and :func:`hermite_function_derivative`,
and ``alpha``, may also be integer arrays broadcasting against ``x``.
Such a call fills a table of every degree up to the largest by the same
blocked recurrence and picks each point's entry from it, so each value
keeps the bits of its own scalar-index call.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "hermite_poly",
    "hermite_function",
    "hermite_function_table",
    "hermite_function_derivative",
    "laguerre",
]

# Double precision keeps the normalized Hermite recurrence accurate to
# roughly 1e-12 at this degree; beyond it we refuse to evaluate.
MAX_DEGREE = 64

# Points per block of the blocked recurrences: 128 KiB a row, so a block's
# rows stay in a core's L2 cache. Measured on a Xeon with 2 MiB of L2 a
# core, hermite_function(40, .) at 200,000 points took 9.3, 7.5, 6.4, 6.2
# and 9.4 ms at 4,096, 8,192, 16,384, 32,768 and 65,536 points a block;
# the two best gave the same library_grid benchmark time, and the smaller
# keeps the derivative's four work rows at 512 KiB.
_BLOCK = 16_384


def _check_int(value, name: str, lo: int, hi: int | None = None) -> None:
    """The package's one integer rule: ``value`` is an int or numpy
    integer, not a bool (TypeError), in ``[lo, hi]``, unbounded above
    when ``hi`` is None (ValueError)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < lo or (hi is not None and value > hi):
        top = "inf)" if hi is None else f"{hi}]"
        raise ValueError(f"{name} {value} outside supported range [{lo}, {top}")


def _check_index(value, name: str, lo: int, hi: int | None = None):
    """The integer rule for an index that broadcasts like a coordinate:
    an integer, or an ndarray, list or tuple of integers, every entry in
    ``[lo, hi]``. A float or bool array raises TypeError and an entry out
    of range ValueError, in ``_check_int``'s format, naming the first such
    entry. Returns a scalar as an int and an array as an int64 array."""
    if not isinstance(value, (np.ndarray, list, tuple)):
        _check_int(value, name, lo, hi)
        return int(value)
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an integer, got {arr.dtype.name} array")
    if arr.size and (arr.min() < lo or (hi is not None and arr.max() > hi)):
        bad = (arr < lo) | (arr > hi) if hi is not None else arr < lo
        _check_int(arr[bad][0], name, lo, hi)
    return int(arr) if arr.ndim == 0 else arr.astype(np.int64, copy=False)


def _check_degree(n, name: str = "n") -> None:
    _check_int(n, name, 0, MAX_DEGREE)


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _blockwise(arr: np.ndarray, depth: int, kernel, lead: tuple = (), params: tuple = ()) -> np.ndarray:
    """Run a recurrence over ``arr``'s flattened points, block by block.

    ``params`` are arrays broadcasting against ``arr``. Returns a new array
    of shape ``lead`` plus the broadcast shape. For each block
    ``kernel(x, out, work, *params)`` gets the block's points ``x``, its
    part of the result ``out`` (shape ``lead + x.shape``), ``depth``
    preallocated rows of ``x``'s size to work in, and each parameter's
    entries at the block's points.
    """
    shape = np.broadcast_shapes(arr.shape, *(v.shape for v in params))
    flat = (arr if arr.shape == shape else np.broadcast_to(arr, shape)).reshape(-1)
    params = [np.broadcast_to(v, shape).reshape(-1) for v in params]
    out = np.empty(lead + shape)
    out_flat = out.reshape(lead + flat.shape)
    work = np.empty((depth, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        x = flat[block]
        kernel(x, out_flat[..., block], work[:, : x.size], *(v[block] for v in params))
    return out


def _ending_in(out: np.ndarray, work: np.ndarray, n: int) -> list:
    """Three row slots, row k of a recurrence going to slot k % 3, such
    that row n lands in ``out``; the other two are rows of ``work``."""
    slots = [work[0], work[1]]
    slots.insert(n % 3, out)
    return slots


def _running_quotients(diagonal: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """``out[lo, hi]`` = ``diagonal[lo]`` divided by ``divisors[lo + 1]``,
    ..., ``divisors[hi]`` in turn, for lo <= hi < len(diagonal), and 0
    below the diagonal: the package's factorial-ratio tables, built with
    no factorial, so nothing overflows."""
    out = np.diag(diagonal)
    for hi in range(1, len(diagonal)):
        out[:hi, hi] = out[:hi, hi - 1] / divisors[hi]
    return out


def _fields(value) -> list:
    """A coordinate argument's values: a dataclass point's fields, or itself."""
    return list(vars(value).values()) if dataclasses.is_dataclass(value) else [value]


def _finite(value, name: str):
    """A coordinate as a finite float array; a dataclass point is passed as
    it is, since it checks its own fields."""
    return value if dataclasses.is_dataclass(value) else _as_finite_array(value, name)


def _one_element(value):
    ones = [np.asarray(v).reshape(1) for v in _fields(value)]
    return type(value)(*ones) if dataclasses.is_dataclass(value) else ones[0]


def _scalars_as_arrays(kind: type, *coords: str, indices: dict | None = None):
    """Decorator giving an array kernel the package's coordinate rule, its
    index rule and its one scalar rule.

    Each argument named in ``coords`` (by position or keyword) reaches the
    kernel as a float array, refused with a ValueError naming it unless
    every value is finite; a dataclass point is passed as it is, since it
    checks its own fields. ``indices`` maps the name of each integer index
    to its largest value, ``MAX_DEGREE`` or None for no bound; each such
    argument reaches the kernel through ``_check_index(value, name, 0,
    top)``, an int or an int64 array broadcasting against the coordinates,
    so this is the one place an evaluator's indices are declared and
    checked. When every coordinate is a scalar, 0-d arrays included, and
    a dataclass point counts by its fields, the kernel runs on one-element
    arrays and, when every index is a scalar too, returns its single value
    as ``kind``. Numpy rounds scalar arithmetic apart from array
    arithmetic, so this gives a point the same bits alone as in an array.
    """
    indices = indices or {}

    def decorate(kernel):
        names = list(inspect.signature(kernel).parameters)

        def each(convert, which, args, kwargs):
            args = [convert(v, names[i]) if i < len(names) and names[i] in which else v for i, v in enumerate(args)]
            kwargs = {k: convert(v, k) if k in which else v for k, v in kwargs.items()}
            return args, kwargs

        @functools.wraps(kernel)
        def evaluate(*args, **kwargs):
            args, kwargs = each(_finite, coords, args, kwargs)
            args, kwargs = each(lambda v, name: _check_index(v, name, 0, indices[name]), indices, args, kwargs)
            named = dict(zip(names, args), **kwargs)
            if any(name not in named or any(map(np.ndim, _fields(named[name]))) for name in coords):
                return kernel(*args, **kwargs)
            args, kwargs = each(lambda v, name: _one_element(v), coords, args, kwargs)
            value = kernel(*args, **kwargs)
            # one-element coordinates broadcast to an index array's shape
            return value if any(isinstance(named.get(name), np.ndarray) for name in indices) else kind(value.item())

        return evaluate

    return decorate


@_scalars_as_arrays(float, "x")
def hermite_poly(n: int, x) -> float | np.ndarray:
    """Physicists' Hermite polynomial H_n(x).

    Evaluated by the upward recurrence
    ``H_{n+1}(x) = 2 x H_n(x) - 2 n H_{n-1}(x)`` with ``H_0 = 1`` and
    ``H_1 = 2x``, which is stable for the supported degree range.

    Parameters
    ----------
    n : int
        Degree, ``0 <= n <= MAX_DEGREE``.
    x : float or array_like
        Evaluation points, must be finite.
    """
    _check_degree(n)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h_cur = 2.0 * x
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
    return h_cur


def _hermite_rows(nmax: int, x: np.ndarray, rows, tmp: np.ndarray) -> None:
    """Write h_0(x), ..., h_nmax(x) into ``rows[k % len(rows)]`` in place,
    by the normalized recurrence
    ``h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}``.

    ``rows`` holds at least three rows of ``x``'s size (two when
    ``nmax <= 1``), so h_{k-1}, h_k and h_{k+1} never share one, and
    ``tmp`` one more. ``nmax`` is not checked, so callers may step one
    degree past ``MAX_DEGREE``.
    """
    # Updating rows in place touches fewer cache lines than writing each
    # operation to a fresh row: measured, the latter made the degree-40
    # function 70 % slower at 200,000 points (though numpy runs an
    # in-place operation on a one-element array about twice as slowly).
    cycle = len(rows)
    h = rows[0]
    np.multiply(-0.5, x, out=h)
    np.multiply(h, x, out=h)
    np.exp(h, out=h)
    np.multiply(np.pi**-0.25, h, out=h)
    if nmax == 0:
        return
    np.multiply(math.sqrt(2.0), x, out=rows[1])
    np.multiply(rows[1], h, out=rows[1])
    for k in range(1, nmax):
        prev, cur, new = rows[(k - 1) % cycle], rows[k % cycle], rows[(k + 1) % cycle]
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=new)
        np.multiply(new, cur, out=new)
        np.multiply(math.sqrt(k / (k + 1.0)), prev, out=tmp)
        np.subtract(new, tmp, out=new)


@_scalars_as_arrays(float, "x")
def hermite_function(n: int, x) -> float | np.ndarray:
    """Orthonormal Hermite function h_n(x).

    This is ``pi**-0.25 (n!)**-0.5 2**(-n/2) exp(-x**2/2) H_n(x)``, computed
    with the normalized recurrence
    ``h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}``
    so no factorials ever appear and nothing overflows.

    Accuracy, measured against 40-digit mpmath for every n <= 64 on a
    0.01 grid over [0, 45] (h_n has the parity of n): the absolute error
    is below 3e-15, and from the turning point sqrt(2n + 1) out to
    |x| = 37.5 the relative error is below 1e-13. The recurrence starts
    from exp(-x**2/2), which turns subnormal at |x| of about 37.6 and
    then zero, so past |x| = 37.5 relative accuracy is lost (8e-11 at
    x = 38; ``hermite_function(64, 39.0)`` is 0.0 where h_64(39) is
    1.6e-264) and only the absolute error bound of 1e-253 holds.
    :func:`hermite_function_table` and :func:`hermite_function_derivative`
    share the recurrence and its range.
    """
    _check_degree(n)
    return _blockwise(x, 3, lambda x, out, work: _hermite_rows(n, x, _ending_in(out, work, n), work[2]))


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """Stack of Hermite functions h_0..h_nmax evaluated at x.

    Returns an array of shape ``(nmax + 1,) + shape(x)``. One recurrence
    pass serves every degree, which is the cheap way to evaluate
    superpositions.
    """
    _check_degree(nmax, "nmax")
    arr = _as_finite_array(x)
    return _blockwise(arr, 1, lambda x, out, work: _hermite_rows(nmax, x, out, work[0]), (nmax + 1,))


@_scalars_as_arrays(float, "x", indices={"n": MAX_DEGREE})
def hermite_function_derivative(n: int, x) -> float | np.ndarray:
    """Derivative h_n'(x) from the ladder relation.

    Uses ``h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}`` (first term
    absent for n = 0). The recurrence runs one degree past ``n``
    internally, which stays well conditioned. ``n`` may be an integer
    array broadcasting against ``x``: then one table to the largest ``n``
    plus one serves every point, each with the bits of a scalar-index
    call.
    """
    if isinstance(n, np.ndarray):
        top = int(np.max(n, initial=0)) + 1
        table = _blockwise(x, 1, lambda x, out, work: _hermite_rows(top, x, out, work[0]), (top + 1,))
        columns = np.arange(x.size).reshape(x.shape)
        table = table.reshape(top + 1, -1)
        rise = np.sqrt((n + 1) / 2.0) * table[n + 1, columns]
        return np.where(n == 0, -rise, np.sqrt(n / 2.0) * table[n - 1, columns] - rise)

    def ladder(x, out, work):
        rows, tmp = work[:3], work[3]
        _hermite_rows(n + 1, x, rows, tmp)
        if n == 0:
            np.multiply(-math.sqrt(0.5), rows[1], out=out)
        else:
            np.multiply(math.sqrt(n / 2.0), rows[(n - 1) % 3], out=out)
            np.multiply(math.sqrt((n + 1) / 2.0), rows[(n + 1) % 3], out=tmp)
            np.subtract(out, tmp, out=out)

    return _blockwise(x, 4, ladder)


def _index_domain(index: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where to evaluate a function of an integer index array and points
    ``x`` that broadcast together, so that no (index, point) pair is
    evaluated twice where the index repeats along axes of its own.

    The domain is each distinct entry of ``index`` times the points of
    ``x`` (the entries along a new leading axis), or the broadcast of
    ``index`` and ``x`` itself where that is smaller. Returns the index to
    evaluate with, which broadcasts against ``x`` to the domain, and for
    each point of the broadcast its flat position in the domain.
    """
    shape = np.broadcast_shapes(index.shape, x.shape)
    size = math.prod(shape)
    if x.size < size:
        values, which = np.unique(index, return_inverse=True)
        if values.size * x.size < size:
            columns = which.reshape(index.shape) * x.size + np.arange(x.size).reshape(x.shape)
            return values.reshape(values.shape + (1,) * x.ndim), columns
    return index, np.arange(size).reshape(shape)


def _z_power(z: np.ndarray, e):
    """``z ** e`` where ``e >= 0`` and ``conj(z) ** -e`` where ``e < 0``, for
    an integer ``e`` or an integer array broadcasting against ``z``.

    Each entry has the bits of the power by its own Python int: numpy
    raises to a Python int 2 by ``np.square``, which rounds apart from
    the repeated multiplication it uses for any other integer exponent,
    arrays of them included.
    """
    if not isinstance(e, np.ndarray):
        return (z if e >= 0 else np.conj(z)) ** abs(int(e))
    e, columns = _index_domain(e, z)
    base, alpha = np.where(e >= 0, z, np.conj(z)), abs(e)
    return np.where(alpha == 2, np.square(base), base**alpha).reshape(-1)[columns]


def _laguerre_rows(nmax: int, alpha, x: np.ndarray, rows, tmp: np.ndarray) -> None:
    """Write L^alpha_0(x), ..., L^alpha_nmax(x) into ``rows[k % len(rows)]``
    in place, by the recurrence
    ``(k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}``.

    ``alpha`` is an integer or an integer array of ``x``'s size. ``rows``
    holds at least three rows of ``x``'s size (two when ``nmax <= 1``), and
    ``tmp`` one more.
    """
    cycle = len(rows)
    rows[0].fill(1.0)
    if nmax == 0:
        return
    np.subtract(1.0 + alpha, x, out=rows[1])
    # 2k + 1 + alpha and k + alpha, stepped exactly (small integers), so an
    # array alpha makes no temporary per step
    rise, fall = 3.0 + alpha, 1.0 + alpha
    for k in range(1, nmax):
        prev, cur, new = rows[(k - 1) % cycle], rows[k % cycle], rows[(k + 1) % cycle]
        np.subtract(rise, x, out=new)
        np.multiply(new, cur, out=new)
        np.multiply(fall, prev, out=tmp)
        np.subtract(new, tmp, out=new)
        np.divide(new, k + 1.0, out=new)
        rise += 2.0
        fall += 1.0


@_scalars_as_arrays(float, "x", indices={"n": MAX_DEGREE, "alpha": None})
def laguerre(n: int, alpha: int, x) -> float | np.ndarray:
    """Generalized Laguerre polynomial L^alpha_n(x) for integer alpha >= 0.

    Evaluated by the recurrence
    ``(n+1) L^a_{n+1} = (2n+1+a-x) L^a_n - (n+a) L^a_{n-1}`` with
    ``L^a_0 = 1`` and ``L^a_1 = 1 + a - x``.

    ``n`` and ``alpha`` may be integer arrays; they broadcast against
    ``x`` as coordinates do, and the result has the broadcast shape. Then
    one recurrence up to the largest ``n`` serves every degree, run once
    per distinct alpha over the points of ``x`` (or once per point of the
    broadcast of ``alpha`` and ``x``, where that is fewer), and each
    point gets the bits of a scalar-index call. It holds that table of
    degrees, unlike a scalar-index call, which makes no full-size
    temporary.

    Accuracy, measured against 50-digit mpmath on 301 points over
    [0, 4n + 2a + 40] at (n, a) = (16, 24), (32, 32), (40, 24), (64, 0),
    (0, 64), (63, 1) and (1, 63): in the normalized form
    ``exp(-x/2) x**(a/2) sqrt(n!/(n+a)!) L^a_n(x)``, which is how
    :func:`lgwigner.modes.lg_mode` uses it, the absolute error is below
    3.1e-15, as it is when those pairs are mixed point by point in one
    call.
    """
    if not isinstance(n, np.ndarray) and not isinstance(alpha, np.ndarray):
        # L_n lands in out; the two other slots and tmp are work rows
        return _blockwise(x, 3, lambda x, out, work: _laguerre_rows(n, alpha, x, _ending_in(out, work, n), work[2]))
    # a table of every degree up to the largest n, over each distinct alpha
    # or each point; every point then picks its entry from it
    top = int(np.max(n, initial=0))
    alpha, columns = _index_domain(np.asarray(alpha), x)
    table = _blockwise(x, 1, lambda x, out, work, a: _laguerre_rows(top, a, x, out, work[0]), (top + 1,), (alpha,))
    return table.reshape(top + 1, -1)[n, columns]
