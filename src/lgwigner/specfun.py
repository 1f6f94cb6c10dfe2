"""Stable evaluation of Hermite polynomials, orthonormal Hermite functions,
and generalized Laguerre polynomials.

Everything here runs on three-term recurrences rather than factorial
formulas, so degrees up to ``MAX_DEGREE`` evaluate without overflow and
with near machine accuracy. All functions accept scalars or numpy arrays
and are pure, so they are safe to call concurrently.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import deque

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


def _check_degree(n, name: str = "n") -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"{name}={n} is outside the supported range [0, {MAX_DEGREE}]")


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _fields(value) -> list:
    """A coordinate argument's values: a dataclass point's fields, or itself."""
    return list(vars(value).values()) if dataclasses.is_dataclass(value) else [value]


def _one_element(value):
    ones = [np.reshape(v, 1) for v in _fields(value)]
    return type(value)(*ones) if dataclasses.is_dataclass(value) else ones[0]


def _scalars_as_arrays(kind: type, *coords: str):
    """Decorator giving an array kernel the package's one scalar rule.

    When every argument named in ``coords`` (by position or keyword) is a
    scalar, 0-d arrays included, and a dataclass point counts by its
    fields, the kernel runs on one-element arrays and returns its single
    value as ``kind``. Numpy rounds scalar arithmetic apart from array
    arithmetic, so this gives a point the same bits alone as in an array.
    """

    def decorate(kernel):
        names = list(inspect.signature(kernel).parameters)
        slots = {names.index(name) for name in coords}

        @functools.wraps(kernel)
        def evaluate(*args, **kwargs):
            named = dict(zip(names, args), **kwargs)
            if any(name not in named or any(map(np.ndim, _fields(named[name]))) for name in coords):
                return kernel(*args, **kwargs)
            args = [_one_element(v) if i in slots else v for i, v in enumerate(args)]
            kwargs = {k: _one_element(v) if k in coords else v for k, v in kwargs.items()}
            return kind(kernel(*args, **kwargs).item())

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
    arr = _as_finite_array(x)
    h_prev = np.ones_like(arr)
    if n == 0:
        return h_prev
    h_cur = 2.0 * arr
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * arr * h_cur - 2.0 * k * h_prev
    return h_cur


def _hermite_rows(nmax: int, arr: np.ndarray):
    """Yield h_0(arr), ..., h_nmax(arr) from the normalized recurrence
    ``h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}``, holding
    two rows at a time. ``nmax`` is not checked, so callers may step one
    degree past ``MAX_DEGREE``."""
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * arr * arr)
    yield h_prev
    if nmax == 0:
        return
    h_cur = np.sqrt(2.0) * arr * h_prev
    yield h_cur
    for k in range(1, nmax):
        h_prev, h_cur = h_cur, arr * np.sqrt(2.0 / (k + 1)) * h_cur - np.sqrt(k / (k + 1.0)) * h_prev
        yield h_cur


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
    arr = _as_finite_array(x)
    return deque(_hermite_rows(n, arr), maxlen=1)[0]


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """Stack of Hermite functions h_0..h_nmax evaluated at x.

    Returns an array of shape ``(nmax + 1,) + shape(x)``. One recurrence
    pass serves every degree, which is the cheap way to evaluate
    superpositions.
    """
    _check_degree(nmax, "nmax")
    arr = _as_finite_array(x)
    out = np.empty((nmax + 1,) + arr.shape, dtype=float)
    for k, row in enumerate(_hermite_rows(nmax, arr)):
        out[k] = row
    return out


@_scalars_as_arrays(float, "x")
def hermite_function_derivative(n: int, x) -> float | np.ndarray:
    """Derivative h_n'(x) from the ladder relation.

    Uses ``h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}`` (first term
    absent for n = 0). The recurrence runs one degree past ``n``
    internally, which stays well conditioned.
    """
    _check_degree(n)
    arr = _as_finite_array(x)
    rows = deque(_hermite_rows(n + 1, arr), maxlen=3)  # h_{n-1}, h_n, h_{n+1}
    if n == 0:
        value = -np.sqrt(0.5) * rows[-1]
    else:
        value = np.sqrt(n / 2.0) * rows[0] - np.sqrt((n + 1) / 2.0) * rows[-1]
    return value


@_scalars_as_arrays(float, "x")
def laguerre(n: int, alpha: int, x) -> float | np.ndarray:
    """Generalized Laguerre polynomial L^alpha_n(x) for integer alpha >= 0.

    Evaluated by the recurrence
    ``(n+1) L^a_{n+1} = (2n+1+a-x) L^a_n - (n+a) L^a_{n-1}`` with
    ``L^a_0 = 1`` and ``L^a_1 = 1 + a - x``.
    """
    _check_degree(n)
    if not isinstance(alpha, (int, np.integer)) or isinstance(alpha, bool):
        raise TypeError(f"alpha must be an integer, got {type(alpha).__name__}")
    if alpha < 0:
        raise ValueError(f"alpha={alpha} must be non-negative")
    arr = _as_finite_array(x)
    l_prev = np.ones_like(arr)
    if n == 0:
        return l_prev
    l_cur = 1.0 + alpha - arr
    for k in range(1, n):
        l_prev, l_cur = l_cur, (
            ((2.0 * k + 1.0 + alpha - arr) * l_cur - (k + alpha) * l_prev) / (k + 1.0)
        )
    return l_cur
