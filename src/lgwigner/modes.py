"""Two-dimensional oscillator modes and their ladder operators.

Cartesian (Hermite-Gaussian) modes are indexed by quanta ``(j, k)`` per
axis; circular (Laguerre-Gaussian) modes are indexed by the number of
positive and negative angular-momentum quanta ``(n_plus, n_minus)``.
The module provides position-representation evaluation of both families,
index-space actions of the eight ladder operators, and pointwise
application of the same operators as first-order differential expressions
(with the partials a field carries, as the basis fields do, and by central
differences for any other callable).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .specfun import (
    MAX_DEGREE,
    _check_degree,
    _running_quotients,
    _scalars_as_arrays,
    _z_power,
    hermite_function,
    hermite_function_derivative,
    laguerre,
)

__all__ = [
    "ANNIHILATED",
    "Basis",
    "LadderOp",
    "ModeIndex",
    "hg_mode",
    "lg_mode",
    "hg_field",
    "lg_field",
    "ladder_index_action",
    "apply_operator_pointwise",
]

DEFAULT_FD_STEP = 1e-5


class Basis(enum.Enum):
    """Mode family tag: Cartesian quanta (HG) or circular quanta (LG)."""

    HG = "hg"
    LG = "lg"


class _Annihilated:
    def __repr__(self) -> str:
        return "ANNIHILATED"


#: Sentinel returned by :func:`ladder_index_action` when an annihilation
#: operator hits an empty slot.
ANNIHILATED = _Annihilated()


@dataclass(frozen=True)
class ModeIndex:
    """Pair of non-negative integers naming a 2D mode.

    For HG the pair counts quanta per Cartesian axis; for LG it counts
    positive and negative circular quanta.
    """

    first: int
    second: int
    basis: Basis

    def __post_init__(self):
        _check_degree(self.first, "first index")
        _check_degree(self.second, "second index")
        if not isinstance(self.basis, Basis):
            raise TypeError("basis must be a Basis enum member")

    @classmethod
    def hg(cls, j: int, k: int) -> "ModeIndex":
        return cls(j, k, Basis.HG)

    @classmethod
    def lg(cls, n_plus: int, n_minus: int) -> "ModeIndex":
        return cls(n_plus, n_minus, Basis.LG)

    @property
    def total_number(self) -> int:
        """Eigenvalue of the total number operator (LG only)."""
        self._require(Basis.LG)
        return self.first + self.second

    @property
    def angular_momentum(self) -> int:
        """Eigenvalue of the angular momentum operator (LG only)."""
        self._require(Basis.LG)
        return self.first - self.second

    def _require(self, basis: Basis) -> None:
        if self.basis is not basis:
            raise ValueError(f"expected a {basis.value.upper()} index, got {self.basis.value.upper()}")


class LadderOp(enum.Enum):
    """The eight creation/annihilation operators.

    ``A1..A2DAG`` move Cartesian quanta and pair with HG indices;
    ``APLUS..AMINUSDAG`` move circular quanta and pair with LG indices.
    """

    A1 = "a1"
    A1DAG = "a1dag"
    A2 = "a2"
    A2DAG = "a2dag"
    APLUS = "Aplus"
    APLUSDAG = "Aplusdag"
    AMINUS = "Aminus"
    AMINUSDAG = "Aminusdag"


# op -> (compatible basis, slot acted on, True when creating)
_OP_INDEX_RULES = {
    LadderOp.A1: (Basis.HG, 0, False),
    LadderOp.A1DAG: (Basis.HG, 0, True),
    LadderOp.A2: (Basis.HG, 1, False),
    LadderOp.A2DAG: (Basis.HG, 1, True),
    LadderOp.APLUS: (Basis.LG, 0, False),
    LadderOp.APLUSDAG: (Basis.LG, 0, True),
    LadderOp.AMINUS: (Basis.LG, 1, False),
    LadderOp.AMINUSDAG: (Basis.LG, 1, True),
}

_HALF = 0.5
_ISQRT2 = 1.0 / np.sqrt(2.0)

# op -> coefficients (c_x, c_dx, c_y, c_dy) of  c_x*x*f + c_dx*df/dx + c_y*y*f + c_dy*df/dy
_OP_POINTWISE = {
    LadderOp.A1: (_ISQRT2, _ISQRT2, 0.0, 0.0),
    LadderOp.A1DAG: (_ISQRT2, -_ISQRT2, 0.0, 0.0),
    LadderOp.A2: (0.0, 0.0, _ISQRT2, _ISQRT2),
    LadderOp.A2DAG: (0.0, 0.0, _ISQRT2, -_ISQRT2),
    LadderOp.APLUS: (_HALF, _HALF, -0.5j, -0.5j),
    LadderOp.AMINUS: (_HALF, _HALF, 0.5j, 0.5j),
    LadderOp.APLUSDAG: (_HALF, -_HALF, 0.5j, -0.5j),
    LadderOp.AMINUSDAG: (_HALF, -_HALF, -0.5j, 0.5j),
}


#: ``_SQRT_FACTORIAL_RATIO[lo, hi]`` = sqrt(lo!/hi!) for lo <= hi <=
#: MAX_DEGREE, the running quotient of 1 by sqrt(i) over lo < i <= hi (no
#: factorials).
_SQRT_FACTORIAL_RATIO = _running_quotients(np.ones(MAX_DEGREE + 1), np.sqrt(np.arange(MAX_DEGREE + 1)))


@_scalars_as_arrays(float, "x", "y")
def hg_mode(index: ModeIndex, x, y) -> float | np.ndarray:
    """Hermite-Gaussian mode: the tensor product h_j(x) h_k(y)."""
    index._require(Basis.HG)
    return hermite_function(index.first, x) * hermite_function(index.second, y)


@_scalars_as_arrays(complex, "x", "y", indices=dict.fromkeys(("n_plus", "n_minus"), MAX_DEGREE))
def _lg_modes(n_plus, n_minus, x, y) -> complex | np.ndarray:
    """:func:`lg_mode` at circular quanta ``(n_plus, n_minus)``, integers or
    integer arrays broadcasting against the points."""
    lo, alpha = np.minimum(n_plus, n_minus), abs(n_plus - n_minus)
    z = x + 1j * y
    rho = x * x + y * y
    gauss = np.exp(-0.5 * rho)
    # where the Gaussian underflows the value is 0: zero the point there
    # first, so neither the power of z nor the polynomial can overflow
    # (in place: z and rho are new arrays of the mask's shape)
    dead = gauss == 0
    z[dead] = rho[dead] = 0
    amp = _SQRT_FACTORIAL_RATIO[lo, lo + alpha] * (-1.0) ** lo
    # in place, in the operand order of amp / sqrt(pi) * power * gauss * L
    value = _z_power(z, n_plus - n_minus)
    np.multiply(amp / np.sqrt(np.pi), value, out=value)
    value *= gauss
    value *= laguerre(lo, alpha, rho)
    np.copyto(value, 0, where=dead)
    return value


def lg_mode(index: ModeIndex, x, y) -> complex | np.ndarray:
    """Laguerre-Gaussian mode at position (x, y), with z = x + iy.

    With ``lo, hi = sorted((n_plus, n_minus))`` the value is

        pi**-0.5 sqrt(lo!/hi!) (-1)**lo w**(hi-lo)
        exp(-|z|**2/2) L^(hi-lo)_lo(|z|**2)

    where w is z when ``n_plus >= n_minus`` and its conjugate otherwise.
    ``x`` and ``y`` broadcast against each other; a scalar point returns a
    ``complex``. It is a thin wrapper over one evaluator whose quanta may
    also be integer arrays broadcasting against the points, as the
    indices of :func:`lgwigner.wigner.wigner_hermite_closed` do; the
    verification suites build their LG stacks from it in one call, each
    mode with the bits of its own ``lg_mode`` call.
    """
    index._require(Basis.LG)
    return _lg_modes(index.first, index.second, x, y)


def ladder_index_action(op: LadderOp, index: ModeIndex):
    """Index-space action of a ladder operator.

    Creation on a slot holding m quanta returns ``(sqrt(m+1), index')``
    with that slot incremented; annihilation returns ``(sqrt(m), index')``
    with it decremented, or ``(0.0, ANNIHILATED)`` when the slot is empty.

    Raises ``ValueError`` when the operator family does not match the
    index basis (Cartesian ops act on HG indices, circular ops on LG).
    """
    basis, slot, creates = _OP_INDEX_RULES[op]
    if index.basis is not basis:
        raise ValueError(
            f"operator {op.value} acts on {basis.value.upper()} indices, "
            f"got {index.basis.value.upper()}"
        )
    pair = [index.first, index.second]
    m = pair[slot]
    if creates:
        pair[slot] = m + 1
        return np.sqrt(m + 1.0), ModeIndex(pair[0], pair[1], basis)
    if m == 0:
        return 0.0, ANNIHILATED
    pair[slot] = m - 1
    return np.sqrt(float(m)), ModeIndex(pair[0], pair[1], basis)


class _HGField:
    """HG basis mode as a callable field with analytic partials."""

    def __init__(self, index: ModeIndex):
        index._require(Basis.HG)
        self.index = index

    def __call__(self, x, y):
        return hg_mode(self.index, x, y)

    @_scalars_as_arrays(float, "x", "y")
    def partial_x(self, x, y):
        j, k = self.index.first, self.index.second
        return hermite_function_derivative(j, x) * hermite_function(k, y)

    @_scalars_as_arrays(float, "x", "y")
    def partial_y(self, x, y):
        j, k = self.index.first, self.index.second
        return hermite_function(j, x) * hermite_function_derivative(k, y)


class _LGField:
    """LG basis mode as a callable field with analytic partials.

    The partials come from the Wirtinger derivatives of the closed form,
    using ``d/dx L^a_n = -L^(a+1)_(n-1)``; this route does not consult the
    index-space ladder rules, so the two stay independent cross-checks.
    """

    def __init__(self, index: ModeIndex):
        index._require(Basis.LG)
        self.index = index

    def __call__(self, x, y):
        return lg_mode(self.index, x, y)

    def _wirtinger(self, x, y):
        conjugated = self.index.first < self.index.second
        lo, hi = sorted((self.index.first, self.index.second))
        alpha = hi - lo
        z = x + 1j * y
        rho = x * x + y * y
        gauss = np.exp(-0.5 * rho)
        # zero the point where the Gaussian underflows, as lg_mode does (in
        # place: z, rho and both derivatives are new arrays of its shape)
        dead = gauss == 0
        z[dead] = rho[dead] = 0
        zbar = np.conj(z)
        power_base, other = (zbar, z) if conjugated else (z, zbar)
        amp = _SQRT_FACTORIAL_RATIO[lo, hi] * (-1.0) ** lo
        coeff = amp / np.sqrt(np.pi) * gauss
        lag = laguerre(lo, alpha, rho)
        dlag = -laguerre(lo - 1, alpha + 1, rho) if lo > 0 else 0.0
        pw = power_base**alpha
        # derivative along the powered variable and along the other one
        d_power = coeff * (
            (alpha * power_base ** (alpha - 1) * lag if alpha > 0 else 0.0)
            + pw * other * (dlag - 0.5 * lag)
        )
        d_other = coeff * pw * power_base * (dlag - 0.5 * lag)
        d_power[dead] = d_other[dead] = 0
        return (d_other, d_power) if conjugated else (d_power, d_other)  # (d/dz, d/dzbar)

    @_scalars_as_arrays(complex, "x", "y")
    def partial_x(self, x, y):
        dz, dzbar = self._wirtinger(x, y)
        return dz + dzbar

    @_scalars_as_arrays(complex, "x", "y")
    def partial_y(self, x, y):
        dz, dzbar = self._wirtinger(x, y)
        return 1j * (dz - dzbar)


def hg_field(index: ModeIndex) -> _HGField:
    """Wrap an HG index as a field usable in analytic operator application."""
    return _HGField(index)


def lg_field(index: ModeIndex) -> _LGField:
    """Wrap an LG index as a field usable in analytic operator application."""
    return _LGField(index)


@_scalars_as_arrays(complex, "x", "y")
def apply_operator_pointwise(op: LadderOp, f, x, y) -> complex | np.ndarray:
    """Apply a ladder operator to a field at a point or an array of points.

    Each operator is a first-order differential expression in (x, y); for
    example the circular raising operator acting on a field f is
    ``(x f - df/dx + i (y f - df/dy)) / 2``.

    Parameters
    ----------
    op : LadderOp
        Operator to apply.
    f : callable
        Field ``f(x, y) -> complex``, always called with numpy arrays (a
        scalar point arrives as one-element arrays), so it must accept
        them. A field with both ``partial_x`` and ``partial_y`` methods,
        such as the basis fields from :func:`hg_field` and
        :func:`lg_field`, has its partials taken from them; for any other
        callable they are central differences with step
        ``DEFAULT_FD_STEP`` = 1e-5, balancing truncation and rounding.
    x, y : float or array_like
        Evaluation points, broadcast against each other. Scalar input
        returns a ``complex``, array input an array of the broadcast shape.
    """
    cx, cdx, cy, cdy = _OP_POINTWISE[op]
    step = DEFAULT_FD_STEP
    if hasattr(f, "partial_x") and hasattr(f, "partial_y"):
        fx = f.partial_x(x, y)
        fy = f.partial_y(x, y)
    else:
        fx = (f(x + step, y) - f(x - step, y)) / (2.0 * step)
        fy = (f(x, y + step) - f(x, y - step)) / (2.0 * step)
    f0 = f(x, y)
    return cx * x * f0 + cdx * fx + cy * y * f0 + cdy * fy
