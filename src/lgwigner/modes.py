"""Two-dimensional oscillator modes and their ladder operators.

Cartesian (Hermite-Gaussian) modes are indexed by quanta ``(j, k)`` per
axis; circular (Laguerre-Gaussian) modes are indexed by the number of
positive and negative angular-momentum quanta ``(n_plus, n_minus)``.
The module provides position-representation evaluation of both families,
index-space actions of the eight ladder operators, and pointwise
application of the same operators as first-order differential expressions
built from the analytic partials a field carries, as the basis fields do.

The kernels run on index arrays only: each family's mode evaluator
(``_hg_modes``, ``_lg_modes``) and partials kernel (``_hg_partial``,
``_lg_partial``) take quanta that may be integer arrays broadcasting
against the points, and ``_ladder_action`` takes arrays of quanta; each
entry has the bits of its own scalar-index call. The public names that
take one :class:`ModeIndex` are thin wrappers over them, and a basis
field holds its quanta and its family's two kernels.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .specfun import (
    MAX_DEGREE,
    _check_degree,
    _gaussian,
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


_ISQRT2 = 1.0 / np.sqrt(2.0)

# op -> its index rule (compatible basis, slot acted on, True when creating)
# and its coefficients (c_x, c_dx, c_y, c_dy) as the differential expression
# c_x*x*f + c_dx*df/dx + c_y*y*f + c_dy*df/dy
_LADDER = {
    LadderOp.A1: ((Basis.HG, 0, False), (_ISQRT2, _ISQRT2, 0.0, 0.0)),
    LadderOp.A1DAG: ((Basis.HG, 0, True), (_ISQRT2, -_ISQRT2, 0.0, 0.0)),
    LadderOp.A2: ((Basis.HG, 1, False), (0.0, 0.0, _ISQRT2, _ISQRT2)),
    LadderOp.A2DAG: ((Basis.HG, 1, True), (0.0, 0.0, _ISQRT2, -_ISQRT2)),
    LadderOp.APLUS: ((Basis.LG, 0, False), (0.5, 0.5, -0.5j, -0.5j)),
    LadderOp.APLUSDAG: ((Basis.LG, 0, True), (0.5, -0.5, 0.5j, -0.5j)),
    LadderOp.AMINUS: ((Basis.LG, 1, False), (0.5, 0.5, 0.5j, 0.5j)),
    LadderOp.AMINUSDAG: ((Basis.LG, 1, True), (0.5, -0.5, -0.5j, 0.5j)),
}


#: ``_SQRT_FACTORIAL_RATIO[lo, hi]`` = sqrt(lo!/hi!) for lo <= hi <=
#: MAX_DEGREE, the running quotient of 1 by sqrt(i) over lo < i <= hi (no
#: factorials).
_SQRT_FACTORIAL_RATIO = _running_quotients(np.ones(MAX_DEGREE + 1), np.sqrt(np.arange(MAX_DEGREE + 1)))


@_scalars_as_arrays(float, "x", "y", indices=dict.fromkeys(("j", "k"), MAX_DEGREE))
def _hg_modes(j, k, x, y) -> float | np.ndarray:
    """:func:`hg_mode` at quanta ``(j, k)``, integers or integer arrays
    broadcasting against the points."""
    return hermite_function(j, x) * hermite_function(k, y)


def hg_mode(index: ModeIndex, x, y) -> float | np.ndarray:
    """Hermite-Gaussian mode: the tensor product h_j(x) h_k(y)."""
    index._require(Basis.HG)
    return _hg_modes(index.first, index.second, x, y)


@_scalars_as_arrays(complex, "x", "y", indices=dict.fromkeys(("n_plus", "n_minus"), MAX_DEGREE))
def _lg_modes(n_plus, n_minus, x, y) -> complex | np.ndarray:
    """:func:`lg_mode` at circular quanta ``(n_plus, n_minus)``, integers or
    integer arrays broadcasting against the points."""
    lo, alpha = np.minimum(n_plus, n_minus), abs(n_plus - n_minus)
    z = x + 1j * y
    rho = x * x + y * y
    gauss, dead = _gaussian(-0.5 * rho, z, rho)
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


def _ladder_action(op: LadderOp, first, second) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index-space action of ``op`` on integer arrays of quanta that
    broadcast together: ``(coeff, first', second')``.

    Creation on a slot holding m quanta has coefficient sqrt(m + 1) and
    increments the slot; annihilation has sqrt(m) and decrements it,
    except that an annihilated entry, m = 0, has coefficient 0 and keeps
    its indices. The basis is the caller's to check.
    """
    (_, slot, creates), _ = _LADDER[op]
    pair = [np.asarray(first), np.asarray(second)]
    m = pair[slot]
    coeff = np.sqrt(m + creates)
    pair[slot] = np.where(coeff > 0, m + (1 if creates else -1), m)
    return coeff, pair[0], pair[1]


def ladder_index_action(op: LadderOp, index: ModeIndex):
    """Index-space action of a ladder operator.

    Creation on a slot holding m quanta returns ``(sqrt(m+1), index')``
    with that slot incremented; annihilation returns ``(sqrt(m), index')``
    with it decremented, or ``(0.0, ANNIHILATED)`` when the slot is empty.

    Raises ``ValueError`` when the operator family does not match the
    index basis (Cartesian ops act on HG indices, circular ops on LG).
    """
    basis = _LADDER[op][0][0]
    if index.basis is not basis:
        raise ValueError(
            f"operator {op.value} acts on {basis.value.upper()} indices, "
            f"got {index.basis.value.upper()}"
        )
    coeff, first, second = _ladder_action(op, index.first, index.second)
    if coeff == 0:
        return 0.0, ANNIHILATED
    return coeff, ModeIndex(int(first), int(second), basis)


@_scalars_as_arrays(float, "x", "y", indices=dict.fromkeys(("j", "k"), MAX_DEGREE))
def _hg_partial(j, k, x, y, along_y: bool) -> float | np.ndarray:
    """d/dx of :func:`_hg_modes`, or d/dy when ``along_y``."""
    if along_y:
        return hermite_function(j, x) * hermite_function_derivative(k, y)
    return hermite_function_derivative(j, x) * hermite_function(k, y)


@_scalars_as_arrays(complex, "x", "y", indices=dict.fromkeys(("n_plus", "n_minus"), MAX_DEGREE))
def _lg_partial(n_plus, n_minus, x, y, along_y: bool) -> complex | np.ndarray:
    """d/dx of :func:`_lg_modes`, or d/dy when ``along_y``.

    The partials come from the Wirtinger derivatives of the closed form,
    using ``d/dx L^a_n = -L^(a+1)_(n-1)``; this route consults neither
    the index-space ladder rules nor the modes at shifted indices, so the
    two stay independent cross-checks. With e = n_plus - n_minus, the
    powered variable w is z where e >= 0 and its conjugate elsewhere.
    """
    e = n_plus - n_minus
    lo, hi = np.minimum(n_plus, n_minus), np.maximum(n_plus, n_minus)
    alpha = hi - lo
    z = x + 1j * y
    rho = x * x + y * y
    gauss, dead = _gaussian(-0.5 * rho, z, rho)
    zbar = np.conj(z)
    power_base, other = np.where(e >= 0, z, zbar), np.where(e >= 0, zbar, z)
    amp = _SQRT_FACTORIAL_RATIO[lo, hi] * (-1.0) ** lo
    coeff = amp / np.sqrt(np.pi) * gauss
    lag = laguerre(lo, alpha, rho)
    dlag = -laguerre(np.maximum(lo - 1, 0), alpha + 1, rho) * (lo > 0)
    pw = _z_power(z, e)
    # alpha w**(alpha - 1) L, exactly +0 where alpha = 0, so that no
    # signed zero reaches the sum
    d_pw = np.where(alpha > 0, alpha * _z_power(z, e - np.sign(e)) * lag, 0)
    # derivative along the powered variable and along the other one
    d_power = coeff * (d_pw + pw * other * (dlag - 0.5 * lag))
    d_other = coeff * pw * power_base * (dlag - 0.5 * lag)
    dz, dzbar = np.where(e >= 0, d_power, d_other), np.where(e >= 0, d_other, d_power)
    value = 1j * (dz - dzbar) if along_y else dz + dzbar
    np.copyto(value, 0, where=dead)
    return value


@dataclass(frozen=True)
class _BasisField:
    """Basis mode as a callable field with analytic partials, from its
    family's value and partials kernels. The quanta ``(first, second)``
    may also be integer arrays broadcasting against the points, so that
    one field is a stack of modes, each entry with the bits of its own
    field."""

    first: int | np.ndarray
    second: int | np.ndarray
    value: Callable
    partial: Callable

    def __call__(self, x, y):
        return self.value(self.first, self.second, x, y)

    def partial_x(self, x, y):
        return self.partial(self.first, self.second, x, y, False)

    def partial_y(self, x, y):
        return self.partial(self.first, self.second, x, y, True)


def hg_field(index: ModeIndex) -> _BasisField:
    """Wrap an HG index as a field usable in analytic operator application."""
    index._require(Basis.HG)
    return _BasisField(index.first, index.second, _hg_modes, _hg_partial)


def lg_field(index: ModeIndex) -> _BasisField:
    """Wrap an LG index as a field usable in analytic operator application."""
    index._require(Basis.LG)
    return _BasisField(index.first, index.second, _lg_modes, _lg_partial)


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
        Field ``f(x, y) -> complex`` with methods ``partial_x`` and
        ``partial_y`` alike, as the basis fields from :func:`hg_field` and
        :func:`lg_field` have, else ``TypeError`` before any call. All
        three take numpy arrays; a scalar point arrives as one-element arrays.
    x, y : float or array_like
        Evaluation points, broadcast against each other. Scalar input
        returns a ``complex``, array input an array of the broadcast shape.
    """
    _, (cx, cdx, cy, cdy) = _LADDER[op]
    if not (hasattr(f, "partial_x") and hasattr(f, "partial_y")):
        raise TypeError("the field must have both partial_x and partial_y methods")
    fx, fy, f0 = f.partial_x(x, y), f.partial_y(x, y), f(x, y)
    return cx * x * f0 + cdx * fx + cy * y * f0 + cdy * fy
