"""Paraxial Laguerre-Gaussian beam fields along the propagation axis.

The transverse profile at the waist coincides (after rescaling) with the
oscillator LG modes from :mod:`lgwigner.modes`; away from the waist the
field picks up the usual width growth, wavefront curvature, and Gouy
phase. The curvature is handled through its reciprocal so the waist plane
needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import MAX_DEGREE, _scalars_as_arrays, laguerre

__all__ = ["BeamParams", "BeamIndex", "BeamGeometry", "beam_geometry", "beam_field"]


@dataclass(frozen=True)
class BeamParams:
    """Waist radius and wavenumber, with the derived Rayleigh range.

    Both must be positive and finite, ``w0`` at most 1e150 (so its square
    is finite), and the Rayleigh range ``zR = k w0**2 / 2`` must neither
    underflow to 0 nor overflow. A height ``z`` is bounded by
    :func:`beam_geometry`.
    """

    w0: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.w0) and self.w0 > 0):
            raise ValueError("w0 must be positive and finite")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")
        if not (self.w0 <= 1e150 and 0 < self.zR < np.inf):
            raise ValueError("w0 must be at most 1e150 and zR = k w0**2 / 2 positive and finite")

    @property
    def zR(self) -> float:
        return 0.5 * self.k * self.w0**2


@dataclass(frozen=True)
class BeamIndex:
    """Radial index p >= 0 and signed azimuthal index ell."""

    p: int
    ell: int

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or isinstance(self.p, bool):
            raise TypeError("p must be an integer")
        if not isinstance(self.ell, (int, np.integer)) or isinstance(self.ell, bool):
            raise TypeError("ell must be an integer")
        if not 0 <= self.p <= MAX_DEGREE:
            raise ValueError(f"p={self.p} outside supported range [0, {MAX_DEGREE}]")
        if abs(self.ell) > MAX_DEGREE:
            raise ValueError(f"|ell|={abs(self.ell)} exceeds {MAX_DEGREE}")


class BeamGeometry(NamedTuple):
    w: float
    inv_R: float
    gouy: float


def beam_geometry(params: BeamParams, z: float) -> BeamGeometry:
    """Width w(z), reciprocal curvature radius 1/R(z), and Gouy angle.

    ``w(z) = w0 sqrt(1 + (z/zR)**2)``, ``1/R(z) = z / (zR**2 + z**2)``
    (regular at z = 0, where the curvature radius itself diverges), and
    ``gouy = atan(z/zR)``. ``|z|`` may be at most 1e150 Rayleigh ranges,
    so that ``(z/zR)**2`` is finite, and ``k |z|`` must be finite, so
    that the carrier phase of :func:`beam_field` is.
    """
    zr = params.zR
    if not abs(z) <= 1e150 * zr:
        raise ValueError("z must be finite and at most 1e150 Rayleigh ranges from the waist")
    # as Python floats, whose product overflows to inf without a warning
    if not math.isfinite(float(params.k) * float(z)):
        raise ValueError("k |z| must be finite")
    w = params.w0 * np.sqrt(1.0 + (z / zr) ** 2)
    inv_r = z / (zr * zr + z * z)
    return BeamGeometry(float(w), float(inv_r), float(np.arctan(z / zr)))


def _factorial_ratio(p: int, ell_abs: int) -> float:
    """p! / (p + ell_abs)! as a running product."""
    out = 1.0
    for i in range(p + 1, p + ell_abs + 1):
        out /= i
    return out


@_scalars_as_arrays(complex, "r", "phi")
def beam_field(
    index: BeamIndex,
    params: BeamParams,
    r,
    phi,
    z: float,
) -> complex | np.ndarray:
    """Time-harmonic LG beam amplitude in cylindrical coordinates.

    The field is

        C exp(-i Phi) exp(-r**2/w**2) (r sqrt2 / w)**|ell|
        L^|ell|_p(2 r**2 / w**2)

    with total phase
    ``Phi = ell phi - k z + k r**2 / (2 R(z)) - (2p + ell + 1) gouy(z)``.
    The constant ``C = sqrt(2 p! / (pi (p+|ell|)!)) / w(z)`` makes the
    transverse L2 norm equal 1 at every z.

    ``r`` must be non-negative; ``r`` and ``phi`` may be arrays.
    """
    ra = np.asarray(r, dtype=float)
    pa = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(ra)) and np.all(np.isfinite(pa))):
        raise ValueError("r and phi must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be non-negative")
    geom = beam_geometry(params, z)
    w = geom.w
    ell_abs = abs(index.ell)
    # r**2 / w**2 may overflow to inf, whose Gaussian is the 0 it should be
    with np.errstate(over="ignore"):
        gauss = np.exp(-(ra * ra) / (w * w))
    # where the Gaussian underflows the value is 0: zero r there first, so
    # neither the power of r nor the polynomial can overflow (r is the
    # caller's array, so in a copy, made only when some point needs it)
    dead = gauss == 0
    if dead.any():
        ra = np.where(dead, 0.0, ra)
    total_phase = (
        index.ell * pa
        - params.k * z
        + 0.5 * params.k * ra * ra * geom.inv_R
        - (2 * index.p + index.ell + 1) * geom.gouy
    )
    radial = (
        gauss
        * (ra * np.sqrt(2.0) / w) ** ell_abs
        * laguerre(index.p, ell_abs, 2.0 * ra * ra / (w * w))
    )
    norm = np.sqrt(2.0 * _factorial_ratio(index.p, ell_abs) / np.pi) / w
    value = np.exp(-1j * total_phase) * radial * norm
    # phi may broadcast the value past the mask's shape
    value[np.broadcast_to(dead, value.shape)] = 0
    return value
