"""Wigner transforms: quadrature oracles, a rotate-plus-FFT grid
realization, and closed forms.

Conventions used throughout (and everywhere else in this package):

    W_d(f, g)(x, xi) = (2 pi)**(-d/2) Int exp(i p.xi)
                       conj(f((x+p)/sqrt2)) g((x-p)/sqrt2) dp

with the compressed arguments ``(x +- p)/sqrt(2)`` and the
``(2 pi)**(-d/2)`` prefactor. This differs from the more common Wigner
function normalization; see the README for the exact mapping. The
extended transform applies the same integral to a single function of two
variables:

    Wt(F)(x, y) = (2 pi)**(-1/2) Int exp(i p y)
                  F((x+p)/sqrt2, (x-p)/sqrt2) dp

so ``W_1(f, g) = Wt(conj(f) (x) g)``, which is how the one-dimensional
oracles are built on the extended ones. Wt factors as a partial Fourier
transform after a quarter-turn rotation, which is what
:func:`extended_wigner_rotfft` exploits on sampled grids: the rotation is
three FFT shears, exact for band-limited samples, so the grid transform
is limited only by the truncation of the sampled window (about 3e-12 for
HG(3, 2) over [-8, 8]).

The quadrature oracles use a plain trapezoid rule on a truncated window.
For a pair of modes of degrees m and n the integrand, after the
quarter-turn, is a finite Hermite expansion of degree m + n in p, so the
rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385
(2014)). :meth:`QuadratureSpec.for_degree` sizes the window and the node
count from that degree and the largest frequency the integral is
evaluated at. The verification engine passes such a spec to every
oracle call: 26 to 88 nodes for integrand degrees up to 16, with
errors of 6e-17 to 3e-14 against closed forms and exact integrals.
``DEFAULT_QUAD`` ([-16, 16], 1024 nodes) stays the default for fields
of unknown degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import MAX_DEGREE, _gaussian, _running_quotients, _z_power, hermite_function_table, laguerre
from .specfun import _as_finite_array, _check_degree, _check_int, _scalars_as_arrays  # argument rules

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "PhasePoint4",
    "Grid2D",
    "wigner1d",
    "wigner1d_grid",
    "extended_wigner",
    "extended_wigner_grid",
    "extended_wigner_rotfft",
    "wigner2d",
    "wigner_hermite_closed",
    "wigner_lg_closed",
    "wigner_lg_diag",
    "wigner_hg_closed",
    "wigner_hg_diag",
]

SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi


#: Bound below which :meth:`QuadratureSpec.for_degree` treats the Hermite
#: functions as zero.
_NEGLIGIBLE = 1e-16


def _trap_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uniform nodes on [lo, hi] and their trapezoid weights."""
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


@functools.lru_cache(maxsize=None)
def _decay_half_width(degree: int) -> float:
    """Smallest multiple of 1/16 past which every h_k, ``k <= degree``,
    stays below ``_NEGLIGIBLE``.

    Each h_k decays monotonically beyond its turning point
    sqrt(2k + 1) < 12, and the bound is crossed far beyond it, so the
    last sampled crossing is the last one.
    """
    x = np.arange(40 * 16 + 1) / 16.0
    above = np.abs(hermite_function_table(degree, x)).max(axis=0) >= _NEGLIGIBLE
    return float(x[np.flatnonzero(above)[-1] + 1])


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation half-width and node count for the oracle integrals.

    The p-integrals run over ``[-half_width, half_width]`` on ``nodes``
    uniformly spaced trapezoid points.
    """

    half_width: float = 16.0
    nodes: int = 1024

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be positive and finite")
        _check_int(self.nodes, "nodes", 16)
        if self.nodes % 2 != 0:
            raise ValueError("nodes must be even")

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and trapezoid weights."""
        return _trap_axis(-self.half_width, self.half_width, self.nodes)

    @classmethod
    def for_degree(cls, degree: int, reach: float = 0.0) -> "QuadratureSpec":
        """Spec for ``Int exp(i p xi) s(p) dp`` with ``|xi| <= reach``, where
        ``s`` is a combination of Hermite functions h_k, ``k <= degree``,
        with coefficients of order one.

        Every oracle integrand of unit-normalized modes is such an
        expansion: the pair (h_m, h_n) gives degree m + n in p. The
        half-width T is the point past which every h_k with
        ``k <= degree`` stays below 1e-16. The spectrum of ``s`` is
        confined to [-T, T] as well (each h_k is its own Fourier transform
        up to a phase), so a spacing of at most ``2 pi / (T + reach)``
        keeps the first alias outside it. ``nodes`` is the smallest even
        count, at least 16, giving that spacing. ``degree`` runs up to
        ``MAX_DEGREE``.
        """
        _check_degree(degree, "degree")
        if not (np.isfinite(reach) and reach >= 0):
            raise ValueError("reach must be non-negative and finite")
        half = _decay_half_width(int(degree))
        # nodes - 1 intervals of 2 half / (nodes - 1) <= 2 pi / (half + reach)
        nodes = math.ceil(half * (half + reach) / np.pi) + 1
        return cls(half, max(16, nodes + nodes % 2))


DEFAULT_QUAD = QuadratureSpec()


def _check_quad(quad) -> QuadratureSpec:
    if quad is None:
        return DEFAULT_QUAD
    if not isinstance(quad, QuadratureSpec):
        raise TypeError("quad must be a QuadratureSpec")
    return quad


@dataclass(frozen=True)
class PhasePoint4:
    """A point (x1, x2, xi1, xi2) of the four-dimensional phase space.

    The derived quadratics q0, q2, q3 parameterize the diagonal closed
    forms; by Cauchy-Schwarz ``|q2| <= q0`` and ``|q3| <= q0``. The fields
    may also be arrays that broadcast together, describing a set of
    points; the quadratics are then arrays of the broadcast shape.
    """

    x1: float | np.ndarray
    x2: float | np.ndarray
    xi1: float | np.ndarray
    xi2: float | np.ndarray

    def __post_init__(self):
        for name in ("x1", "x2", "xi1", "xi2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")

    @property
    def q0(self) -> float | np.ndarray:
        return 0.5 * (self.x1**2 + self.x2**2 + self.xi1**2 + self.xi2**2)

    @property
    def q2(self) -> float | np.ndarray:
        return self.x1 * self.xi2 - self.x2 * self.xi1

    @property
    def q3(self) -> float | np.ndarray:
        return 0.5 * (self.x1**2 - self.x2**2 + self.xi1**2 - self.xi2**2)


def _axis(axis, name: str) -> tuple[float, float, int]:
    """``axis`` as ``(float, float, int)`` under the grid rule: an integer
    count of at least 2 and finite, strictly increasing bounds."""
    lo, hi, count = axis
    _check_int(count, f"{name} count", 2)
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} bounds must be finite")
    if not lo < hi:
        raise ValueError(f"{name} must be strictly increasing")
    return lo, hi, int(count)


@dataclass
class Grid2D:
    """Rectangular complex samples with axis metadata.

    ``values[i, j]`` is the sample at ``(x_nodes()[i], y_nodes()[j])``;
    the row-major flattening therefore runs the y axis fastest. Each axis
    is ``(lo, hi, count)`` with finite ``lo < hi`` and an integer count of
    at least 2; a float, bool or string count raises TypeError.
    """

    x_axis: tuple[float, float, int]
    y_axis: tuple[float, float, int]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.x_axis, self.y_axis = _axis(self.x_axis, "x_axis"), _axis(self.y_axis, "y_axis")
        nx, ny = self.x_axis[2], self.y_axis[2]
        vals = np.asarray(self.values, dtype=complex)
        if vals.size != nx * ny:
            raise ValueError("values length must equal the product of the axis counts")
        self.values = vals.reshape(nx, ny)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_axis[0], self.x_axis[1], self.x_axis[2])

    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_axis[0], self.y_axis[1], self.y_axis[2])

    @classmethod
    def sample(cls, func, x_axis, y_axis) -> "Grid2D":
        """Sample ``func(x, y)`` on the tensor grid of the two axes, which
        are checked by the grid rule before ``func`` is called."""
        x_axis, y_axis = _axis(x_axis, "x_axis"), _axis(y_axis, "y_axis")
        x, y = np.linspace(*x_axis), np.linspace(*y_axis)
        vals = np.asarray(func(x[:, None], y[None, :]), dtype=complex)
        return cls(x_axis, y_axis, np.broadcast_to(vals, (len(x), len(y))).copy())


# ---------------------------------------------------------------------------
# quadrature oracles


@_scalars_as_arrays(complex, "x", "xi")
def wigner1d(f, g, x, xi, quad: QuadratureSpec | None = None) -> complex | np.ndarray:
    """One-dimensional Wigner transform W(f, g)(x, xi) by quadrature.

    The extended transform of ``conj(f) (x) g``: :func:`extended_wigner`
    of ``F(u, v) = conj(f(u)) g(v)``. ``f`` and ``g`` must accept numpy
    arrays and be negligible outside
    ``[-(|x| + half_width)/sqrt2, (|x| + half_width)/sqrt2]`` for the
    truncation to be harmless. ``x`` and ``xi`` may be arrays of points,
    broadcast against each other; scalar input returns a ``complex``.
    """
    return extended_wigner(lambda u, v: np.conj(f(u)) * g(v), x, xi, quad)


#: Largest number of elements an oracle temporary may hold (one 1024 x 1024
#: array); the grid oracles evaluate their rows in blocks sized to fit.
_BLOCK_ELEMENTS = 1024 * 1024


def _integrate_rows(integrand, xs: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``integrand(rows) @ phase / sqrt(2 pi)`` for every row of ``xs``.

    ``integrand`` maps a block of ``xs`` to weighted integrand samples of
    shape ``batch + (len(block), nodes)``; each block is flattened into a
    single matrix product with the ``(nodes, columns)`` phase matrix,
    written into the result of shape ``batch + (len(xs), columns)``. A
    complex block takes ``flat @ phase``; a real one takes two real
    products, with the phase's cosine and sine parts, which go straight
    into the real and imaginary parts of the result, so it is never cast
    to complex. The first block is one row (none for empty ``xs``), whose
    size sets the rows per block for the rest.
    """
    nodes, columns = phase.shape
    cos, sin = np.ascontiguousarray(phase.real), np.ascontiguousarray(phase.imag)

    def block(rows):
        amp = integrand(rows)
        return np.broadcast_to(amp, np.broadcast_shapes(amp.shape, (len(rows), nodes)))

    def contract(amp, dest):
        flat = amp.reshape(-1, nodes)
        if np.iscomplexobj(flat):
            dest[...] = (flat @ phase).reshape(dest.shape)
        else:
            dest.real = (flat @ cos).reshape(dest.shape)
            dest.imag = (flat @ sin).reshape(dest.shape)

    first = block(xs[:1])
    batch = first.shape[:-2]
    out = np.empty(batch + (xs.size, columns), dtype=complex)
    contract(first, out[..., :1, :])
    rows = max(1, _BLOCK_ELEMENTS // max(1, math.prod(batch) * nodes))
    for start in range(1, xs.size, rows):
        contract(block(xs[start : start + rows]), out[..., start : start + rows, :])
    out /= np.sqrt(_TWO_PI)
    return out


def wigner1d_grid(f, g, xs, xis, quad: QuadratureSpec | None = None) -> np.ndarray:
    """W(f, g) on the tensor grid ``xs x xis``, shape (len(xs), len(xis)).

    :func:`extended_wigner_grid` of ``conj(f) (x) g``, as in
    :func:`wigner1d`, evaluated as matrix products against one phase
    matrix so large grids stay cheap. ``f`` and ``g`` may return stacks
    with leading batch axes, which broadcast against each other and lead
    the output shape: with
    ``f = lambda t: hermite_function_table(d, t)[:, None]`` and ``g`` the
    same with ``[None, :]``, ``out[m, n]`` is W(h_m, h_n) for every pair.
    """
    xs, xis = _as_finite_array(xs, "xs"), _as_finite_array(xis, "xis")
    return extended_wigner_grid(lambda u, v: np.conj(f(u)) * g(v), xs, xis, quad)


@_scalars_as_arrays(complex, "x", "y")
def extended_wigner(F, x, y, quad: QuadratureSpec | None = None) -> complex | np.ndarray:
    """Extended Wigner transform of a function of two variables, pointwise.

    ``x`` and ``y`` may be arrays of points, broadcast against each other;
    scalar input returns a ``complex``.
    """
    quad = _check_quad(quad)
    p, w = quad.grid()
    x, y = (a[..., None] for a in np.broadcast_arrays(x, y))
    vals = F((x + p) / SQRT2, (x - p) / SQRT2)
    acc = np.sum(w * np.exp(1j * p * y) * vals, axis=-1)
    return acc / np.sqrt(_TWO_PI)


def extended_wigner_grid(F, xs, ys, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Extended Wigner transform sampled on ``xs x ys`` by quadrature.

    ``F`` may return a stack with leading batch axes, as in
    :func:`wigner1d_grid`; the output shape is ``batch + (len(xs), len(ys))``.
    """
    quad = _check_quad(quad)
    p, w = quad.grid()
    xs = np.atleast_1d(_as_finite_array(xs, "xs"))
    ys = np.atleast_1d(_as_finite_array(ys, "ys"))
    phase = np.exp(1j * p[:, None] * ys[None, :])

    def integrand(rows):
        x = rows[:, None]
        return F((x + p) / SQRT2, (x - p) / SQRT2) * w

    return _integrate_rows(integrand, xs, phase)


def wigner2d(f, g, point: PhasePoint4, quad: QuadratureSpec | None = None) -> complex:
    """Two-dimensional Wigner transform W2(f, g) at one phase-space point.

    Tensor-product trapezoid rule over the truncated square, ``nodes**2``
    evaluations of each field: about a million with the default spec,
    a few thousand with :meth:`QuadratureSpec.for_degree` (degree
    j + k + m + n for LG pairs (j, k), (m, n), reach max(|xi1|, |xi2|)).
    The phase factor is separable, so it is applied as two weighted
    vectors around the field products. A coordinate of ``point`` that
    holds other than one value raises ValueError naming it.
    """
    for name in ("x1", "x2", "xi1", "xi2"):
        if np.size(getattr(point, name)) != 1:
            raise ValueError(f"{name} must hold one value: wigner2d takes one phase-space point")
    quad = _check_quad(quad)
    p, w = quad.grid()
    p1 = p[:, None]
    p2 = p[None, :]
    vals = np.conj(f((point.x1 + p1) / SQRT2, (point.x2 + p2) / SQRT2))
    vals = vals * g((point.x1 - p1) / SQRT2, (point.x2 - p2) / SQRT2)
    acc = (w * np.exp(1j * p * point.xi1)) @ vals @ (w * np.exp(1j * p * point.xi2))
    return complex(acc / _TWO_PI)


# ---------------------------------------------------------------------------
# rotate + partial-FFT realization


def _shift_ramp(count: int, spacing: float, shift: np.ndarray) -> np.ndarray:
    """``exp(i k shift)`` for the FFT frequencies k = m dk of ``count``
    samples at ``spacing`` (``dk = 2 pi / (count spacing)``), with m
    ascending from ``-(count // 2)`` along the last axis; ``shift``, of
    shape ``(c, 1)``, varies along the first.

    m = hi + lo, with hi a multiple of ``width`` ~ sqrt(count) and
    0 <= lo < width, so the ramp is the outer product of two tables of
    about sqrt(count) exponentials each. It may run up to ``width - 1``
    columns past ``count``; those are not used.
    """
    dk = _TWO_PI / (count * spacing)
    width = math.isqrt(count - 1) + 1

    def table(m):  # exp(i m dk shift), m along the last axis
        return np.exp(1j * (dk * m) * shift)

    hi = table(width * np.arange(-(-count // width)) - count // 2)
    lo = table(np.arange(width))
    return (hi[:, :, None] * lo[:, None, :]).reshape(len(shift), -1)


def _shear(rows: np.ndarray, ramp: np.ndarray) -> None:
    """Replace each row of samples of g(t) by the samples of g(t + shift),
    in place, by the Fourier shift theorem, with the ``_shift_ramp`` of the
    rows; the spectrum, in ``fftfreq`` order (m = 0, 1, ..., then the
    negative m), is multiplied by the ramp one half at a time."""
    np.fft.fft(rows, axis=1, out=rows)
    count = rows.shape[1]
    nonneg, neg = (count + 1) // 2, count // 2
    rows[:, :nonneg] *= ramp[:, neg:count]
    rows[:, nonneg:] *= ramp[:, :neg]
    np.fft.ifft(rows, axis=1, out=rows)


def extended_wigner_rotfft(grid: Grid2D) -> Grid2D:
    """Extended Wigner transform of a sampled field.

    Implements the factorization into a quarter-turn rotation followed by
    a partial Fourier transform in the second variable. The rotation
    F(x, p) -> F((x - p)/sqrt2, (x + p)/sqrt2) is the product of three
    shears by -tan(pi/8) along x, sin(pi/4) along y and -tan(pi/8) along
    x (Paeth, Graphics Interface 1986), each applied exactly to the
    band-limited interpolant of the samples as a phase ramp between an FFT
    and an inverse FFT along one axis, in that axis's own spacing (Larkin,
    Oldfield & Klemm, Opt. Commun. 139, 99 (1997)). The samples are
    zero-padded by a quarter of their count on each side of each axis;
    every intermediate of the rotated window fits inside 1.42 times the
    window, so nothing wraps around, and points outside the input window
    are treated as zero, which is where Schwartz-class samples are
    negligible anyway. The partial transform is a scaled FFT whose
    frequency axis honors the continuous ``(2 pi)**(-1/2)`` normalization.

    The seven FFTs set the cost. Each runs in place along the last,
    contiguous axis of its array: the two x shears work on the transposed
    samples, of shape (len(y), padded len(x)), and the y shear on
    (padded len(x), padded len(y)). One copy joins each pair of stages
    and transposes the samples, and the zero-filled buffers it copies
    into are the padding; the input grid is only read. The phase ramps
    cost little next to the FFTs. The two x shears share one ramp (same
    padded length, spacing and shifts). Each ramp ``exp(i k shift)`` is
    the product of two tables of about sqrt(N) exponentials per shift, N
    the padded count, rather than N of them; the spectra, and the output
    by its scale-and-phase vector, are multiplied in place. The ramps
    agree with the direct ``exp(i k shift)`` to within 2 ulps of the
    largest ``|k shift|`` (2.3e-13 at 512 x 512 over [-8, 8], where it
    reaches 850): that is the rounding of the direct form's own angle,
    and the output moves from the direct form's by about 2e-16.

    The input grid must be symmetric about the origin in both axes; the
    spacings and counts of the two axes may differ. The output keeps the
    input x axis; its y axis is the conjugate frequency axis derived from
    the input y spacing. Against ``lg_mode`` the transform of HG(3, 2)
    sampled on 256 x 256 or 512 x 512 nodes over [-8, 8] is accurate to
    about 3e-12, where truncation at the window edge sets the limit.

    Sized by the mode degree d = j + k instead, HG(j, k) is accurate to
    below 5e-14 up to order 64 on the product-rule grid (checked at
    orders 0, 1, 16, 32 and 64: (0, 0), (1, 0), (8, 8), (16, 16),
    (32, 32), (40, 24), (64, 0) and (0, 64); the largest, 4.45e-14, at
    (32, 32)). The window is [-T, T] with
    T = ``QuadratureSpec.for_degree(d).half_width``, past which the
    samples stay below 1e-16, on
    ``QuadratureSpec.for_degree(d, reach=T).nodes`` nodes per axis, a
    spacing dx of at most pi / T, so the output's frequency axis reaches
    pi / dx >= T and covers the LG mode (168 x 168 on [-16.125, 16.125]
    at order 64). The node count matters as much as the window: 128
    nodes on the order-64 window miss by 1e-3.
    """
    for name, (lo, hi, count) in (("x_axis", grid.x_axis), ("y_axis", grid.y_axis)):
        if abs(lo + hi) > 1e-9 * (hi - lo):
            raise ValueError(f"{name} must be symmetric about 0")
    x, p = grid.x_nodes(), grid.y_nodes()
    dx, dp = x[1] - x[0], p[1] - p[0]
    nx, n = x.size, p.size
    px, py = nx // 4, n // 4
    x_padded = x[0] + dx * np.arange(-px, nx + px)
    tan, sin = np.tan(np.pi / 8), np.sin(np.pi / 4)
    # the x shears run on the transposed samples, so that every FFT runs
    # along the last, contiguous axis; a shear along x keeps zero columns
    # zero and acts on each column alone, so the first runs on the input's
    # columns and the last on the output's: both have the same padded
    # length, spacing and shifts, so they share one ramp
    x_ramp = _shift_ramp(nx + 2 * px, dx, -tan * p[:, None])
    columns = np.zeros((n, nx + 2 * px), dtype=complex)
    columns[:, px : px + nx] = grid.values.T
    _shear(columns, x_ramp)
    rows = np.zeros((nx + 2 * px, n + 2 * py), dtype=complex)
    rows[:, py : py + n] = columns.T
    _shear(rows, _shift_ramp(n + 2 * py, dp, sin * x_padded[:, None]))
    columns[...] = rows[:, py : py + n].T
    del rows
    _shear(columns, x_ramp)
    rotated = np.ascontiguousarray(columns[:, px : px + nx].T)

    freqs = _TWO_PI * (np.arange(n) - n // 2) / (n * dp)
    np.fft.fft(rotated, axis=1, out=rotated)
    out = np.fft.fftshift(rotated, axes=1)
    out *= (dp / np.sqrt(_TWO_PI)) * np.exp(-1j * p[0] * freqs)
    return Grid2D(grid.x_axis, (float(freqs[0]), float(freqs[-1]), n), out)


# ---------------------------------------------------------------------------
# closed forms


#: ``_CLOSED_SCALE[lo, hi]`` = (-1)**lo / sqrt(pi) divided by sqrt(lo + 1),
#: ..., sqrt(hi) in turn, for lo <= hi <= MAX_DEGREE: the scale of
#: :func:`wigner_hermite_closed`, with no factorials.
_DEGREES = np.arange(MAX_DEGREE + 1)
_CLOSED_SCALE = _running_quotients((-1.0) ** _DEGREES / np.sqrt(np.pi), np.sqrt(_DEGREES))


@_scalars_as_arrays(complex, "x", "y", indices=dict.fromkeys(("j", "k"), MAX_DEGREE))
def wigner_hermite_closed(j: int, k: int, x, y) -> complex | np.ndarray:
    """Closed form of W(h_j, h_k)(x, y) with z = x + iy.

    Equal to the LG mode with circular quanta (j, k) evaluated at the
    same point; the two are kept as separate code paths on purpose so
    they can cross-check each other. ``j`` and ``k`` may be integer arrays:
    they broadcast against ``x`` and ``y`` as the coordinates broadcast
    against each other, so one call gives every pair of a stack, each
    value with the bits of its own scalar-index call.
    """
    z = x + 1j * y
    rho = x * x + y * y
    gauss, dead = _gaussian(-0.5 * rho, z, rho)
    lo, alpha = np.minimum(j, k), abs(j - k)
    # in place, in the operand order of scale * power * gauss * L
    value = _z_power(z, j - k)
    np.multiply(_CLOSED_SCALE[lo, lo + alpha], value, out=value)
    value *= gauss
    value *= laguerre(lo, alpha, rho)
    np.copyto(value, 0, where=dead)
    return value


@_scalars_as_arrays(complex, "point", indices=dict.fromkeys(("j", "k", "m", "n"), MAX_DEGREE))
def wigner_lg_closed(j: int, k: int, m: int, n: int, point: PhasePoint4) -> complex | np.ndarray:
    """Wigner transform of LG modes as a product of two closed forms.

    W2 of the LG pair with circular quanta (j, k) and (m, n) factors into
    closed forms evaluated at quarter-turn-rotated phase-space arguments.
    A point with array fields gives an array of the broadcast shape,
    scalar fields a ``complex``; index arrays broadcast against the fields.
    """
    u1 = (point.x1 + point.xi2) / SQRT2
    v1 = (point.xi1 - point.x2) / SQRT2
    u2 = (point.x1 - point.xi2) / SQRT2
    v2 = (point.xi1 + point.x2) / SQRT2
    return wigner_hermite_closed(j, m, u1, v1) * wigner_hermite_closed(k, n, u2, v2)


def _diag_closed(j: int, k: int, q0, q) -> float | np.ndarray:
    """``pi**-1 (-1)**(j+k) exp(-q0) L0_j(q0 + q) L0_k(q0 - q)``, real."""
    plus, minus = q0 + q, q0 - q
    gauss, dead = _gaussian(-q0, plus, minus)
    value = (-1.0) ** (j + k) / np.pi * gauss
    value = value * laguerre(j, 0, plus) * laguerre(k, 0, minus)
    np.copyto(value, 0, where=dead)
    return value


@_scalars_as_arrays(float, "point", indices=dict.fromkeys(("j", "k"), MAX_DEGREE))
def wigner_lg_diag(j: int, k: int, point: PhasePoint4) -> float | np.ndarray:
    """Diagonal LG Wigner transform, always real.

    ``pi**-1 (-1)**(j+k) exp(-q0) L0_j(q0 + q2) L0_k(q0 - q2)`` in the
    derived quadratics of the phase-space point. A point with array
    fields gives an array of the broadcast shape; scalar fields a float.
    Index arrays broadcast against the fields.
    """
    return _diag_closed(j, k, point.q0, point.q2)


@_scalars_as_arrays(complex, "point", indices=dict.fromkeys(("j", "k", "m", "n"), MAX_DEGREE))
def wigner_hg_closed(j: int, k: int, m: int, n: int, point: PhasePoint4) -> complex | np.ndarray:
    """Wigner transform of HG modes: a product of closed forms per axis.

    Takes array fields, scalar fields and index arrays as
    :func:`wigner_lg_closed` does.
    """
    return wigner_hermite_closed(j, m, point.x1, point.xi1) * wigner_hermite_closed(
        k, n, point.x2, point.xi2
    )


@_scalars_as_arrays(float, "point", indices=dict.fromkeys(("j", "k"), MAX_DEGREE))
def wigner_hg_diag(j: int, k: int, point: PhasePoint4) -> float | np.ndarray:
    """Diagonal HG Wigner transform: :func:`wigner_lg_diag` with q3 in
    place of q2. Always real; array fields and index arrays give an array."""
    return _diag_closed(j, k, point.q0, point.q3)
