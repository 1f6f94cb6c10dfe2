"""Verification engine: every identity the library implements, bundled
into named suites with per-check tolerances and machine-readable reports.

Each suite draws its sample points from a seeded generator, so a report
is reproducible from ``(suite, seed)``. Each suite runs at one size, its
documented limits. Every check is declared once, in the table
``_SUITES`` at the end of the module: its suite, its name, its position
in the suite and its tolerance. The tolerances are fixed per check from
the quadrature error budget: 1e-10 to 1e-12 where only closed forms and
spectrally accurate quadrature meet, loosened to 1e-6 where the sampled
rotate-plus-FFT grid or the two-dimensional oracle enter. The
intertwining checks take their partials under the integral, so no check
here differences numerically; they keep a 1e-6 gate, and their accuracy
shows as margin. A suite returns its check bodies in table order, and
:func:`run_suite` alone names and times them. Every body returns the
array of deviations it compared, and :func:`_timed` alone reduces them
to a :class:`CheckResult`, so a NaN deviation always fails its check.

Every integral in this module, inner and outer, is a trapezoid sum on a
:meth:`QuadratureSpec.for_degree` grid, sized from the Hermite degree of
its integrand and from nothing else: not a closed form's value, not the
seed itself. An oracle call takes the degree of its mode pair and the
largest frequency it is evaluated at. An outer integral of a product
``conj(f) g``, a Gram or a norm, takes the product rule of
:func:`_product_spec`: both factors vanish past the half-width T of
their degree and have spectra in [-T, T], so the product's spectrum
lies in [-2T, 2T], and the spec for that degree with reach T keeps the
first alias outside it. The rotate-plus-FFT checks sample their fields
on that same product-rule grid of the mode degree, and
``rotfft_parseval`` sums over it and over the transform's output grid.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import beam as _beam
from .modes import (
    ANNIHILATED,
    LadderOp,
    ModeIndex,
    apply_operator_pointwise,
    hg_mode,
    ladder_index_action,
    _lg_modes,
    lg_field,
    lg_mode,
)
from .specfun import _check_int, hermite_function_derivative, hermite_function_table
from .wigner import (
    Grid2D,
    PhasePoint4,
    QuadratureSpec,
    extended_wigner,
    extended_wigner_grid,
    extended_wigner_rotfft,
    wigner1d,
    wigner1d_grid,
    wigner2d,
    wigner_hermite_closed,
    wigner_hg_closed,
    wigner_hg_diag,
    wigner_lg_closed,
    wigner_lg_diag,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "SUITE_CHECKS",
    "SIGMA_SYMBOLS",
    "run_suite",
    "weyl_pairing_check",
]

SQRT2 = np.sqrt(2.0)

#: Each symbol sigma(x, xi) of :func:`weyl_pairing_check` as its terms
#: ``(coeff, power of x, power of xi)``.
_SIGMA_TERMS = {
    "one": ((1.0, 0, 0),),
    "x": ((1.0, 1, 0),),
    "xi": ((1.0, 0, 1),),
    "x2+xi2": ((1.0, 2, 0), (1.0, 0, 2)),
}

#: Symbols accepted by :func:`weyl_pairing_check`.
SIGMA_SYMBOLS = tuple(_SIGMA_TERMS)


def _weyl_name(sigma: str) -> str:
    """The check name of symbol ``sigma``: ``"x2+xi2"`` gives
    ``"weyl_pairing_x2_plus_xi2"``."""
    return "weyl_pairing_" + sigma.replace("+", "_plus_")


def _json_number(value: float) -> float | None:
    """``value``, or None (JSON ``null``) when it is NaN or infinite."""
    return value if math.isfinite(value) else None


@dataclass
class CheckResult:
    """Outcome of one named identity check.

    ``max_abs_err`` is the largest absolute deviation the check compared,
    NaN if any of them is NaN, and ``samples`` is the number of those
    deviations. ``elapsed_ms`` is the wall time of the check's own
    computation; a computation that checks of one suite share is charged
    to the first check that runs it. ``margin``, ``max_abs_err /
    tolerance``, is the share of the tolerance used: a check passes while
    it is at most 1, so a NaN error fails. :meth:`as_dict` gives a NaN or
    infinite error and margin as None, so the JSON report holds ``null``
    there and stays strict JSON.
    """

    name: str
    max_abs_err: float
    tolerance: float
    passed: bool
    samples: int
    elapsed_ms: float

    @property
    def margin(self) -> float:
        return self.max_abs_err / self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_err": _json_number(self.max_abs_err),
            "tolerance": self.tolerance,
            "margin": _json_number(self.margin),
            "passed": self.passed,
            "samples": self.samples,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class SuiteReport:
    """All check results of one suite run, with the seed that produced it."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, allow_nan=False)


def _timed(name: str, tol: float, fn) -> CheckResult:
    """Run the check ``fn``, which returns the array of deviations it
    compared, and reduce them: the one place a check's error, pass and
    sample count are formed."""
    t0 = time.perf_counter()
    dev = np.abs(fn())
    elapsed = (time.perf_counter() - t0) * 1000.0
    # ndarray.max propagates NaN, so a NaN deviation fails the check
    err = float(dev.max())
    return CheckResult(name, err, tol, err <= tol, dev.size, elapsed)


# ---------------------------------------------------------------------------
# shared sampling helpers


def _sized(degree, *freqs) -> QuadratureSpec:
    """Oracle spec for an integrand of ``degree`` in p (m + n for the mode
    pair (m, n)) evaluated at the frequencies in ``freqs``, scalars or
    arrays."""
    reach = max((float(np.max(np.abs(f))) for f in freqs), default=0.0)
    return QuadratureSpec.for_degree(degree, reach)


def _product_spec(degree) -> QuadratureSpec:
    """Spec for an outer integral of ``conj(f) g``, where f and g are
    Hermite expansions of ``degree`` along each axis.

    Both factors vanish past the half-width T of that degree, with
    spectra in [-T, T], so the product's spectrum lies in [-2T, 2T]; the
    spec with reach T has a spacing of at most pi / T, which keeps the
    first alias outside it. Its grid reaches T, so an oracle of that
    degree evaluated across the grid is sized by this same spec.
    """
    return QuadratureSpec.for_degree(degree, QuadratureSpec.for_degree(degree).half_width)


def _h_stack(degrees):
    """Field returning ``h_d(t)`` for every entry ``d`` of an integer array,
    stacked ahead of the shape of ``t``, so one oracle call covers them all."""
    degrees = np.asarray(degrees)
    # the table checks the type and range of the top degree
    top = degrees.max()
    return lambda t: hermite_function_table(top, t)[degrees]


def _dh_stack(degrees):
    """As :func:`_h_stack`, for the derivatives ``h_d'(t)``: one recurrence
    pass per evaluation serves every degree."""
    degrees = np.asarray(degrees)
    return lambda t: hermite_function_derivative(degrees.reshape(degrees.shape + (1,) * np.ndim(t)), t)


def _hg_stack(j, k):
    """Field ``F(u, v)[...] = h_j(u) h_k(v)`` for broadcasting index arrays."""
    fj, fk = _h_stack(j), _h_stack(k)
    return lambda u, v: fj(u) * fk(v)


def _all_pairs(deg: int, trailing: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (m, n) broadcasting to every pair ``m, n <= deg``, as
    ``out[m, n]`` ahead of ``trailing`` more axes: with 2, an index
    argument of a closed form stacks the pairs ahead of a 2-D grid."""
    d = np.arange(deg + 1)
    tail = (1,) * trailing
    return d.reshape((-1, 1) + tail), d.reshape((1, -1) + tail)


def _gram(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram matrix ``sum conj(a) w b`` of the fields in ``stack``.

    Each field spans the trailing ``weights.shape`` axes; the leading axes
    flatten, in row-major order, into the rows and columns of the result.
    """
    rows = stack.reshape(-1, weights.size)
    return (np.conj(rows) * weights.ravel()) @ rows.T


def _draws(rng, count: int, nints: int, high: int, nreals: int):
    """``count`` samples, each ``nints`` integers in [0, high) and then
    ``nreals`` uniforms in [-2, 2], drawn from ``rng`` in that order and
    returned as two arrays of ``count`` rows."""
    draws = [
        (rng.integers(0, high, size=nints), rng.uniform(-2.0, 2.0, size=nreals))
        for _ in range(count)
    ]
    return np.array([i for i, _ in draws]), np.array([r for _, r in draws])


def _superposition_1d(coeffs: np.ndarray):
    """Field of a stack of superpositions: ``out[b] = sum c[b, j] h_j(t[b])``
    for coefficient rows ``c[b]`` and the matching rows ``t[b]`` of ``t``."""
    deg = coeffs.shape[-1] - 1
    return lambda t: np.einsum("bj,jb...->b...", coeffs, hermite_function_table(deg, t))


def _superposition_2d(coeffs: np.ndarray):
    """Field ``sum c[..., j, k] h_j(u) h_k(v)``: the leading axes of
    ``coeffs`` stack ahead of the broadcast shape of ``u`` and ``v``."""
    deg = coeffs.shape[-1] - 1

    def f(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        tu = hermite_function_table(deg, u.ravel())
        tv = hermite_function_table(deg, v.ravel())
        # one matrix product over k, then a sum over j, with no
        # (batch, j, k, points) intermediate
        out = np.einsum("...jn,jn->...n", coeffs @ tv, tu)
        return out.reshape(coeffs.shape[:-2] + u.shape)

    return f


def _random_coeffs(rng, shape) -> np.ndarray:
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------------------
# suites: each returns its check bodies in the order of its row in _SUITES


def _suite_properties(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 1])
    deg = 8

    def hermiticity():
        npairs, npts = 3, 50
        # per pair, in the order of separate draws: f's coefficients, g's, the points
        draws = [
            (_random_coeffs(rng, deg + 1), _random_coeffs(rng, deg + 1), rng.uniform(-2.0, 2.0, (npts, 2)))
            for _ in range(npairs)
        ]
        f_coeffs, g_coeffs, points = map(np.array, zip(*draws))
        f, g = _superposition_1d(f_coeffs), _superposition_1d(g_coeffs)
        x, xi = points[..., 0], points[..., 1]
        # one spec from every pair's frequencies and one stacked call per side
        quad = _sized(2 * deg, xi)
        return wigner1d(f, g, x, xi, quad) - np.conj(wigner1d(g, f, x, xi, quad))

    # W(h_m, h_n) is itself a Hermite expansion of degree m + n along
    # each axis, so the outer integrals take the same rule
    outer = QuadratureSpec.for_degree(2 * deg)
    p_axis, p_w = outer.grid()

    def xi_marginal():
        xs = rng.uniform(-2.0, 2.0, size=4)
        m, n = _all_pairs(deg)
        lhs = wigner1d_grid(_h_stack(m), _h_stack(n), xs, p_axis, _sized(2 * deg, p_axis)) @ p_w
        h = hermite_function_table(deg, xs / SQRT2)
        return lhs - np.sqrt(2 * np.pi) * h[:, None] * h[None, :]

    def x_marginal():
        # five points to xi_marginal's four, so a swap of the two bodies
        # changes both checks' sample counts
        xis = rng.uniform(-2.0, 2.0, size=5)
        m, n = _all_pairs(deg)
        lhs = p_w @ wigner1d_grid(_h_stack(m), _h_stack(n), p_axis, xis, _sized(2 * deg, xis))
        # Fourier transform of each mode is itself times (-i)**degree, so
        # pair (m, n) picks up i**m (-i)**n = i**(m - n)
        phase = 1j ** ((m - n) % 4)
        h = hermite_function_table(deg, xis / SQRT2)
        return lhs - np.sqrt(2 * np.pi) * phase[..., None] * h[:, None] * h[None, :]

    def total_integral():
        m, n = _all_pairs(deg)
        grids = wigner1d_grid(_h_stack(m), _h_stack(n), p_axis, p_axis, _sized(2 * deg, p_axis))
        totals = grids @ p_w @ p_w
        return totals - 2.0 * np.sqrt(np.pi) * np.eye(deg + 1)

    return hermiticity, xi_marginal, x_marginal, total_integral


def _suite_moyal(seed: int) -> tuple:
    deg = 5

    def moyal():
        # W(h_a, h_b) is a Hermite expansion of degree a + b along each axis
        axis, w = _product_spec(2 * deg).grid()
        # row (a, b) holds W(h_a, h_b) flattened, so the weighted Gram
        # matrix of the rows must be the identity on index pairs
        a, b = _all_pairs(deg)
        grids = wigner1d_grid(_h_stack(a), _h_stack(b), axis, axis, _sized(2 * deg, axis))
        gram = _gram(grids, np.outer(w, w))
        return gram - np.eye(len(gram))

    return (moyal,)


def _suite_orthogonality(seed: int) -> tuple:
    def hermite_orthonormality():
        nmax = 12
        p, w = _product_spec(nmax).grid()
        gram = _gram(hermite_function_table(nmax, p), w)
        return gram - np.eye(nmax + 1)

    def lg_orthonormality():
        cap = 4
        # LG(j, k) is a Hermite expansion of degree j + k along each axis
        axis, w = _product_spec(2 * cap).grid()
        gram = _gram(_lg_modes(*_all_pairs(cap, 2), axis[:, None], axis[None, :]), np.outer(w, w))
        return gram - np.eye(len(gram))

    return hermite_orthonormality, lg_orthonormality


#: The (circular, Cartesian) operator pairs whose intertwining is checked.
_INTERTWINE_PAIRS = (
    (LadderOp.APLUSDAG, LadderOp.A1DAG),
    (LadderOp.AMINUSDAG, LadderOp.A2DAG),
    (LadderOp.APLUS, LadderOp.A1),
    (LadderOp.AMINUS, LadderOp.A2),
)


def _transformed_hg(cap: int, ys):
    """Field ``out[j, k] = Wt(h_j (x) h_k)(x, y)`` for every ``j, k <= cap``,
    sized for ``|y| <= max |ys|``, with its partials taken under the
    integral.

    With the compressed arguments u, v = (x +- p)/sqrt2, d/dx moves both
    by 1/sqrt2 and d/dy brings down i p = i (u - v)/sqrt2. Both partial
    integrands are Hermite expansions of degree 2 cap + 1.
    """
    j, k = _all_pairs(cap)
    hj, hk, dj, dk = _h_stack(j), _h_stack(k), _dh_stack(j), _dh_stack(k)
    quad, dquad = _sized(2 * cap, ys), _sized(2 * cap + 1, ys)

    def field(x, y):
        return extended_wigner(lambda u, v: hj(u) * hk(v), x, y, quad)

    field.partial_x = lambda x, y: extended_wigner(
        lambda u, v: (dj(u) * hk(v) + hj(u) * dk(v)) / SQRT2, x, y, dquad
    )
    field.partial_y = lambda x, y: extended_wigner(
        lambda u, v: 1j * (u - v) / SQRT2 * hj(u) * hk(v), x, y, dquad
    )
    return field


def _suite_intertwine(seed: int) -> tuple:
    cap, npts = 4, 50

    def one_pair(tag, circ_op, cart_op):
        rng = np.random.default_rng([seed, 4, tag])
        xs, ys = rng.uniform(-2.0, 2.0, size=(npts, 2)).T
        lhs = apply_operator_pointwise(circ_op, _transformed_hg(cap, ys), xs, ys)
        # index-space action on every HG(j, k); an annihilated mode
        # keeps coefficient 0 and any valid target
        coeff = np.zeros((cap + 1, cap + 1))
        tj, tk = np.zeros_like(coeff, dtype=int), np.zeros_like(coeff, dtype=int)
        for a in range(cap + 1):
            for b in range(cap + 1):
                c, target = ladder_index_action(cart_op, ModeIndex.hg(a, b))
                if target is not ANNIHILATED:
                    coeff[a, b], tj[a, b], tk[a, b] = c, target.first, target.second
        rhs_quad = _sized((tj + tk).max(), ys)
        return lhs - coeff[..., None] * extended_wigner(_hg_stack(tj, tk), xs, ys, rhs_quad)

    return tuple(functools.partial(one_pair, tag, *ops) for tag, ops in enumerate(_INTERTWINE_PAIRS))


def _suite_closedforms(seed: int) -> tuple:
    cap = 8
    xs = np.linspace(-4.0, 4.0, 21)
    mesh_x, mesh_y = xs[:, None], xs[None, :]
    pairs = _all_pairs(cap, 2)

    def closed_vs_quadrature():
        m, n = _all_pairs(cap)
        oracle = wigner1d_grid(_h_stack(m), _h_stack(n), xs, xs, _sized(2 * cap, xs))
        return oracle - wigner_hermite_closed(*pairs, mesh_x, mesh_y)

    def lg_equals_closed():
        return _lg_modes(*pairs, mesh_x, mesh_y) - wigner_hermite_closed(*pairs, mesh_x, mesh_y)

    def hg_to_lg():
        cap2 = 6
        sample = np.linspace(-3.0, 3.0, 11)
        quad = _sized(2 * cap2, sample)
        transformed = extended_wigner_grid(_hg_stack(*_all_pairs(cap2)), sample, sample, quad)
        return transformed - _lg_modes(*_all_pairs(cap2, 2), sample[:, None], sample[None, :])

    def fixed_point():
        transformed = extended_wigner_grid(_hg_stack(0, 0), xs, xs, _sized(0, xs))
        return transformed - hg_mode(ModeIndex.hg(0, 0), mesh_x, mesh_y)

    return closed_vs_quadrature, lg_equals_closed, hg_to_lg, fixed_point


def _suite_product_theorem(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 6])

    def product(count, field, closed, degree):
        """Oracle against closed form at ``count`` drawn index quadruples and
        points; one ``wigner2d`` call per point, since it takes one point,
        and one closed-form call with per-point indices."""
        indices, coords = _draws(rng, count, 4, 4, 4)
        oracle = []
        for (j, k, m, n), point in zip(indices.tolist(), coords):
            pt = PhasePoint4(*point)
            quad = _sized(degree(j, k, m, n), pt.xi1, pt.xi2)
            oracle.append(wigner2d(field(j, k), field(m, n), pt, quad))
        return np.array(oracle) - closed(*indices.T, PhasePoint4(*coords.T))

    def diagonal(closed, diag):
        """Closed form at (j, k, j, k) against the diagonal form at drawn
        pairs and points; one call of each, with per-point indices."""
        count, cap = 100, 6
        (j, k), coords = (a.T for a in _draws(rng, count, 2, cap + 1, 4))
        pt = PhasePoint4(*coords)
        return closed(j, k, j, k, pt) - diag(j, k, pt)

    lg = (lambda j, k: lg_field(ModeIndex.lg(j, k)), wigner_lg_closed, lambda *q: sum(q))
    hg = (_hg_stack, wigner_hg_closed, lambda j, k, m, n: max(j + m, k + n))
    return (
        lambda: product(32, *lg),
        lambda: product(8, *hg),
        lambda: diagonal(wigner_lg_closed, wigner_lg_diag),
        lambda: diagonal(wigner_hg_closed, wigner_hg_diag),
    )


def _suite_polarization(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 7])
    cap, npts = 4, 20

    def polarization():
        (n_plus, n_minus), (xs, ys) = (a.T for a in _draws(rng, npts, 2, cap + 1, 2))
        points = np.arange(npts)
        factors = np.array([1.0, -1.0, -1j, 1j])[:, None, None]

        def combos(t):
            # h_{n+} + c h_{n-} at each point's own degrees, for every factor c
            table = hermite_function_table(cap, t)
            return table[n_plus, points] + factors * table[n_minus, points]

        quad = _sized(2 * max(n_plus.max(), n_minus.max()), ys)
        total = np.array([0.25, -0.25, 0.25j, -0.25j]) @ wigner1d(combos, combos, xs, ys, quad)
        return total - _lg_modes(n_plus, n_minus, xs, ys)

    return (polarization,)


def _suite_unitarity(seed: int) -> tuple:
    rng = np.random.default_rng([seed, 8])

    def inner_products():
        nfuncs, deg = 10, 5
        # Wt maps HG(j, k) to LG(j, k), of degree j + k along each axis
        axis, w = _product_spec(2 * deg).grid()
        w2 = np.outer(w, w)
        # one draw per function, in the order of separate draws
        f = _superposition_2d(
            np.array([_random_coeffs(rng, (deg + 1, deg + 1)) for _ in range(nfuncs)])
        )
        ip_in = _gram(f(axis[:, None], axis[None, :]), w2)
        ip_out = _gram(extended_wigner_grid(f, axis, axis, _sized(2 * deg, axis)), w2)
        return ip_in - ip_out

    def sized_grid(field, degree):
        # the product rule's window [-T, T] and spacing <= pi / T: the
        # samples vanish past T, and the output's frequency axis reaches
        # pi / dx >= T, which covers the LG mode's support
        spec = _product_spec(degree)
        axis = (-spec.half_width, spec.half_width, spec.nodes)
        return Grid2D.sample(field, axis, axis)

    def rotfft_hg_to_lg(*orders):
        devs = []
        for j, k in orders:
            # HG(j, k) maps to LG(j, k), of degree j + k along each axis
            out = extended_wigner_rotfft(sized_grid(_hg_stack(j, k), j + k))
            ref = lg_mode(ModeIndex.lg(j, k), out.x_nodes()[:, None], out.y_nodes()[None, :])
            devs.append((out.values - ref).ravel())
        return np.concatenate(devs)

    def rotfft_parseval():
        # coefficients up to h_3 h_3, so of degree 6
        f = _superposition_2d(_random_coeffs(rng, (4, 4)))
        grid = sized_grid(f, 6)
        out = extended_wigner_rotfft(grid)

        def norm(g):
            dx = (g.x_axis[1] - g.x_axis[0]) / (g.x_axis[2] - 1)
            dy = (g.y_axis[1] - g.y_axis[0]) / (g.y_axis[2] - 1)
            return np.sqrt(np.sum(np.abs(g.values) ** 2) * dx * dy)

        return norm(grid) - norm(out)

    return (
        inner_products,
        lambda: rotfft_hg_to_lg((0, 0)),
        # orders 1 to 64, up to MAX_DEGREE along either axis
        lambda: rotfft_hg_to_lg((1, 0), (8, 8), (32, 32), (64, 0), (0, 64)),
        rotfft_parseval,
    )


# ---------------------------------------------------------------------------
# quantization pairing


def _weyl_pairings(pairs, quad: QuadratureSpec | None = None):
    """Per symbol, the left and right pairing of each ``(f, g)`` degree
    pair, and the Kronecker delta of the degrees.

    Left pipeline: triple trapezoid quadrature of the quantization kernel
    applied to mode g, paired with mode f. Organized per frequency node
    with each term of the symbol (see ``_SIGMA_TERMS``) expanded into
    separable ones: the kernel evaluates the symbol at X = (x + y)/sqrt2,
    and X**a is the binomial sum of comb(a, i) x**i y**(a - i) /
    sqrt(2**a). The work is a few matrix products rather than an N**3
    loop; the values are the same sums reassociated. Right pipeline: the
    symbol integrated against the quadrature Wigner transform of the
    pair. Every pair shares one
    moment computation and one batched oracle call.

    One spec sizes the kernel, the frequency sum, the phase-space grid
    and the oracle across it. The kernel moments of ``x**m h_f``
    (m <= 2), their products with the symbol and the symbol times the
    Wigner transform are Hermite expansions of degree at most
    d = f + g + 2, so ``quad`` defaults to the product rule of
    :func:`_product_spec`: each factor vanishes past the half-width T of
    d with its spectrum in [-T, T], a product's spectrum lies in
    [-2T, 2T], and ``for_degree(d, T)``, a spacing of at most pi / T,
    keeps the first alias outside it. Its reach T also covers every
    frequency the grid evaluates the moments and the oracle at.
    """
    # one array per side, so a bool or float degree keeps its type
    f_deg = np.array([f for f, _ in pairs])
    g_deg = np.array([g for _, g in pairs])
    if quad is None:
        quad = _product_spec(f_deg.max() + g_deg.max() + 2)
    f_h, g_h = _h_stack(f_deg), _h_stack(g_deg)
    x, w = quad.grid()
    phases = np.exp(1j * np.outer(x, x) / SQRT2)
    f_vals, g_vals = f_h(x), g_h(x)
    f_mom = {m: (w * f_vals * x**m) @ phases for m in (0, 1, 2)}
    g_mom = {m: (w * g_vals * x**m) @ np.conj(phases) for m in (0, 1, 2)}
    wig = wigner1d_grid(f_h, g_h, x, x, quad)

    pairings = {}
    for sigma, terms in _SIGMA_TERMS.items():
        left, sig = 0.0, 0.0
        for c, a, b in terms:
            for i in range(a, -1, -1):
                coeff = c * math.comb(a, i) / math.sqrt(2**a)
                left = left + coeff * np.sum(w * x**b * f_mom[i] * g_mom[a - i], axis=-1)
            sig = sig + c * x[:, None] ** a * x[None, :] ** b
        left *= 2.0**-1.5 / np.pi
        right = 0.5 / np.sqrt(np.pi) * (w @ (sig * wig) @ w)
        pairings[sigma] = (left, right)
    return pairings, (f_deg == g_deg).astype(float)


def _weyl_errors(pairs) -> dict[str, np.ndarray]:
    """Per symbol, the distance between the two pairings of each
    ``(f, g)`` degree pair (see :func:`_weyl_pairings`); for ``"one"`` it
    also covers each side's distance from the Kronecker delta of the
    degrees, since quantizing the constant symbol gives the identity."""
    pairings, delta = _weyl_pairings(pairs)
    errors = {}
    for sigma, (left, right) in pairings.items():
        err = np.abs(left - right)
        if sigma == "one":
            err = np.max([err, np.abs(left - delta), np.abs(right - delta)], axis=0)
        errors[sigma] = err
    return errors


def weyl_pairing_check(sigma: str, f: int, g: int) -> CheckResult:
    """Compare the two quantization-pairing pipelines for one symbol.

    The left pipeline quantizes ``sigma`` by direct kernel quadrature and
    takes the inner product with mode ``f``; the right pipeline pairs
    ``sigma`` against the Wigner transform of the mode pair. For
    ``sigma="one"`` both sides must also reproduce the Kronecker delta of
    the degrees, since quantizing the constant symbol gives the identity.
    The kernel and the oracle use the spec sized from the two degrees,
    and the tolerance is the weyl suite's for ``sigma``.
    """
    if sigma not in SIGMA_SYMBOLS:
        raise ValueError(f"unsupported symbol {sigma!r}; expected one of {SIGMA_SYMBOLS}")
    name = _weyl_name(sigma)
    return _timed(f"{name}_f{f}_g{g}", _SUITES["weyl"][1][name], lambda: _weyl_errors([(f, g)])[sigma])


def _suite_weyl(seed: int) -> tuple:
    cap = 4
    pairs = [(f, g) for f in range(cap + 1) for g in range(cap + 1)]
    # the four checks share this one computation, charged to the first
    errors = functools.cache(lambda: _weyl_errors(pairs))
    return tuple(lambda sigma=sigma: errors()[sigma] for sigma in SIGMA_SYMBOLS)


_BEAM_CASES = ((0, 0), (1, 2), (2, -1), (0, 3), (2, 0))


def _suite_beam(seed: int) -> tuple:
    params = _beam.BeamParams(w0=1.3, k=9.0)

    def waist_plane():
        axis = np.linspace(-4.0 * params.w0, 4.0 * params.w0, 81)
        xg, yg = axis[:, None], axis[None, :]
        r = np.hypot(xg, yg)
        phi = np.arctan2(yg, xg)
        scale = SQRT2 / params.w0
        spreads = []
        for p, ell in _BEAM_CASES:
            field_vals = _beam.beam_field(_beam.BeamIndex(p, ell), params, r, phi, 0.0)
            if ell >= 0:
                mode = ModeIndex.lg(p, p + ell)
            else:
                mode = ModeIndex.lg(p - ell, p)
            ref = lg_mode(mode, xg * scale, yg * scale)
            mask = np.abs(ref) > 1e-3 * np.abs(ref).max()
            ratio = field_vals[mask] / ref[mask]
            spreads.append(np.std(ratio))
        return np.array(spreads)

    def gouy():
        zr = params.zR
        plus = _beam.beam_geometry(params, zr).gouy - np.pi / 4
        minus = _beam.beam_geometry(params, -zr).gouy + np.pi / 4
        return np.array([plus, minus])

    def norm_constant():
        dev = []
        heights = (0.0, params.zR, 3.0 * params.zR)
        for p, ell in _BEAM_CASES:
            # in sqrt2 r / w(z) the profile is an LG mode of degree
            # 2p + |ell| along each axis; the chirp cancels in |field|**2
            u, w = _product_spec(2 * p + abs(ell)).grid()
            for z in heights:
                scale = _beam.beam_geometry(params, z).w / SQRT2
                xg, yg = scale * u[:, None], scale * u[None, :]
                vals = _beam.beam_field(
                    _beam.BeamIndex(p, ell), params, np.hypot(xg, yg), np.arctan2(yg, xg), z
                )
                total = np.sum(np.abs(vals) ** 2 * np.outer(w, w)) * scale**2
                dev.append(total - 1.0)
        return np.array(dev)

    return waist_plane, gouy, norm_constant


# ---------------------------------------------------------------------------
# registry


#: Every check, declared once: per suite, its function and its checks in
#: order, each with its tolerance. A suite returns one body per check, in
#: this order, and run_suite binds each body to its name and tolerance.
_SUITES = {
    "properties": (
        _suite_properties,
        {"hermiticity": 1e-12, "xi_marginal": 1e-8, "x_marginal": 1e-8, "total_integral": 1e-7},
    ),
    "moyal": (_suite_moyal, {"moyal_kronecker": 1e-8}),
    "orthogonality": (
        _suite_orthogonality,
        {"hermite_orthonormality": 1e-10, "lg_mode_orthonormality": 1e-8},
    ),
    "intertwine": (
        _suite_intertwine,
        {f"intertwine_{circ.value}_{cart.value}": 1e-6 for circ, cart in _INTERTWINE_PAIRS},
    ),
    "closedforms": (
        _suite_closedforms,
        {
            "hermite_closed_vs_quadrature": 1e-8,
            "lg_mode_equals_hermite_closed": 1e-12,
            "extended_wigner_maps_hg_to_lg": 1e-9,
            "fixed_point_quadrature": 1e-10,
        },
    ),
    "product_theorem": (
        _suite_product_theorem,
        {
            "lg_product_vs_quadrature2d": 1e-6,
            "hg_product_vs_quadrature2d": 1e-6,
            "lg_diag_consistency": 1e-12,
            "hg_diag_consistency": 1e-12,
        },
    ),
    "polarization": (_suite_polarization, {"polarization_identity": 1e-8}),
    "unitarity": (
        _suite_unitarity,
        {
            "wtilde_inner_products": 1e-6,
            "rotfft_fixed_point": 1e-6,
            "rotfft_maps_hg_to_lg": 1e-5,
            "rotfft_parseval": 1e-6,
        },
    ),
    "weyl": (_suite_weyl, {_weyl_name(sigma): 1e-6 for sigma in SIGMA_SYMBOLS}),
    "beam": (
        _suite_beam,
        {"waist_plane_matches_lg": 1e-8, "gouy_at_rayleigh": 1e-12, "transverse_norm_constant": 1e-8},
    ),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)

#: The checks each suite emits, in order, read from ``_SUITES`` (where
#: their tolerances live); pinned again by the test manifest.
SUITE_CHECKS = {suite: tuple(checks) for suite, (_, checks) in _SUITES.items()}


def run_suite(name: str, seed: int = 0, budget: str = "full") -> SuiteReport:
    """Run one verification suite (or ``"all"``) and return its report.

    Deterministic given ``(name, seed)``: the same call reproduces the
    same sample points and therefore the same errors. ``seed`` is a
    non-negative integer. Every suite runs at one size, so ``budget``
    selects nothing: it accepts only ``"full"`` and refuses any other
    value, and stays only because the benchmark's ``verify_full``
    workload passes ``budget="full"``. It goes when that argument does.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite name {name!r}; expected one of {SUITE_NAMES}")
    _check_int(seed, "seed", 0)
    if budget != "full":
        raise ValueError(f"unknown budget {budget!r}; the one budget is 'full'")
    targets = tuple(_SUITES) if name == "all" else (name,)
    checks: list[CheckResult] = []
    for target in targets:
        suite, tolerances = _SUITES[target]
        # the bodies run in table order; a wrong count raises
        for (check, tol), body in zip(tolerances.items(), suite(seed), strict=True):
            checks.append(_timed(check, tol, body))
    return SuiteReport(
        suite=name,
        checks=checks,
        passed=all(c.passed for c in checks),
        seed=int(seed),
    )
