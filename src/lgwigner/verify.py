"""Verification engine: every identity the library implements, bundled
into named suites with per-check tolerances and machine-readable reports.

Each suite draws its sample points from a seeded generator, so a report
is reproducible from ``(suite, seed)``. There is one budget, ``full``:
each suite runs at one size, its documented limits. Tolerances are
fixed per check from the quadrature error budget: 1e-10 to 1e-12 where
only closed forms and spectrally accurate quadrature meet, loosened to
1e-6 where finite differences, the sampled rotate-plus-FFT grid, or the
two-dimensional oracle enter.

Every integral in this module, inner and outer, is a trapezoid sum on a
:meth:`QuadratureSpec.for_degree` grid, sized from the Hermite degree of
its integrand and from nothing else: not a closed form's value, not the
seed itself. An oracle call takes the degree of its mode pair and the
largest frequency it is evaluated at. An outer integral of a product
``conj(f) g``, a Gram or a norm, takes the product rule of
:func:`_product_spec`: both factors vanish past the half-width T of
their degree and have spectra in [-T, T], so the product's spectrum
lies in [-2T, 2T], and the spec for that degree with reach T keeps the
first alias outside it. The one sum on another grid is
``rotfft_parseval``'s, over the rotate-plus-FFT sample grid itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import beam as _beam
from .modes import (
    ANNIHILATED,
    DEFAULT_FD_STEP,
    LadderOp,
    ModeIndex,
    apply_operator_pointwise,
    hg_mode,
    ladder_index_action,
    lg_field,
    lg_mode,
)
from .specfun import hermite_function_table
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

#: Symbols accepted by :func:`weyl_pairing_check`.
SIGMA_SYMBOLS = ("one", "x", "xi", "x2+xi2")

_SIGMA_TAGS = {"one": "one", "x": "x", "xi": "xi", "x2+xi2": "x2_plus_xi2"}


@dataclass
class CheckResult:
    """Outcome of one named identity check.

    ``elapsed_ms`` is the wall time of the computation behind the check.
    Checks of one suite may share a computation; each of them then
    reports the full wall time of that shared computation. ``margin``,
    ``max_abs_err / tolerance``, is the share of the tolerance used: a
    check passes while it is at most 1.
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
            "max_abs_err": self.max_abs_err,
            "tolerance": self.tolerance,
            "margin": self.margin,
            "passed": self.passed,
            "samples": self.samples,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class SuiteReport:
    """All check results of one suite run, with the seed that produced it
    and the one budget, ``"full"``, that it ran at."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True
    seed: int = 0
    budget: str = "full"

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "budget": self.budget,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _timed(name: str, tol: float, fn) -> CheckResult:
    t0 = time.perf_counter()
    err, samples = fn()
    elapsed = (time.perf_counter() - t0) * 1000.0
    err = float(err)
    return CheckResult(name, err, tol, err <= tol, int(samples), elapsed)


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


def _hg_stack(j, k):
    """Field ``F(u, v)[...] = h_j(u) h_k(v)`` for broadcasting index arrays."""
    fj, fk = _h_stack(j), _h_stack(k)
    return lambda u, v: fj(u) * fk(v)


def _all_pairs(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (m, n) broadcasting to every pair ``m, n <= deg``."""
    d = np.arange(deg + 1)
    return d[:, None], d[None, :]


def _pair_stack(fn, cap: int) -> np.ndarray:
    """``fn(j, k)`` for every ``j, k <= cap``, stacked as ``out[j, k]``."""
    d = range(cap + 1)
    return np.array([[fn(j, k) for k in d] for j in d])


def _lg_stack(cap: int, x, y) -> np.ndarray:
    """``lg_mode`` of every LG(j, k), ``j, k <= cap``, at ``(x, y)``, stacked
    as ``out[j, k]`` ahead of the broadcast shape of the points."""
    return _pair_stack(lambda j, k: lg_mode(ModeIndex.lg(j, k), x, y), cap)


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
        # one contraction, with no (batch, j, k, points) intermediate
        out = np.einsum("...jk,jn,kn->...n", coeffs, tu, tv)
        return out.reshape(coeffs.shape[:-2] + u.shape)

    return f


def _random_coeffs(rng, shape) -> np.ndarray:
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------------------
# suites


def _suite_properties(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 1])
    deg = 8
    checks = []

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
        err = np.abs(wigner1d(f, g, x, xi, quad) - np.conj(wigner1d(g, f, x, xi, quad)))
        return err.max(), npairs * npts

    checks.append(_timed("hermiticity", 1e-12, hermiticity))

    # W(h_m, h_n) is itself a Hermite expansion of degree m + n along
    # each axis, so the outer integrals take the same rule
    outer = QuadratureSpec.for_degree(2 * deg)
    p_axis, p_w = outer.grid()

    def xi_marginal():
        xs = rng.uniform(-2.0, 2.0, size=4)
        m, n = _all_pairs(deg)
        lhs = wigner1d_grid(_h_stack(m), _h_stack(n), xs, p_axis, _sized(2 * deg, p_axis)) @ p_w
        h = hermite_function_table(deg, xs / SQRT2)
        rhs = np.sqrt(2 * np.pi) * h[:, None] * h[None, :]
        return np.abs(lhs - rhs).max(), (deg + 1) ** 2 * len(xs)

    checks.append(_timed("xi_marginal", 1e-8, xi_marginal))

    def x_marginal():
        xis = rng.uniform(-2.0, 2.0, size=4)
        m, n = _all_pairs(deg)
        lhs = p_w @ wigner1d_grid(_h_stack(m), _h_stack(n), p_axis, xis, _sized(2 * deg, xis))
        # Fourier transform of each mode is itself times (-i)**degree, so
        # pair (m, n) picks up i**m (-i)**n = i**(m - n)
        phase = 1j ** ((m - n) % 4)
        h = hermite_function_table(deg, xis / SQRT2)
        rhs = np.sqrt(2 * np.pi) * phase[..., None] * h[:, None] * h[None, :]
        return np.abs(lhs - rhs).max(), (deg + 1) ** 2 * len(xis)

    checks.append(_timed("x_marginal", 1e-8, x_marginal))

    def total_integral():
        m, n = _all_pairs(deg)
        grids = wigner1d_grid(_h_stack(m), _h_stack(n), p_axis, p_axis, _sized(2 * deg, p_axis))
        totals = np.einsum("i,mnij,j->mn", p_w, grids, p_w)
        return np.abs(totals - 2.0 * np.sqrt(np.pi) * np.eye(deg + 1)).max(), (deg + 1) ** 2

    checks.append(_timed("total_integral", 1e-7, total_integral))
    return checks


def _suite_moyal(seed: int) -> list[CheckResult]:
    deg = 5

    def moyal():
        # W(h_a, h_b) is a Hermite expansion of degree a + b along each axis
        axis, w = _product_spec(2 * deg).grid()
        # row (a, b) holds W(h_a, h_b) flattened, so the weighted Gram
        # matrix of the rows must be the identity on index pairs
        a, b = _all_pairs(deg)
        grids = wigner1d_grid(_h_stack(a), _h_stack(b), axis, axis, _sized(2 * deg, axis))
        gram = _gram(grids, np.outer(w, w))
        return np.abs(gram - np.eye(len(gram))).max(), len(gram) ** 2

    return [_timed("moyal_kronecker", 1e-8, moyal)]


def _suite_orthogonality(seed: int) -> list[CheckResult]:
    checks = []

    def hermite_orthonormality():
        nmax = 12
        p, w = _product_spec(nmax).grid()
        gram = _gram(hermite_function_table(nmax, p), w)
        return np.abs(gram - np.eye(nmax + 1)).max(), (nmax + 1) ** 2

    checks.append(_timed("hermite_orthonormality", 1e-10, hermite_orthonormality))

    def lg_orthonormality():
        cap = 4
        # LG(j, k) is a Hermite expansion of degree j + k along each axis
        axis, w = _product_spec(2 * cap).grid()
        gram = _gram(_lg_stack(cap, axis[:, None], axis[None, :]), np.outer(w, w))
        return np.abs(gram - np.eye(len(gram))).max(), len(gram) ** 2

    checks.append(_timed("lg_mode_orthonormality", 1e-8, lg_orthonormality))
    return checks


_INTERTWINE_PAIRS = (
    ("intertwine_Aplusdag_a1dag", LadderOp.APLUSDAG, LadderOp.A1DAG),
    ("intertwine_Aminusdag_a2dag", LadderOp.AMINUSDAG, LadderOp.A2DAG),
    ("intertwine_Aplus_a1", LadderOp.APLUS, LadderOp.A1),
    ("intertwine_Aminus_a2", LadderOp.AMINUS, LadderOp.A2),
)


def _suite_intertwine(seed: int) -> list[CheckResult]:
    cap, npts = 4, 50
    hg = _hg_stack(*_all_pairs(cap))
    checks = []
    for tag, (name, circ_op, cart_op) in enumerate(_INTERTWINE_PAIRS):

        def one_pair(circ_op=circ_op, cart_op=cart_op, tag=tag):
            rng = np.random.default_rng([seed, 4, tag])
            xs, ys = rng.uniform(-2.0, 2.0, size=(npts, 2)).T
            # the central differences also evaluate at y +- step
            quad = _sized(2 * cap, np.abs(ys) + DEFAULT_FD_STEP)
            transformed = lambda x, y: extended_wigner(hg, x, y, quad)
            lhs = apply_operator_pointwise(circ_op, transformed, xs, ys)
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
            rhs = coeff[..., None] * extended_wigner(_hg_stack(tj, tk), xs, ys, rhs_quad)
            return np.abs(lhs - rhs).max(), (cap + 1) ** 2 * npts

        checks.append(_timed(name, 1e-6, one_pair))
    return checks


def _suite_closedforms(seed: int) -> list[CheckResult]:
    cap = 8
    xs = np.linspace(-4.0, 4.0, 21)
    mesh_x, mesh_y = xs[:, None], xs[None, :]
    checks = []

    def hermite_closed():
        return _pair_stack(lambda j, k: wigner_hermite_closed(j, k, mesh_x, mesh_y), cap)

    def closed_vs_quadrature():
        m, n = _all_pairs(cap)
        quad_grids = wigner1d_grid(_h_stack(m), _h_stack(n), xs, xs, _sized(2 * cap, xs))
        return np.abs(quad_grids - hermite_closed()).max(), (cap + 1) ** 2 * xs.size**2

    checks.append(_timed("hermite_closed_vs_quadrature", 1e-8, closed_vs_quadrature))

    def lg_equals_closed():
        lg = _lg_stack(cap, mesh_x, mesh_y)
        return np.abs(lg - hermite_closed()).max(), (cap + 1) ** 2 * xs.size**2

    checks.append(_timed("lg_mode_equals_hermite_closed", 1e-12, lg_equals_closed))

    def hg_to_lg():
        cap2 = 6
        sample = np.linspace(-3.0, 3.0, 11)
        quad = _sized(2 * cap2, sample)
        transformed = extended_wigner_grid(_hg_stack(*_all_pairs(cap2)), sample, sample, quad)
        reference = _lg_stack(cap2, sample[:, None], sample[None, :])
        return np.abs(transformed - reference).max(), (cap2 + 1) ** 2 * sample.size**2

    checks.append(_timed("extended_wigner_maps_hg_to_lg", 1e-9, hg_to_lg))

    def fixed_point():
        transformed = extended_wigner_grid(_hg_stack(0, 0), xs, xs, _sized(0, xs))
        reference = hg_mode(ModeIndex.hg(0, 0), mesh_x, mesh_y)
        return np.abs(transformed - reference).max(), xs.size**2

    checks.append(_timed("fixed_point_quadrature", 1e-10, fixed_point))
    return checks


def _suite_product_theorem(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 6])

    def product(count, field, closed, degree):
        """Oracle against closed form at ``count`` drawn index quadruples and
        points; one ``wigner2d`` call per point, since it takes one point."""
        indices, coords = _draws(rng, count, 4, 4, 4)
        worst = 0.0
        for (j, k, m, n), point in zip(indices.tolist(), coords):
            pt = PhasePoint4(*point)
            quad = _sized(degree(j, k, m, n), pt.xi1, pt.xi2)
            oracle = wigner2d(field(j, k), field(m, n), pt, quad)
            worst = max(worst, abs(oracle - closed(j, k, m, n, pt)))
        return worst, count

    def diagonal(closed, diag):
        """Closed form at (j, k, j, k) against the diagonal form at drawn
        pairs and points; one array call per drawn pair."""
        count, cap = 100, 6
        indices, coords = _draws(rng, count, 2, cap + 1, 4)
        err = np.empty(count)
        for j, k in np.unique(indices, axis=0).tolist():
            rows = (indices == (j, k)).all(axis=1)
            pt = PhasePoint4(*coords[rows].T)
            err[rows] = np.abs(closed(j, k, j, k, pt) - diag(j, k, pt))
        return err.max(), count

    lg = (lambda j, k: lg_field(ModeIndex.lg(j, k)), wigner_lg_closed, lambda *q: sum(q))
    hg = (_hg_stack, wigner_hg_closed, lambda j, k, m, n: max(j + m, k + n))
    return [
        _timed("lg_product_vs_quadrature2d", 1e-6, lambda: product(32, *lg)),
        _timed("hg_product_vs_quadrature2d", 1e-6, lambda: product(8, *hg)),
        _timed("lg_diag_consistency", 1e-12, lambda: diagonal(wigner_lg_closed, wigner_lg_diag)),
        _timed("hg_diag_consistency", 1e-12, lambda: diagonal(wigner_hg_closed, wigner_hg_diag)),
    ]


def _suite_polarization(seed: int) -> list[CheckResult]:
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
        reference = _lg_stack(cap, xs, ys)[n_plus, n_minus, points]
        return np.abs(total - reference).max(), npts

    return [_timed("polarization_identity", 1e-8, polarization)]


def _suite_unitarity(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 8])
    checks = []

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
        return np.abs(ip_in - ip_out).max(), nfuncs**2

    checks.append(_timed("wtilde_inner_products", 1e-6, inner_products))

    def rotfft_hg_to_lg(j, k):
        grid = Grid2D.sample(_hg_stack(j, k), (-8.0, 8.0, 256), (-8.0, 8.0, 256))
        out = extended_wigner_rotfft(grid)
        ref = lg_mode(ModeIndex.lg(j, k), out.x_nodes()[:, None], out.y_nodes()[None, :])
        return np.abs(out.values - ref).max(), out.values.size

    checks.append(_timed("rotfft_fixed_point", 1e-6, lambda: rotfft_hg_to_lg(0, 0)))
    checks.append(_timed("rotfft_maps_hg_to_lg", 1e-5, lambda: rotfft_hg_to_lg(1, 0)))

    def rotfft_parseval():
        f = _superposition_2d(_random_coeffs(rng, (4, 4)))
        grid = Grid2D.sample(f, (-8.0, 8.0, 320), (-8.0, 8.0, 320))
        out = extended_wigner_rotfft(grid)

        def norm(g):
            dx = (g.x_axis[1] - g.x_axis[0]) / (g.x_axis[2] - 1)
            dy = (g.y_axis[1] - g.y_axis[0]) / (g.y_axis[2] - 1)
            return np.sqrt(np.sum(np.abs(g.values) ** 2) * dx * dy)

        return abs(norm(grid) - norm(out)), grid.values.size

    checks.append(_timed("rotfft_parseval", 1e-6, rotfft_parseval))
    return checks


# ---------------------------------------------------------------------------
# quantization pairing


def _weyl_sigma_terms(sigma: str, xi: np.ndarray):
    """Separable expansion of sigma((x+y)/sqrt2, xi) into terms of the
    form coeff * phi(xi) * x**mx * y**my."""
    ones = np.ones_like(xi)
    if sigma == "one":
        return [(ones, 0, 0, 1.0)]
    if sigma == "x":
        return [(ones, 1, 0, 1.0 / SQRT2), (ones, 0, 1, 1.0 / SQRT2)]
    if sigma == "xi":
        return [(xi, 0, 0, 1.0)]
    if sigma == "x2+xi2":
        return [(ones, 2, 0, 0.5), (ones, 1, 1, 1.0), (ones, 0, 2, 0.5), (xi * xi, 0, 0, 1.0)]
    raise ValueError(f"unsupported symbol {sigma!r}; expected one of {SIGMA_SYMBOLS}")


def _weyl_sigma_grid(sigma: str, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    if sigma == "one":
        return np.ones((x.size, xi.size))
    if sigma == "x":
        return np.broadcast_to(x[:, None], (x.size, xi.size))
    if sigma == "xi":
        return np.broadcast_to(xi[None, :], (x.size, xi.size))
    if sigma == "x2+xi2":
        return x[:, None] ** 2 + xi[None, :] ** 2
    raise ValueError(f"unsupported symbol {sigma!r}; expected one of {SIGMA_SYMBOLS}")


def _weyl_pairings(pairs, quad: QuadratureSpec | None = None):
    """Per symbol, the left and right pairing of each ``(f, g)`` degree
    pair, and the Kronecker delta of the degrees.

    Left pipeline: triple trapezoid quadrature of the quantization kernel
    applied to mode g, paired with mode f. Organized per frequency node
    with the polynomial symbol expanded into separable terms, so the work
    is a few matrix products rather than an N**3 loop; the values are the
    same sums reassociated. Right pipeline: the symbol integrated against
    the quadrature Wigner transform of the pair. Every pair shares one
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
    for sigma in SIGMA_SYMBOLS:
        left = 0.0
        for phi, mf, mg, coeff in _weyl_sigma_terms(sigma, x):
            left = left + coeff * np.sum(w * phi * f_mom[mf] * g_mom[mg], axis=-1)
        left *= 2.0**-1.5 / np.pi
        sig = _weyl_sigma_grid(sigma, x, x)
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
    The kernel and the oracle use the spec sized from the two degrees.
    """
    if sigma not in SIGMA_SYMBOLS:
        raise ValueError(f"unsupported symbol {sigma!r}; expected one of {SIGMA_SYMBOLS}")

    def compute():
        return _weyl_errors([(f, g)])[sigma][0], 1

    return _timed(f"weyl_pairing_{_SIGMA_TAGS[sigma]}_f{f}_g{g}", 1e-6, compute)


def _suite_weyl(seed: int) -> list[CheckResult]:
    cap = 4
    pairs = [(f, g) for f in range(cap + 1) for g in range(cap + 1)]
    t0 = time.perf_counter()
    errors = _weyl_errors(pairs)
    # the four checks share this one computation; each reports all of it
    elapsed = (time.perf_counter() - t0) * 1000.0
    results = []
    for sigma in SIGMA_SYMBOLS:
        err = float(errors[sigma].max())
        name = f"weyl_pairing_{_SIGMA_TAGS[sigma]}"
        results.append(CheckResult(name, err, 1e-6, err <= 1e-6, len(pairs), elapsed))
    return results


_BEAM_CASES = ((0, 0), (1, 2), (2, -1), (0, 3), (2, 0))


def _suite_beam(seed: int) -> list[CheckResult]:
    params = _beam.BeamParams(w0=1.3, k=9.0)
    checks = []

    def waist_plane():
        axis = np.linspace(-4.0 * params.w0, 4.0 * params.w0, 81)
        xg, yg = axis[:, None], axis[None, :]
        r = np.hypot(xg, yg)
        phi = np.arctan2(yg, xg)
        scale = SQRT2 / params.w0
        worst = 0.0
        for p, ell in _BEAM_CASES:
            field_vals = _beam.beam_field(_beam.BeamIndex(p, ell), params, r, phi, 0.0)
            if ell >= 0:
                mode = ModeIndex.lg(p, p + ell)
            else:
                mode = ModeIndex.lg(p - ell, p)
            ref = lg_mode(mode, xg * scale, yg * scale)
            mask = np.abs(ref) > 1e-3 * np.abs(ref).max()
            ratio = field_vals[mask] / ref[mask]
            worst = max(worst, float(np.std(ratio)))
        return worst, len(_BEAM_CASES)

    checks.append(_timed("waist_plane_matches_lg", 1e-8, waist_plane))

    def gouy():
        zr = params.zR
        plus = abs(_beam.beam_geometry(params, zr).gouy - np.pi / 4)
        minus = abs(_beam.beam_geometry(params, -zr).gouy + np.pi / 4)
        return max(plus, minus), 2

    checks.append(_timed("gouy_at_rayleigh", 1e-12, gouy))

    def norm_constant():
        worst = 0.0
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
                worst = max(worst, abs(total - 1.0))
        return worst, len(_BEAM_CASES) * len(heights)

    checks.append(_timed("transverse_norm_constant", 1e-8, norm_constant))
    return checks


# ---------------------------------------------------------------------------
# registry


_SUITES = {
    "properties": _suite_properties,
    "moyal": _suite_moyal,
    "orthogonality": _suite_orthogonality,
    "intertwine": _suite_intertwine,
    "closedforms": _suite_closedforms,
    "product_theorem": _suite_product_theorem,
    "polarization": _suite_polarization,
    "unitarity": _suite_unitarity,
    "weyl": _suite_weyl,
    "beam": _suite_beam,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)

#: Static declaration of the checks each suite emits; enforced at run
#: time and pinned again by the test manifest.
SUITE_CHECKS = {
    "properties": ("hermiticity", "xi_marginal", "x_marginal", "total_integral"),
    "moyal": ("moyal_kronecker",),
    "orthogonality": ("hermite_orthonormality", "lg_mode_orthonormality"),
    "intertwine": tuple(name for name, _, _ in _INTERTWINE_PAIRS),
    "closedforms": (
        "hermite_closed_vs_quadrature",
        "lg_mode_equals_hermite_closed",
        "extended_wigner_maps_hg_to_lg",
        "fixed_point_quadrature",
    ),
    "product_theorem": (
        "lg_product_vs_quadrature2d",
        "hg_product_vs_quadrature2d",
        "lg_diag_consistency",
        "hg_diag_consistency",
    ),
    "polarization": ("polarization_identity",),
    "unitarity": (
        "wtilde_inner_products",
        "rotfft_fixed_point",
        "rotfft_maps_hg_to_lg",
        "rotfft_parseval",
    ),
    "weyl": tuple(f"weyl_pairing_{_SIGMA_TAGS[s]}" for s in SIGMA_SYMBOLS),
    "beam": ("waist_plane_matches_lg", "gouy_at_rayleigh", "transverse_norm_constant"),
}


def run_suite(name: str, seed: int = 0, budget: str = "full") -> SuiteReport:
    """Run one verification suite (or ``"all"``) and return its report.

    Deterministic given ``(name, seed)``: the same call reproduces the
    same sample points and therefore the same errors. ``budget`` accepts
    only the one budget, ``"full"``.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite name {name!r}; expected one of {SUITE_NAMES}")
    if budget != "full":
        raise ValueError(f"unknown budget {budget!r}; the one budget is 'full'")
    targets = tuple(_SUITES) if name == "all" else (name,)
    checks: list[CheckResult] = []
    for target in targets:
        produced = _SUITES[target](seed)
        got = tuple(c.name for c in produced)
        if got != SUITE_CHECKS[target]:
            raise RuntimeError(f"suite {target} produced unexpected checks {got}")
        checks.extend(produced)
    return SuiteReport(
        suite=name,
        checks=checks,
        passed=all(c.passed for c in checks),
        seed=seed,
        budget=budget,
    )
