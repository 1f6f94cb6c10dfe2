"""Verification engine: every identity the library implements, bundled
into named suites with per-check tolerances and machine-readable reports.

Each suite draws its sample points from a seeded generator, so a report
is reproducible from ``(suite, seed, budget)``. The ``quick`` budget caps
mode indices at 3 and random samples at 8 per check; ``full`` runs the
documented limits. Tolerances are fixed per check from the quadrature
error budget: 1e-10 to 1e-12 where only closed forms and spectrally
accurate quadrature meet, loosened to 1e-6 where finite differences,
the sampled rotate-plus-FFT grid, or the two-dimensional oracle enter.
Every oracle call sizes its quadrature with :meth:`QuadratureSpec.for_degree` from the
mode degrees of its integrand and the largest frequency it is evaluated
at, and from nothing else: not a closed form's value, not the seed itself.
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
    lg_mode,
)
from .specfun import hermite_function, hermite_function_table
from .wigner import (
    DEFAULT_QUAD,
    Grid2D,
    PhasePoint4,
    QuadratureSpec,
    _trap_axis,
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
    """All check results of one suite run, with the seed and budget that
    produced it."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    passed: bool = True
    seed: int = 0
    budget: str = "quick"

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


def _h(n: int):
    return lambda t, n=n: hermite_function(n, t)


def _sized(degree, *freqs) -> QuadratureSpec:
    """Oracle spec for an integrand of ``degree`` in p (m + n for the mode
    pair (m, n)) evaluated at the frequencies in ``freqs``, scalars or
    arrays."""
    reach = max((float(np.max(np.abs(f))) for f in freqs), default=0.0)
    return QuadratureSpec.for_degree(degree, reach)


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


def _hg_callable(j: int, k: int):
    return lambda u, v, j=j, k=k: hermite_function(j, u) * hermite_function(k, v)


def _lg_callable(j: int, k: int):
    idx = ModeIndex.lg(j, k)
    return lambda u, v, idx=idx: lg_mode(idx, u, v)


def _superposition_1d(coeffs: np.ndarray):
    deg = len(coeffs) - 1

    def f(t):
        return np.einsum("j,j...->...", coeffs, hermite_function_table(deg, t))

    return f


def _superposition_2d(coeffs: np.ndarray):
    deg = coeffs.shape[0] - 1

    def f(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        tu = hermite_function_table(deg, u)
        tv = hermite_function_table(deg, v)
        return np.einsum("jk,j...,k...->...", coeffs, tu, tv)

    return f


def _random_coeffs(rng, shape) -> np.ndarray:
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------------------
# suites


def _suite_properties(seed: int, quick: bool) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 1])
    deg = 3 if quick else 8
    checks = []

    def hermiticity():
        npairs = 2 if quick else 3
        npts = 8 if quick else 50
        worst = 0.0
        for _ in range(npairs):
            f = _superposition_1d(_random_coeffs(rng, deg + 1))
            g = _superposition_1d(_random_coeffs(rng, deg + 1))
            x, xi = rng.uniform(-2.0, 2.0, size=(npts, 2)).T
            quad = _sized(2 * deg, xi)
            err = np.abs(wigner1d(f, g, x, xi, quad) - np.conj(wigner1d(g, f, x, xi, quad)))
            worst = max(worst, err.max())
        return worst, npairs * npts

    checks.append(_timed("hermiticity", 1e-12, hermiticity))

    # W(h_m, h_n) is itself a Hermite expansion of degree m + n along
    # each axis, so the outer integrals take the same rule
    outer = QuadratureSpec.for_degree(2 * deg)
    p_axis, p_w = outer.grid()

    def xi_marginal():
        xs = rng.uniform(-2.0, 2.0, size=2 if quick else 4)
        m, n = _all_pairs(deg)
        lhs = wigner1d_grid(_h_stack(m), _h_stack(n), xs, p_axis, _sized(2 * deg, p_axis)) @ p_w
        h = hermite_function_table(deg, xs / SQRT2)
        rhs = np.sqrt(2 * np.pi) * h[:, None] * h[None, :]
        return np.abs(lhs - rhs).max(), (deg + 1) ** 2 * len(xs)

    checks.append(_timed("xi_marginal", 1e-8, xi_marginal))

    def x_marginal():
        xis = rng.uniform(-2.0, 2.0, size=2 if quick else 4)
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


def _suite_moyal(seed: int, quick: bool) -> list[CheckResult]:
    deg = 3 if quick else 5

    def moyal():
        axis, w = _trap_axis(-10.0, 10.0, 201)
        # row (a, b) holds W(h_a, h_b) flattened, so the weighted Gram
        # matrix of the rows must be the identity on index pairs
        a, b = _all_pairs(deg)
        grids = wigner1d_grid(_h_stack(a), _h_stack(b), axis, axis, _sized(2 * deg, axis))
        grids = grids.reshape((deg + 1) ** 2, -1)
        gram = (np.conj(grids) * np.outer(w, w).ravel()) @ grids.T
        return np.abs(gram - np.eye(len(grids))).max(), len(grids) ** 2

    return [_timed("moyal_kronecker", 1e-8, moyal)]


def _suite_orthogonality(seed: int, quick: bool) -> list[CheckResult]:
    checks = []

    def hermite_orthonormality():
        nmax = 3 if quick else 12
        p, w = DEFAULT_QUAD.grid()
        table = hermite_function_table(nmax, p)
        gram = (table * w) @ table.T
        return np.abs(gram - np.eye(nmax + 1)).max(), (nmax + 1) ** 2

    checks.append(_timed("hermite_orthonormality", 1e-10, hermite_orthonormality))

    def lg_orthonormality():
        cap = 3 if quick else 4
        axis, w = _trap_axis(-8.0, 8.0, 161)
        w2 = np.outer(w, w)
        indices = [(a, b) for a in range(cap + 1) for b in range(cap + 1)]
        fields = {
            idx: lg_mode(ModeIndex.lg(*idx), axis[:, None], axis[None, :]) for idx in indices
        }
        worst = 0.0
        for ia in indices:
            left = np.conj(fields[ia]) * w2
            for ib in indices:
                ip = np.sum(left * fields[ib])
                worst = max(worst, abs(ip - (1.0 if ia == ib else 0.0)))
        return worst, len(indices) ** 2

    checks.append(_timed("lg_mode_orthonormality", 1e-8, lg_orthonormality))
    return checks


_INTERTWINE_PAIRS = (
    ("intertwine_Aplusdag_a1dag", LadderOp.APLUSDAG, LadderOp.A1DAG),
    ("intertwine_Aminusdag_a2dag", LadderOp.AMINUSDAG, LadderOp.A2DAG),
    ("intertwine_Aplus_a1", LadderOp.APLUS, LadderOp.A1),
    ("intertwine_Aminus_a2", LadderOp.AMINUS, LadderOp.A2),
)


def _suite_intertwine(seed: int, quick: bool) -> list[CheckResult]:
    cap = 3 if quick else 4
    npts = 8 if quick else 50
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


def _suite_closedforms(seed: int, quick: bool) -> list[CheckResult]:
    cap = 3 if quick else 8
    xs = np.linspace(-4.0, 4.0, 21)
    mesh_x, mesh_y = xs[:, None], xs[None, :]
    checks = []

    def closed_vs_quadrature():
        m, n = _all_pairs(cap)
        quad_grids = wigner1d_grid(_h_stack(m), _h_stack(n), xs, xs, _sized(2 * cap, xs))
        worst = 0.0
        for j in range(cap + 1):
            for k in range(cap + 1):
                closed = wigner_hermite_closed(j, k, mesh_x, mesh_y)
                worst = max(worst, np.abs(quad_grids[j, k] - closed).max())
        return worst, (cap + 1) ** 2 * xs.size**2

    checks.append(_timed("hermite_closed_vs_quadrature", 1e-8, closed_vs_quadrature))

    def lg_equals_closed():
        worst = 0.0
        for j in range(cap + 1):
            for k in range(cap + 1):
                a = lg_mode(ModeIndex.lg(j, k), mesh_x, mesh_y)
                b = wigner_hermite_closed(j, k, mesh_x, mesh_y)
                worst = max(worst, np.abs(a - b).max())
        return worst, (cap + 1) ** 2 * xs.size**2

    checks.append(_timed("lg_mode_equals_hermite_closed", 1e-12, lg_equals_closed))

    def hg_to_lg():
        cap2 = 3 if quick else 6
        sample = np.linspace(-3.0, 3.0, 11)
        quad = _sized(2 * cap2, sample)
        transformed = extended_wigner_grid(_hg_stack(*_all_pairs(cap2)), sample, sample, quad)
        worst = 0.0
        for j in range(cap2 + 1):
            for k in range(cap2 + 1):
                reference = lg_mode(ModeIndex.lg(j, k), sample[:, None], sample[None, :])
                worst = max(worst, np.abs(transformed[j, k] - reference).max())
        return worst, (cap2 + 1) ** 2 * sample.size**2

    checks.append(_timed("extended_wigner_maps_hg_to_lg", 1e-9, hg_to_lg))

    def fixed_point():
        transformed = extended_wigner_grid(_hg_callable(0, 0), xs, xs, _sized(0, xs))
        reference = hg_mode(ModeIndex.hg(0, 0), mesh_x, mesh_y)
        return np.abs(transformed - reference).max(), xs.size**2

    checks.append(_timed("fixed_point_quadrature", 1e-10, fixed_point))
    return checks


def _suite_product_theorem(seed: int, quick: bool) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 6])
    checks = []

    def lg_product():
        npts = 8 if quick else 32
        worst = 0.0
        for _ in range(npts):
            j, k, m, n = (int(v) for v in rng.integers(0, 4, size=4))
            pt = PhasePoint4(*rng.uniform(-2.0, 2.0, size=4))
            quad = _sized(j + k + m + n, pt.xi1, pt.xi2)
            oracle = wigner2d(_lg_callable(j, k), _lg_callable(m, n), pt, quad)
            worst = max(worst, abs(oracle - wigner_lg_closed(j, k, m, n, pt)))
        return worst, npts

    checks.append(_timed("lg_product_vs_quadrature2d", 1e-6, lg_product))

    def hg_product():
        npts = 4 if quick else 8
        worst = 0.0
        for _ in range(npts):
            j, k, m, n = (int(v) for v in rng.integers(0, 4, size=4))
            pt = PhasePoint4(*rng.uniform(-2.0, 2.0, size=4))
            quad = _sized(max(j + m, k + n), pt.xi1, pt.xi2)
            oracle = wigner2d(_hg_callable(j, k), _hg_callable(m, n), pt, quad)
            worst = max(worst, abs(oracle - wigner_hg_closed(j, k, m, n, pt)))
        return worst, npts

    checks.append(_timed("hg_product_vs_quadrature2d", 1e-6, hg_product))

    cap = 3 if quick else 6
    ndiag = 8 if quick else 100

    def lg_diag():
        worst = 0.0
        for _ in range(ndiag):
            j, k = (int(v) for v in rng.integers(0, cap + 1, size=2))
            pt = PhasePoint4(*rng.uniform(-2.0, 2.0, size=4))
            worst = max(worst, abs(wigner_lg_closed(j, k, j, k, pt) - wigner_lg_diag(j, k, pt)))
        return worst, ndiag

    checks.append(_timed("lg_diag_consistency", 1e-12, lg_diag))

    def hg_diag():
        worst = 0.0
        for _ in range(ndiag):
            j, k = (int(v) for v in rng.integers(0, cap + 1, size=2))
            pt = PhasePoint4(*rng.uniform(-2.0, 2.0, size=4))
            worst = max(worst, abs(wigner_hg_closed(j, k, j, k, pt) - wigner_hg_diag(j, k, pt)))
        return worst, ndiag

    checks.append(_timed("hg_diag_consistency", 1e-12, hg_diag))
    return checks


def _suite_polarization(seed: int, quick: bool) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 7])
    cap = 3 if quick else 4
    npts = 8 if quick else 20

    def polarization():
        worst = 0.0
        for _ in range(npts):
            n_plus, n_minus = (int(v) for v in rng.integers(0, cap + 1, size=2))
            x, y = rng.uniform(-2.0, 2.0, size=2)
            hp, hm = _h(n_plus), _h(n_minus)
            quad = _sized(2 * max(n_plus, n_minus), y)
            total = 0.0
            for factor, weight in ((1.0, 0.25), (-1.0, -0.25), (-1j, 0.25j), (1j, -0.25j)):
                combo = lambda t, c=factor: hp(t) + c * hm(t)
                total += weight * wigner1d(combo, combo, x, y, quad)
            worst = max(worst, abs(total - lg_mode(ModeIndex.lg(n_plus, n_minus), x, y)))
        return worst, npts

    return [_timed("polarization_identity", 1e-8, polarization)]


def _suite_unitarity(seed: int, quick: bool) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 8])
    checks = []

    def inner_products():
        nfuncs = 4 if quick else 10
        deg = 3 if quick else 5
        axis, w = _trap_axis(-8.0, 8.0, 161)
        w2 = np.outer(w, w)
        mesh = (axis[:, None], axis[None, :])
        inputs, outputs = [], []
        for _ in range(nfuncs):
            f = _superposition_2d(_random_coeffs(rng, (deg + 1, deg + 1)))
            inputs.append(f(*mesh))
            outputs.append(extended_wigner_grid(f, axis, axis, _sized(2 * deg, axis)))
        worst = 0.0
        for a in range(nfuncs):
            for b in range(nfuncs):
                ip_in = np.sum(np.conj(inputs[a]) * inputs[b] * w2)
                ip_out = np.sum(np.conj(outputs[a]) * outputs[b] * w2)
                worst = max(worst, abs(ip_in - ip_out))
        return worst, nfuncs**2

    checks.append(_timed("wtilde_inner_products", 1e-6, inner_products))

    def fixed_point_rotfft():
        grid = Grid2D.sample(_hg_callable(0, 0), (-8.0, 8.0, 256), (-8.0, 8.0, 256))
        out = extended_wigner_rotfft(grid)
        ref = lg_mode(ModeIndex.lg(0, 0), out.x_nodes()[:, None], out.y_nodes()[None, :])
        return np.abs(out.values - ref).max(), out.values.size

    checks.append(_timed("rotfft_fixed_point", 1e-6, fixed_point_rotfft))

    def rotfft_hg_to_lg():
        grid = Grid2D.sample(_hg_callable(1, 0), (-8.0, 8.0, 256), (-8.0, 8.0, 256))
        out = extended_wigner_rotfft(grid)
        ref = lg_mode(ModeIndex.lg(1, 0), out.x_nodes()[:, None], out.y_nodes()[None, :])
        return np.abs(out.values - ref).max(), out.values.size

    checks.append(_timed("rotfft_maps_hg_to_lg", 1e-5, rotfft_hg_to_lg))

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


# Phase-space window for pairing the symbol with the Wigner transform;
# the integrand decays like a Gaussian, so this is already converged.
_WEYL_OUTER = QuadratureSpec(12.0, 240)


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

    ``quad`` defaults to the spec sized from the degrees. The kernel
    moments of ``x**m h_f`` (m <= 2) and the frequency sum of their
    products with the symbol are Hermite expansions of degree at most
    f + g + 2, and the moments are taken at frequencies up to
    ``half_width / sqrt2``, which the outer window's half-width exceeds;
    the oracle is evaluated across that window.
    """
    # one array per side, so a bool or float degree keeps its type
    f_deg = np.array([f for f, _ in pairs])
    g_deg = np.array([g for _, g in pairs])
    if quad is None:
        quad = QuadratureSpec.for_degree(f_deg.max() + g_deg.max() + 2, _WEYL_OUTER.half_width)
    f_h, g_h = _h_stack(f_deg), _h_stack(g_deg)
    x, w = quad.grid()
    phases = np.exp(1j * np.outer(x, x) / SQRT2)
    f_vals = f_h(x)
    g_vals = g_h(x)
    f_mom = {m: (w * f_vals * x**m) @ phases for m in (0, 1, 2)}
    g_mom = {m: (w * g_vals * x**m) @ np.conj(phases) for m in (0, 1, 2)}

    outer_x, outer_w = _WEYL_OUTER.grid()
    wig = wigner1d_grid(f_h, g_h, outer_x, outer_x, quad)

    pairings = {}
    for sigma in SIGMA_SYMBOLS:
        left = 0.0
        for phi, mf, mg, coeff in _weyl_sigma_terms(sigma, x):
            left = left + coeff * np.sum(w * phi * f_mom[mf] * g_mom[mg], axis=-1)
        left *= 2.0**-1.5 / np.pi
        sig = _weyl_sigma_grid(sigma, outer_x, outer_x)
        right = 0.5 / np.sqrt(np.pi) * (outer_w @ (sig * wig) @ outer_w)
        pairings[sigma] = (left, right)
    return pairings, (f_deg == g_deg).astype(float)


def _weyl_errors(pairs, quad: QuadratureSpec | None = None) -> dict[str, np.ndarray]:
    """Per symbol, the distance between the two pairings of each
    ``(f, g)`` degree pair (see :func:`_weyl_pairings`); for ``"one"`` it
    also covers each side's distance from the Kronecker delta of the
    degrees, since quantizing the constant symbol gives the identity."""
    pairings, delta = _weyl_pairings(pairs, quad)
    errors = {}
    for sigma, (left, right) in pairings.items():
        err = np.abs(left - right)
        if sigma == "one":
            err = np.max([err, np.abs(left - delta), np.abs(right - delta)], axis=0)
        errors[sigma] = err
    return errors


def weyl_pairing_check(
    sigma: str, f: int, g: int, quad: QuadratureSpec | None = None
) -> CheckResult:
    """Compare the two quantization-pairing pipelines for one symbol.

    The left pipeline quantizes ``sigma`` by direct kernel quadrature and
    takes the inner product with mode ``f``; the right pipeline pairs
    ``sigma`` against the Wigner transform of the mode pair. For
    ``sigma="one"`` both sides must also reproduce the Kronecker delta of
    the degrees, since quantizing the constant symbol gives the identity.
    Without ``quad`` the kernel and the oracle use the spec sized from
    the two degrees.
    """
    if sigma not in SIGMA_SYMBOLS:
        raise ValueError(f"unsupported symbol {sigma!r}; expected one of {SIGMA_SYMBOLS}")

    def compute():
        return _weyl_errors([(f, g)], quad)[sigma][0], 1

    return _timed(f"weyl_pairing_{_SIGMA_TAGS[sigma]}_f{f}_g{g}", 1e-6, compute)


def _suite_weyl(seed: int, quick: bool) -> list[CheckResult]:
    cap = 3 if quick else 4
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


def _suite_beam(seed: int, quick: bool) -> list[CheckResult]:
    params = _beam.BeamParams(w0=1.3, k=9.0)
    cases = _BEAM_CASES[:3] if quick else _BEAM_CASES
    checks = []

    def waist_plane():
        axis = np.linspace(-4.0 * params.w0, 4.0 * params.w0, 81)
        xg, yg = axis[:, None], axis[None, :]
        r = np.hypot(xg, yg)
        phi = np.arctan2(yg, xg)
        scale = SQRT2 / params.w0
        worst = 0.0
        for p, ell in cases:
            field_vals = _beam.beam_field(_beam.BeamIndex(p, ell), params, r, phi, 0.0)
            if ell >= 0:
                mode = ModeIndex.lg(p, p + ell)
            else:
                mode = ModeIndex.lg(p - ell, p)
            ref = lg_mode(mode, xg * scale, yg * scale)
            mask = np.abs(ref) > 1e-3 * np.abs(ref).max()
            ratio = field_vals[mask] / ref[mask]
            worst = max(worst, float(np.std(ratio)))
        return worst, len(cases)

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
        for p, ell in cases:
            for z in heights:
                w_z = _beam.beam_geometry(params, z).w
                axis, w = _trap_axis(-6.0 * w_z, 6.0 * w_z, 301)
                xg, yg = axis[:, None], axis[None, :]
                vals = _beam.beam_field(
                    _beam.BeamIndex(p, ell), params, np.hypot(xg, yg), np.arctan2(yg, xg), z
                )
                total = np.sum(np.abs(vals) ** 2 * np.outer(w, w))
                worst = max(worst, abs(total - 1.0))
        return worst, len(cases) * len(heights)

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


def run_suite(name: str, seed: int = 0, budget: str = "quick") -> SuiteReport:
    """Run one verification suite (or ``"all"``) and return its report.

    Deterministic given ``(name, seed, budget)``: the same call reproduces
    the same sample points and therefore the same errors.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite name {name!r}; expected one of {SUITE_NAMES}")
    if budget not in ("quick", "full"):
        raise ValueError(f"unknown budget {budget!r}; expected 'quick' or 'full'")
    quick = budget == "quick"
    targets = tuple(_SUITES) if name == "all" else (name,)
    checks: list[CheckResult] = []
    for target in targets:
        produced = _SUITES[target](seed, quick)
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
