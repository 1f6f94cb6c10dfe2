"""Wigner transform checks: quadrature oracle values derived by hand,
closed forms cross-checked against the oracle, and the rotate-plus-FFT
grid path checked against both."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lgwigner

from lgwigner import specfun, wigner
from lgwigner.modes import ModeIndex, lg_mode
from lgwigner.wigner import (
    Grid2D,
    PhasePoint4,
    QuadratureSpec,
    _shift_ramp,
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


def _h(n):
    return lambda t, n=n: specfun.hermite_function(n, t)


def _hg(j, k):
    return lambda u, v, j=j, k=k: specfun.hermite_function(j, u) * specfun.hermite_function(k, v)


def _lg(j, k):
    idx = ModeIndex.lg(j, k)
    return lambda u, v, idx=idx: lg_mode(idx, u, v)


# --- quadrature spec and grid container ---


def test_quadrature_spec_validation():
    QuadratureSpec(8.0, 64)
    with pytest.raises(ValueError):
        QuadratureSpec(-1.0, 64)
    with pytest.raises(ValueError):
        QuadratureSpec(8.0, 65)  # odd
    with pytest.raises(ValueError):
        QuadratureSpec(8.0, 8)  # too few
    with pytest.raises(TypeError):
        QuadratureSpec(8.0, 64.0)
    p, w = QuadratureSpec(5.0, 100).grid()
    assert p[0] == -5.0 and p[-1] == 5.0
    assert np.sum(w) == pytest.approx(10.0, rel=1e-14)
    # the trapezoid rule halves both end weights and no interior one
    step = p[1] - p[0]
    assert w[0] == w[-1] == step / 2
    assert np.all(w[1:-1] == step)


_REACHES = (0.0, 1e-5, 2.0, 4.0, 8.0, 12.0, 40.0)


def test_for_degree_nodes_even_and_at_least_16():
    for degree in range(specfun.MAX_DEGREE + 1):
        # reach T is the rotate-plus-FFT sizing: pi / dx >= T, so the
        # output covers the LG mode (128 nodes at order 64 miss by 1e-3)
        for reach in (*_REACHES, QuadratureSpec.for_degree(degree).half_width):
            spec = QuadratureSpec.for_degree(degree, reach)
            assert spec.nodes % 2 == 0 and spec.nodes >= 16
            # the spacing keeps the first alias outside [-T, T]
            p, _ = spec.grid()
            assert p[1] - p[0] <= 2 * np.pi / (spec.half_width + reach)


def test_for_degree_never_shrinks_with_degree_or_reach():
    # axes: degree, reach, (half_width, nodes)
    specs = np.array(
        [
            [(s.half_width, s.nodes) for s in (QuadratureSpec.for_degree(d, r) for r in _REACHES)]
            for d in range(specfun.MAX_DEGREE + 1)
        ]
    )
    assert np.all(np.diff(specs, axis=0) >= 0)
    assert np.all(np.diff(specs, axis=1) >= 0)


@pytest.mark.parametrize("degree", [True, 2.0, -1, 65])
def test_for_degree_rejects_bad_degree(degree):
    with pytest.raises((TypeError, ValueError)):
        QuadratureSpec.for_degree(degree)


@pytest.mark.parametrize("reach", [-1e-9, np.inf, -np.inf, np.nan])
def test_for_degree_rejects_bad_reach(reach):
    with pytest.raises(ValueError):
        QuadratureSpec.for_degree(4, reach)


@pytest.mark.parametrize("degree", [0, 12, 16, 64])
def test_for_degree_half_width_bounds_every_hermite_function(degree):
    mpmath = pytest.importorskip("mpmath")
    half = QuadratureSpec.for_degree(degree).half_width
    with mpmath.workdps(40):
        for k in range(degree + 1):
            # h_k(x) = pi**-1/4 (2**k k!)**-1/2 exp(-x**2/2) H_k(x), even or odd
            h = mpmath.hermite(k, half) * mpmath.exp(-half**2 / 2)
            h /= mpmath.pi**0.25 * mpmath.sqrt(2**k * mpmath.factorial(k))
            assert abs(h) < 1e-16, (k, half)


def test_grid2d_validation():
    with pytest.raises(ValueError):
        Grid2D((0.0, 1.0, 1), (0.0, 1.0, 4), np.zeros(4))
    with pytest.raises(ValueError):
        Grid2D((1.0, 0.0, 4), (0.0, 1.0, 4), np.zeros(16))
    with pytest.raises(ValueError):
        Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4), np.zeros(15))
    g = Grid2D.sample(lambda u, v: u + 1j * v, (-1.0, 1.0, 5), (-2.0, 2.0, 9))
    assert g.values.shape == (5, 9)
    assert g.values[1, 2] == g.x_nodes()[1] + 1j * g.y_nodes()[2]


# --- one-dimensional transform ---


def test_wigner1d_ground_state_value():
    got = wigner1d(_h(0), _h(0), 0.0, 0.0)
    assert got == pytest.approx(np.pi**-0.5, abs=1e-10)


def test_wigner1d_hand_derived_value():
    # integral done by hand for the (1, 0) pair at (1, 0)
    got = wigner1d(_h(1), _h(0), 1.0, 0.0)
    assert got == pytest.approx(np.pi**-0.5 * np.exp(-0.5), abs=1e-10)


def test_wigner1d_swap_conjugates():
    for x, xi in [(0.0, 0.0), (0.8, -1.1), (-2.0, 0.4)]:
        a = wigner1d(_h(0), _h(1), x, xi)
        b = wigner1d(_h(1), _h(0), x, xi)
        assert a == pytest.approx(np.conj(b), abs=1e-10)


def test_wigner1d_matches_closed_form():
    assert wigner1d(_h(2), _h(2), 0.0, 0.0) == pytest.approx(
        wigner_hermite_closed(2, 2, 0.0, 0.0), abs=1e-10
    )
    rng = np.random.default_rng(8)
    for _ in range(10):
        j, k = (int(v) for v in rng.integers(0, 9, 2))
        x, xi = rng.uniform(-3.0, 3.0, 2)
        assert wigner1d(_h(j), _h(k), x, xi) == pytest.approx(
            wigner_hermite_closed(j, k, x, xi), abs=1e-10
        )


def test_wigner1d_grid_matches_pointwise():
    xs = np.array([-1.5, 0.0, 0.4])
    xis = np.array([-0.3, 2.0])
    grid = wigner1d_grid(_h(3), _h(1), xs, xis)
    for i, x in enumerate(xs):
        for j, xi in enumerate(xis):
            assert grid[i, j] == pytest.approx(wigner1d(_h(3), _h(1), x, xi), abs=1e-13)


def _stacks(deg):
    d = np.arange(deg + 1)
    f = lambda t: specfun.hermite_function_table(deg, t)[:, None]
    g = lambda t: specfun.hermite_function_table(deg, t)[None, :]
    return d, f, g


def test_wigner1d_grid_stacked_fields_match_per_pair():
    # 16 pairs on 256 nodes make 256-row blocks after the first single
    # row; 300 rows leave a short last block
    quad = QuadratureSpec(10.0, 256)
    xs = np.linspace(-3.0, 3.0, 300)
    xis = np.array([-1.1, 0.0, 0.8])
    d, f, g = _stacks(3)
    grid = wigner1d_grid(f, g, xs, xis, quad)
    assert grid.shape == (4, 4, 300, 3)
    for m in d:
        for n in d:
            single = wigner1d_grid(_h(m), _h(n), xs, xis, quad)
            assert np.abs(grid[m, n] - single).max() <= 1e-14


def test_extended_wigner_grid_stacked_field_matches_per_pair():
    quad = QuadratureSpec(10.0, 256)
    xs = np.linspace(-3.0, 3.0, 300)
    ys = np.array([-0.4, 1.3])
    d, f, g = _stacks(3)
    grid = extended_wigner_grid(lambda u, v: f(u) * g(v), xs, ys, quad)
    assert grid.shape == (4, 4, 300, 2)
    for j in d:
        for k in d:
            single = extended_wigner_grid(_hg(j, k), xs, ys, quad)
            assert np.abs(grid[j, k] - single).max() <= 1e-14


@pytest.mark.parametrize("block_rows", [None, 3])
def test_grid_oracle_real_integrand_matches_its_complex_cast(monkeypatch, block_rows):
    # a real integrand block is contracted with the phase's cosine and sine
    # parts, a complex one with the phase itself: the two round apart by at
    # most a few ulps of the sum of |integrand| over the nodes, in one block
    # of rows or, with a smaller block budget, in several
    quad = QuadratureSpec.for_degree(8, 3.0)
    if block_rows is not None:
        monkeypatch.setattr(wigner, "_BLOCK_ELEMENTS", 5 * 5 * quad.nodes * block_rows)
    p, w = quad.grid()
    xs, ys = np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 9)

    def real(u, v):
        return specfun.hermite_function_table(4, u)[:, None] * specfun.hermite_function_table(4, v)[None, :]

    got = extended_wigner_grid(real, xs, ys, quad)
    want = extended_wigner_grid(lambda u, v: real(u, v).astype(complex), xs, ys, quad)
    assert got.shape == want.shape == (5, 5, 7, 9)
    amp = np.abs(real((xs[:, None] + p) / np.sqrt(2), (xs[:, None] - p) / np.sqrt(2)) * w).sum(axis=-1)
    bound = 4 * np.finfo(float).eps * amp[..., None] / np.sqrt(2 * np.pi)
    assert np.all(np.abs(got - want) <= bound)


def test_grid_oracles_accept_empty_rows():
    xis = np.array([-0.5, 0.0, 0.5])
    assert wigner1d_grid(_h(1), _h(2), [], xis).shape == (0, 3)
    assert extended_wigner_grid(_hg(1, 2), [], xis).shape == (0, 3)
    _, f, g = _stacks(2)
    assert wigner1d_grid(f, g, [], xis).shape == (3, 3, 0, 3)


def test_pointwise_oracles_accept_point_arrays():
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 7))
    got_ext = extended_wigner(_hg(2, 1), x, y)
    got_1d = wigner1d(_h(2), _h(1), x, y)
    assert got_ext.shape == got_1d.shape == (7,)
    for i in range(7):
        assert got_ext[i] == extended_wigner(_hg(2, 1), x[i], y[i])
        assert got_1d[i] == wigner1d(_h(2), _h(1), x[i], y[i])
    # a scalar broadcasts against an array; scalars give a Python complex
    assert extended_wigner(_hg(2, 1), x.reshape(7, 1), 0.3).shape == (7, 1)
    assert type(extended_wigner(_hg(2, 1), 0.5, -0.2)) is complex
    assert type(wigner1d(_h(2), _h(1), 0.5, -0.2)) is complex


def test_wigner1d_rejects_bad_quadrature():
    with pytest.raises(TypeError):
        wigner1d(_h(0), _h(0), 0.0, 0.0, quad=(16.0, 1024))


# --- extended transform ---


def test_extended_wigner_fixed_point():
    for x, y in [(0.0, 0.0), (1.0, -0.7), (-2.2, 0.5)]:
        got = extended_wigner(_hg(0, 0), x, y)
        want = np.pi**-0.5 * np.exp(-0.5 * (x * x + y * y))
        assert got == pytest.approx(want, abs=1e-10)


def test_extended_wigner_maps_hg_to_lg():
    rng = np.random.default_rng(9)
    for _ in range(12):
        j, k = (int(v) for v in rng.integers(0, 7, 2))
        x, y = rng.uniform(-2.5, 2.5, 2)
        got = extended_wigner(_hg(j, k), x, y)
        assert got == pytest.approx(lg_mode(ModeIndex.lg(j, k), x, y), abs=1e-9)


def test_extended_wigner_grid_matches_pointwise():
    xs = np.array([0.0, 1.1])
    ys = np.array([-0.5, 0.0, 0.7])
    grid = extended_wigner_grid(_hg(2, 1), xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == pytest.approx(extended_wigner(_hg(2, 1), x, y), abs=1e-13)


# --- rotate + FFT path ---


def test_rotfft_fixed_point_and_parseval():
    grid = Grid2D.sample(_hg(0, 0), (-8.0, 8.0, 256), (-8.0, 8.0, 256))
    out = extended_wigner_rotfft(grid)
    ref = lg_mode(ModeIndex.lg(0, 0), out.x_nodes()[:, None], out.y_nodes()[None, :])
    assert np.abs(out.values - ref).max() <= 1e-6

    def grid_norm(g):
        dx = (g.x_axis[1] - g.x_axis[0]) / (g.x_axis[2] - 1)
        dy = (g.y_axis[1] - g.y_axis[0]) / (g.y_axis[2] - 1)
        return np.sqrt(np.sum(np.abs(g.values) ** 2) * dx * dy)

    assert abs(grid_norm(grid) - grid_norm(out)) <= 1e-6


def test_rotfft_maps_hg_to_lg():
    grid = Grid2D.sample(_hg(1, 0), (-8.0, 8.0, 256), (-8.0, 8.0, 256))
    out = extended_wigner_rotfft(grid)
    ref = lg_mode(ModeIndex.lg(1, 0), out.x_nodes()[:, None], out.y_nodes()[None, :])
    assert np.abs(out.values - ref).max() <= 1e-5


def test_rotfft_cross_checks_quadrature_path():
    # an unnormalized field that is no single mode (measured 3.9e-16)
    f = lambda u, v: np.exp(-0.5 * (u * u + v * v)) * u
    grid = Grid2D.sample(f, (-8.0, 8.0, 512), (-8.0, 8.0, 512))
    out = extended_wigner_rotfft(grid)
    xi = int(np.argmin(np.abs(out.x_nodes() - 1.0)))
    yi = int(np.argmin(np.abs(out.y_nodes() - 0.0)))
    x0, y0 = out.x_nodes()[xi], out.y_nodes()[yi]
    assert out.values[xi, yi] == pytest.approx(extended_wigner(f, x0, y0), abs=1e-10)


def test_rotfft_matches_quadrature_on_random_complex_superposition():
    # complex coefficients and no symmetry between u and v or between
    # +y and -y, so a sign or row-order slip in the negative frequencies
    # shows where the real, symmetric HG inputs cannot
    rng = np.random.default_rng(11)
    degree = 4
    coef = rng.standard_normal((degree + 1, degree + 1)) + 1j * rng.standard_normal((degree + 1, degree + 1))
    coef[np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) > degree] = 0

    def field(u, v):
        hu, hv = specfun.hermite_function_table(degree, u), specfun.hermite_function_table(degree, v)
        return sum(coef[j, k] * hu[j] * hv[k] for j in range(degree + 1) for k in range(degree + 1 - j))

    out = extended_wigner_rotfft(Grid2D.sample(field, (-8.0, 8.0, 256), (-8.0, 8.0, 256)))
    # 16 x 16 nodes spread over [-4, 4] on each output axis
    rows, cols = (np.flatnonzero(np.abs(nodes) <= 4.0) for nodes in (out.x_nodes(), out.y_nodes()))
    rows, cols = (idx[np.linspace(0, idx.size - 1, 16).astype(int)] for idx in (rows, cols))
    xs, ys = out.x_nodes()[rows], out.y_nodes()[cols]
    assert ys.min() < -3.0 and ys.max() > 3.0
    ref = extended_wigner_grid(field, xs, ys, QuadratureSpec.for_degree(degree, np.abs(ys).max()))
    assert np.abs(out.values[np.ix_(rows, cols)] - ref).max() <= 1e-10


@pytest.mark.parametrize("count", [2, 3, 383, 384, 768])
def test_shift_ramp_matches_direct_exponential(count):
    # shifts of the sizes the shears use: up to sin(pi/4) times a padded
    # half-width of 12
    spacing = 16.0 / 255
    shift = np.linspace(-8.5, 8.5, 37)
    k = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(count, spacing))
    ramp = _shift_ramp(count, spacing, shift[:, None])[:, :count]
    direct = np.exp(1j * k[None, :] * shift[:, None])
    assert ramp.shape == direct.shape
    largest_angle = np.abs(k).max() * np.abs(shift).max()
    assert np.abs(ramp - direct).max() <= 4 * np.finfo(float).eps * largest_angle


@pytest.mark.parametrize("shape", [(61, 90), (90, 61)])
def test_rotfft_leaves_its_input_untouched(shape):
    # the shears and FFTs run in place on the transform's own buffers; odd,
    # non-square complex grids, so no layout coincides with the input's
    rng = np.random.default_rng(4)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = Grid2D((-6.0, 6.0, shape[0]), (-5.0, 5.0, shape[1]), values.copy())
    out = extended_wigner_rotfft(grid)
    assert np.array_equal(grid.values, values)
    assert not np.shares_memory(out.values, grid.values)


def _sized_axis(degree):
    """The window [-T, T] past which every h_k, ``k <= degree``, is below
    1e-16, on the nodes of reach T: a spacing of at most pi / T."""
    half_width = QuadratureSpec.for_degree(degree).half_width
    return (-half_width, half_width, QuadratureSpec.for_degree(degree, half_width).nodes)


@pytest.mark.parametrize(
    "j, k, x_axis, y_axis, bound",
    [
        # the product-rule grid of degree j + k (measured 1.1e-14 at
        # (16, 16), 114 x 114; at most 4.45e-14, at (32, 32), 168 x 168)
        (16, 16, _sized_axis(32), _sized_axis(32), 1e-12),
        (40, 24, _sized_axis(64), _sized_axis(64), 1e-12),
        (0, 64, _sized_axis(64), _sized_axis(64), 1e-12),
        (1, 0, (-8.0, 8.0, 256), (-8.0, 8.0, 256), 1e-10),
        (3, 2, (-8.0, 8.0, 256), (-8.0, 8.0, 256), 1e-10),
        (1, 0, (-8.0, 8.0, 512), (-8.0, 8.0, 512), 1e-10),
        (3, 2, (-8.0, 8.0, 512), (-8.0, 8.0, 512), 1e-10),
        # odd counts
        (3, 2, (-8.0, 8.0, 255), (-8.0, 8.0, 255), 1e-10),
        # unequal spacing, non-square (measured 2.4e-12)
        (3, 2, (-8.0, 8.0, 257), (-8.0, 8.0, 160), 1e-10),
        # unequal windows too: the narrower y window truncates HG(3, 2)
        # (measured 2.9e-9)
        (3, 2, (-10.0, 10.0, 301), (-7.0, 7.0, 200), 1e-8),
        # the product-rule grid at the docstring's other listed inputs
        (0, 0, _sized_axis(0), _sized_axis(0), 1e-12),
        (1, 0, _sized_axis(1), _sized_axis(1), 1e-12),
        (8, 8, _sized_axis(16), _sized_axis(16), 1e-12),
        (32, 32, _sized_axis(64), _sized_axis(64), 1e-12),
        (64, 0, _sized_axis(64), _sized_axis(64), 1e-12),
    ],
)
def test_rotfft_matches_lg_mode(j, k, x_axis, y_axis, bound):
    grid = Grid2D.sample(_hg(j, k), x_axis, y_axis)
    out = extended_wigner_rotfft(grid)
    assert out.x_axis == grid.x_axis and out.y_axis[2] == y_axis[2]
    ref = lg_mode(ModeIndex.lg(j, k), out.x_nodes()[:, None], out.y_nodes()[None, :])
    assert np.abs(out.values - ref).max() <= bound


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(lgwigner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, lgwigner, lgwigner.cli, lgwigner.verify; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_rotfft_requires_symmetric_grid():
    grid = Grid2D.sample(_hg(0, 0), (-8.0, 8.0, 64), (-8.0, 8.0, 64))
    bad = Grid2D((-8.0, 8.0, 64), (-7.0, 8.0, 64), grid.values)
    with pytest.raises(ValueError):
        extended_wigner_rotfft(bad)
    # the tolerance is 1e-9 of the axis length, probed on each side of it
    for name in ("x_axis", "y_axis"):
        for d, accepted in ((0.5e-9 * 16, True), (2e-9 * 16, False)):
            axes = {"x_axis": grid.x_axis, "y_axis": grid.y_axis, name: (-8.0 + d, 8.0, 64)}
            shifted = Grid2D(axes["x_axis"], axes["y_axis"], grid.values)
            if accepted:
                extended_wigner_rotfft(shifted)
            else:
                with pytest.raises(ValueError, match=name):
                    extended_wigner_rotfft(shifted)


# --- two-dimensional transform and closed forms ---


def test_wigner2d_example_values():
    origin = PhasePoint4(0.0, 0.0, 0.0, 0.0)
    assert wigner2d(_hg(0, 0), _hg(0, 0), origin) == pytest.approx(1 / np.pi, abs=1e-10)
    assert wigner2d(_lg(1, 0), _lg(1, 0), origin) == pytest.approx(-1 / np.pi, abs=1e-10)
    shifted = PhasePoint4(1.0, 0.0, 0.0, 0.0)
    assert wigner2d(_hg(0, 0), _hg(0, 0), shifted) == pytest.approx(
        np.exp(-0.5) / np.pi, abs=1e-10
    )


def test_wigner2d_separable_phase_matches_full_phase():
    p, w = QuadratureSpec().grid()
    p1, p2 = p[:, None], p[None, :]
    f, g = _lg(2, 1), _lg(1, 3)
    for pt in (
        PhasePoint4(0.0, 0.0, 0.0, 0.0),
        PhasePoint4(0.3, -0.5, 1.1, 0.7),
        PhasePoint4(-1.2, 0.8, -0.4, 1.9),
    ):
        vals = np.conj(f((pt.x1 + p1) / np.sqrt(2), (pt.x2 + p2) / np.sqrt(2)))
        vals = vals * g((pt.x1 - p1) / np.sqrt(2), (pt.x2 - p2) / np.sqrt(2))
        vals = vals * np.exp(1j * (p1 * pt.xi1 + p2 * pt.xi2))
        want = (w @ vals @ w) / (2 * np.pi)
        assert abs(wigner2d(f, g, pt) - want) <= 1e-15


@pytest.mark.parametrize("name", ["x1", "x2", "xi1", "xi2"])
def test_wigner2d_refuses_a_point_holding_more_than_one_value(name):
    # as many values as the rule has nodes broadcast against the node
    # axes without an error, so the sum mixed the points' integrands
    quad = QuadratureSpec.for_degree(2)
    coords = dict(x1=0.3, x2=-0.5, xi1=1.1, xi2=0.7)
    one = wigner2d(_lg(1, 0), _lg(0, 1), PhasePoint4(**coords), quad)
    many = {**coords, name: np.linspace(-1.0, 1.0, quad.nodes)}
    with pytest.raises(ValueError, match=f"^{name} must hold one value"):
        wigner2d(_lg(1, 0), _lg(0, 1), PhasePoint4(**many), quad)
    # a one-element coordinate is one point, with the scalar's bits
    single = {**coords, name: np.array([coords[name]])}
    assert wigner2d(_lg(1, 0), _lg(0, 1), PhasePoint4(**single), quad) == one


def test_wigner_hermite_closed_values_and_symmetry():
    for x, y in [(0.0, 0.0), (0.6, -1.4)]:
        want = np.pi**-0.5 * np.exp(-0.5 * (x * x + y * y))
        assert wigner_hermite_closed(0, 0, x, y) == pytest.approx(want, abs=1e-15)
    rng = np.random.default_rng(10)
    for _ in range(10):
        j, k = (int(v) for v in rng.integers(0, 9, 2))
        x, y = rng.uniform(-3.0, 3.0, 2)
        a = wigner_hermite_closed(j, k, x, y)
        b = wigner_hermite_closed(k, j, x, y)
        assert a == pytest.approx(np.conj(b), abs=1e-14)
    assert wigner_hermite_closed(3, 1, 0.5, -0.2) == pytest.approx(
        wigner1d(_h(3), _h(1), 0.5, -0.2), abs=1e-10
    )


def test_wigner_lg_closed_against_oracle():
    assert wigner_lg_closed(0, 0, 0, 0, PhasePoint4(0, 0, 0, 0)) == pytest.approx(
        1 / np.pi, abs=1e-14
    )
    rng = np.random.default_rng(13)
    pt = PhasePoint4(*rng.uniform(-1.5, 1.5, 4))
    assert wigner_lg_closed(1, 0, 0, 1, pt) == pytest.approx(
        wigner2d(_lg(1, 0), _lg(0, 1), pt), abs=1e-6
    )


def test_wigner_lg_diag_values():
    origin = PhasePoint4(0.0, 0.0, 0.0, 0.0)
    assert wigner_lg_diag(0, 0, origin) == pytest.approx(1 / np.pi, abs=1e-15)
    assert wigner_lg_diag(1, 1, origin) == pytest.approx(1 / np.pi, abs=1e-15)
    pt = PhasePoint4(1.0, 0.0, 0.0, 1.0)  # q0 = 1, q2 = 1
    assert pt.q0 == 1.0 and pt.q2 == 1.0
    assert wigner_lg_diag(2, 0, pt) == pytest.approx(-np.exp(-1.0) / np.pi, abs=1e-15)


def test_diagonal_closed_forms_agree():
    rng = np.random.default_rng(14)
    for _ in range(50):
        j, k = (int(v) for v in rng.integers(0, 7, 2))
        pt = PhasePoint4(*rng.uniform(-2.0, 2.0, 4))
        lg_closed = wigner_lg_closed(j, k, j, k, pt)
        assert abs(lg_closed.imag) <= 1e-12
        assert lg_closed.real == pytest.approx(wigner_lg_diag(j, k, pt), abs=1e-12)
        hg_closed = wigner_hg_closed(j, k, j, k, pt)
        assert abs(hg_closed.imag) <= 1e-12
        assert hg_closed.real == pytest.approx(wigner_hg_diag(j, k, pt), abs=1e-12)


def test_wigner_hg_closed_against_oracle():
    rng = np.random.default_rng(15)
    pt = PhasePoint4(*rng.uniform(-1.5, 1.5, 4))
    assert wigner_hg_closed(1, 0, 1, 0, pt) == pytest.approx(
        wigner2d(_hg(1, 0), _hg(1, 0), pt), abs=1e-6
    )


def test_phase_point_invariants():
    rng = np.random.default_rng(16)
    for _ in range(100):
        pt = PhasePoint4(*rng.uniform(-3.0, 3.0, 4))
        assert pt.q0 >= 0.0
        assert abs(pt.q2) <= pt.q0 + 1e-12
        assert abs(pt.q3) <= pt.q0 + 1e-12
    with pytest.raises(ValueError):
        PhasePoint4(np.nan, 0.0, 0.0, 0.0)


def test_closed_form_degree_validation():
    with pytest.raises(ValueError):
        wigner_hermite_closed(65, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        wigner_lg_diag(0, 65, PhasePoint4(0, 0, 0, 0))


@pytest.mark.parametrize("diag", [wigner_lg_diag, wigner_hg_diag])
@pytest.mark.parametrize(
    "j, k, xi, n",
    [
        (1, 0, (0.0, 0.0), 128),  # the CLI's default slice
        (2, 1, (0.5, -0.25), 256),  # the benchmark's lg_diag slice
    ],
)
def test_diag_closed_forms_on_arrays_match_pointwise_bitwise(diag, j, k, xi, n):
    axis = np.linspace(-4.0, 4.0, n)
    got = diag(j, k, PhasePoint4(axis[:, None], axis[None, :], *xi))
    assert isinstance(got, np.ndarray) and got.shape == (n, n)
    # scalar references at 2,000 seeded grid points and the four corners
    picked = np.random.default_rng([19, j, k, n]).choice(n * n, size=2000, replace=False)
    rows, cols = np.divmod(np.concatenate([picked, [0, n - 1, n * n - n, n * n - 1]]), n)
    want = [diag(j, k, PhasePoint4(axis[a], axis[b], *xi)) for a, b in zip(rows, cols)]
    assert np.array_equal(got[rows, cols], want)


@pytest.mark.parametrize("j, k", [(2, 0), (0, 2), (3, 1), (4, 2), (5, 0), (0, 6), (1, 0), (3, 3)])
def test_hermite_closed_on_arrays_matches_pointwise_bitwise(j, k):
    x, y = np.random.default_rng([17, j, k]).uniform(-3.0, 3.0, size=(2, 2000))
    got = wigner_hermite_closed(j, k, x, y)
    want = np.array([wigner_hermite_closed(j, k, a, b) for a, b in zip(x, y)])
    assert np.array_equal(got, want)
    assert type(wigner_hermite_closed(j, k, 0.3, -1.2)) is complex


_LG_FORMS = {
    "lg_mode": lambda j, k, x, y: lg_mode(ModeIndex.lg(j, k), x, y),
    "wigner_hermite_closed": wigner_hermite_closed,
}


@pytest.mark.parametrize(
    "form, j, k",
    [("lg_mode", 64, 0), ("lg_mode", 0, 64), ("lg_mode", 32, 32), ("lg_mode", 40, 24)]
    + [("wigner_hermite_closed", 64, 64), ("wigner_hermite_closed", 64, 32), ("wigner_hermite_closed", 40, 40)],
)
def test_lg_forms_at_max_degree_match_mpmath(form, j, k):
    """Orders up to MAX_DEGREE against the closed form in 40-digit
    arithmetic, over the square |x|, |y| <= 13 that holds these modes."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = sorted((j, k))

    def exact(x, y):
        with mpmath.workdps(40):
            z = mpmath.mpc(x, y) if j >= k else mpmath.mpc(x, -y)
            rho = mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2
            scale = (-1) ** lo * mpmath.sqrt(mpmath.factorial(lo) / (mpmath.factorial(hi) * mpmath.pi))
            return complex(scale * z ** (hi - lo) * mpmath.exp(-rho / 2) * mpmath.laguerre(lo, hi - lo, rho))

    x, y = np.random.default_rng([22, j, k]).uniform(-13.0, 13.0, size=(2, 40))
    want = np.array([exact(a, b) for a, b in zip(x, y)])
    assert np.abs(want).max() > 0.05  # the samples reach the modes' bulk
    assert np.abs(_LG_FORMS[form](j, k, x, y) - want).max() <= 1e-14


@pytest.mark.parametrize("closed", [wigner_lg_closed, wigner_hg_closed])
@pytest.mark.parametrize("indices", [(2, 1, 0, 3), (1, 2, 3, 0), (3, 1, 1, 3)])
def test_general_closed_forms_on_arrays_match_pointwise_bitwise(closed, indices):
    points = np.random.default_rng([18, *indices]).uniform(-3.0, 3.0, size=(2000, 4))
    got = closed(*indices, PhasePoint4(*points.T))
    want = np.array([closed(*indices, PhasePoint4(*pt)) for pt in points.tolist()])
    assert got.shape == (2000,)
    assert np.array_equal(got, want)
    assert type(closed(*indices, PhasePoint4(*points[0]))) is complex


@pytest.mark.parametrize("diag", [wigner_lg_diag, wigner_hg_diag])
def test_diag_closed_forms_scalar_returns_float(diag):
    assert type(diag(2, 1, PhasePoint4(0.3, -0.5, 1.1, 0.7))) is float
    assert type(diag(2, 1, PhasePoint4(np.float64(0.3), -0.5, 1.1, 0.7))) is float


@pytest.mark.parametrize("field", range(4))
def test_phase_point_rejects_nan_in_array_field(field):
    coords = [np.linspace(-1.0, 1.0, 5) for _ in range(4)]
    coords[field][3] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        PhasePoint4(*coords)
