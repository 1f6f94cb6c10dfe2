"""Verification engine plumbing: suite registry, determinism, report
shape, and the quantization pairing check."""

import json

import numpy as np
import pytest

from lgwigner.beam import BeamIndex, BeamParams, beam_field, beam_geometry
from lgwigner import modes, verify, wigner
from lgwigner.modes import ModeIndex, lg_mode
from lgwigner.specfun import hermite_function, hermite_function_derivative, hermite_function_table
from lgwigner.verify import (
    SIGMA_SYMBOLS,
    SUITE_CHECKS,
    SUITE_NAMES,
    _gram,
    _weyl_pairings,
    run_suite,
    weyl_pairing_check,
)
from lgwigner.wigner import (
    PhasePoint4,
    QuadratureSpec,
    extended_wigner,
    extended_wigner_grid,
    wigner1d,
    wigner1d_grid,
    wigner2d,
)

# Static manifest: every identity family the library claims to certify
# must appear as a named check in exactly this layout.
MANIFEST = {
    "properties": ("hermiticity", "xi_marginal", "x_marginal", "total_integral"),
    "moyal": ("moyal_kronecker",),
    "orthogonality": ("hermite_orthonormality", "lg_mode_orthonormality"),
    "intertwine": (
        "intertwine_Aplusdag_a1dag",
        "intertwine_Aminusdag_a2dag",
        "intertwine_Aplus_a1",
        "intertwine_Aminus_a2",
    ),
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
    "weyl": ("weyl_pairing_one", "weyl_pairing_x", "weyl_pairing_xi", "weyl_pairing_x2_plus_xi2"),
    "beam": ("waist_plane_matches_lg", "gouy_at_rayleigh", "transverse_norm_constant"),
}

# Each check's tolerance and sample count, pinned apart from the engine:
# a loosened gate or a shrunken sample shows here. The counts are the
# same at every seed.
GATES = {
    "hermiticity": (1e-12, 150),
    "xi_marginal": (1e-8, 324),
    "x_marginal": (1e-8, 405),
    "total_integral": (1e-7, 81),
    "moyal_kronecker": (1e-8, 1296),
    "hermite_orthonormality": (1e-10, 169),
    "lg_mode_orthonormality": (1e-8, 625),
    "intertwine_Aplusdag_a1dag": (1e-6, 1250),
    "intertwine_Aminusdag_a2dag": (1e-6, 1250),
    "intertwine_Aplus_a1": (1e-6, 1250),
    "intertwine_Aminus_a2": (1e-6, 1250),
    "hermite_closed_vs_quadrature": (1e-8, 35721),
    "lg_mode_equals_hermite_closed": (1e-12, 35721),
    "extended_wigner_maps_hg_to_lg": (1e-9, 5929),
    "fixed_point_quadrature": (1e-10, 441),
    "lg_product_vs_quadrature2d": (1e-6, 32),
    "hg_product_vs_quadrature2d": (1e-6, 8),
    "lg_diag_consistency": (1e-12, 100),
    "hg_diag_consistency": (1e-12, 100),
    "polarization_identity": (1e-8, 20),
    "wtilde_inner_products": (1e-6, 100),
    "rotfft_fixed_point": (1e-6, 2304),
    "rotfft_maps_hg_to_lg": (1e-5, 94772),
    "rotfft_parseval": (1e-6, 1),
    "weyl_pairing_one": (1e-6, 25),
    "weyl_pairing_x": (1e-6, 25),
    "weyl_pairing_xi": (1e-6, 25),
    "weyl_pairing_x2_plus_xi2": (1e-6, 25),
    "waist_plane_matches_lg": (1e-8, 5),
    "gouy_at_rayleigh": (1e-12, 2),
    "transverse_norm_constant": (1e-8, 15),
}


def test_registry_matches_manifest():
    assert SUITE_CHECKS == MANIFEST
    assert set(SUITE_NAMES) == set(MANIFEST) | {"all"}


def test_unknown_suite_and_budget():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=1)
    for budget in ("medium", "quick"):
        with pytest.raises(ValueError, match="the one budget is 'full'"):
            run_suite("beam", seed=1, budget=budget)


def test_report_shape_and_consistency():
    report = run_suite("beam", seed=5)
    assert report.suite == "beam"
    assert report.seed == 5
    assert tuple(c.name for c in report.checks) == MANIFEST["beam"]
    for check in report.checks:
        assert check.passed == (check.max_abs_err <= check.tolerance)
        assert check.samples > 0
        assert check.elapsed_ms >= 0.0
    assert report.passed == all(c.passed for c in report.checks)
    assert report.passed


def _without_timings(report):
    d = report.as_dict()
    for c in d["checks"]:
        c.pop("elapsed_ms")
    return d


def test_determinism_modulo_elapsed():
    a = run_suite("polarization", seed=3)
    b = run_suite("polarization", seed=3)
    assert _without_timings(a) == _without_timings(b)
    c = run_suite("polarization", seed=4)
    assert _without_timings(a) != _without_timings(c)


def test_report_margin_is_error_over_tolerance():
    report = run_suite("polarization", seed=3)
    for check in report.as_dict()["checks"]:
        assert check["margin"] == check["max_abs_err"] / check["tolerance"]
        assert (check["margin"] <= 1.0) == check["passed"]


def test_report_records_no_budget():
    default, full = run_suite("beam", seed=1), run_suite("beam", seed=1, budget="full")
    assert "budget" not in default.as_dict() and not hasattr(default, "budget")
    assert _without_timings(default) == _without_timings(full)
    with pytest.raises(ValueError):
        run_suite("beam", seed=1, budget="quick")


def test_all_concatenates_every_suite():
    report = run_suite("all", seed=2)
    expected = [name for suite in MANIFEST for name in MANIFEST[suite]]
    assert [c.name for c in report.checks] == expected
    assert [(c.name, c.tolerance, c.samples) for c in report.checks] == [(n, *GATES[n]) for n in expected]
    assert report.suite == "all"


def test_every_check_keeps_headroom_at_seeds_0_to_39():
    # every check uses at most 1% of its tolerance at every seed, so a
    # change that draws differently cannot use up a margin quietly;
    # `not <=` also catches a NaN margin
    over = [
        (seed, check.name, check.margin)
        for seed in range(40)
        for check in run_suite("all", seed).checks
        if not check.margin <= 0.01
    ]
    assert not over


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (-1, ValueError, r"^seed -1 outside supported range \[0, inf\)$"),
        (1.5, TypeError, "^seed must be an integer, got float$"),
        (True, TypeError, "^seed must be an integer, got bool$"),
        ("3", TypeError, "^seed must be an integer, got str$"),
    ],
)
@pytest.mark.parametrize("suite", ["beam", "polarization"])
def test_seed_follows_the_integer_rule(suite, seed, error, message):
    with pytest.raises(error, match=message):
        run_suite(suite, seed=seed)


def test_seed_accepts_numpy_integers():
    report = run_suite("beam", seed=np.int64(3))
    assert _without_timings(report) == _without_timings(run_suite("beam", seed=3))
    assert type(report.seed) is int and json.loads(report.to_json())["seed"] == 3


def test_json_round_trip():
    report = run_suite("orthogonality", seed=1)
    parsed = json.loads(report.to_json())
    assert parsed["suite"] == "orthogonality"
    assert parsed["passed"] is True
    assert [c["name"] for c in parsed["checks"]] == list(MANIFEST["orthogonality"])


def test_intertwine_checks_fail_on_a_sign_flipped_hermite_derivative(monkeypatch):
    # the partials under the integral come from the HG partials kernel,
    # which reads h_n' through modes, so a wrong sign there must show
    # against the index-space ladder action
    derivative = modes.hermite_function_derivative
    monkeypatch.setattr(modes, "hermite_function_derivative", lambda n, x: -derivative(n, x))
    report = run_suite("intertwine", seed=7)
    assert [c.name for c in report.checks] == list(MANIFEST["intertwine"])
    assert not any(c.passed for c in report.checks)


def test_rotfft_check_fails_on_a_conjugated_shift_ramp(monkeypatch):
    # exp(-i k shift) shears the wrong way, so the rotation is wrong and
    # HG(j, k) no longer maps to LG(j, k)
    ramp = wigner._shift_ramp
    monkeypatch.setattr(wigner, "_shift_ramp", lambda *args: np.conj(ramp(*args)))
    report = {c.name: c for c in run_suite("unitarity", seed=7).checks}
    assert not report["rotfft_maps_hg_to_lg"].passed


@pytest.mark.parametrize("shape", [(2, 5, 5), (4, 4)])
def test_superposition_2d_matches_the_explicit_double_sum(shape):
    # the field on both sides of wtilde_inner_products (a stack) and in
    # rotfft_parseval (one superposition); a j <-> k swap of its
    # contraction passes every suite
    rng = np.random.default_rng(3)
    coeffs = verify._random_coeffs(rng, shape)
    u, v = rng.uniform(-3.0, 3.0, size=(7, 1)), rng.uniform(-3.0, 3.0, size=(1, 6))
    got = verify._superposition_2d(coeffs)(u, v)
    degrees = range(shape[-1])
    want = sum(
        coeffs[..., j, k, None, None] * hermite_function(j, u) * hermite_function(k, v)
        for j in degrees
        for k in degrees
    )
    assert got.shape == shape[:-2] + (7, 6)
    assert np.abs(got - want).max() <= 1e-15


def test_timed_reduces_every_deviation():
    dev = np.array([[1e-9, -3e-7, 2e-7j], [0.0, 1e-8, -1e-9j]])
    check = verify._timed("t", 1e-6, lambda: dev)
    assert check.max_abs_err == 3e-7 and check.passed and check.samples == dev.size
    # a NaN anywhere fails the check, which Python's max would miss
    for position in range(dev.size):
        with_nan = dev.copy()
        with_nan.flat[position] = np.nan
        check = verify._timed("t", 1e-6, lambda: with_nan)
        assert np.isnan(check.max_abs_err) and not check.passed
        assert check.samples == dev.size


def _nan_wigner2d(*args, **kwargs):
    return complex(np.nan)


def _nan_beam_field(index, params, r, phi, z):
    return np.full(np.broadcast(r, phi).shape, complex(np.nan))


def _nan_gouy_below_the_waist(params, z):
    geometry = beam_geometry(params, z)
    return geometry._replace(gouy=np.nan) if z < 0 else geometry


#: Per check: its suite and a NaN defect, as (module, attribute,
#: replacement), that a reduction with Python's max would let pass at 0.0
_NAN_DEFECTS = {
    "lg_product_vs_quadrature2d": ("product_theorem", verify, "wigner2d", _nan_wigner2d),
    "hg_product_vs_quadrature2d": ("product_theorem", verify, "wigner2d", _nan_wigner2d),
    "waist_plane_matches_lg": ("beam", verify._beam, "beam_field", _nan_beam_field),
    "transverse_norm_constant": ("beam", verify._beam, "beam_field", _nan_beam_field),
    "gouy_at_rayleigh": ("beam", verify._beam, "beam_geometry", _nan_gouy_below_the_waist),
}


@pytest.mark.parametrize("check", list(_NAN_DEFECTS))
def test_check_fails_on_a_nan(monkeypatch, check):
    suite, module, attr, defect = _NAN_DEFECTS[check]
    monkeypatch.setattr(module, attr, defect)
    result = {c.name: c for c in run_suite(suite, seed=7).checks}[check]
    assert np.isnan(result.max_abs_err) and not result.passed


def test_weyl_pairing_check_identity_symbol():
    same = weyl_pairing_check("one", 2, 2)
    assert same.passed and same.max_abs_err <= 1e-6
    different = weyl_pairing_check("one", 0, 1)
    assert different.passed
    assert same.name == "weyl_pairing_one_f2_g2"


def test_weyl_pairing_check_quadratic_symbol():
    result = weyl_pairing_check("x2+xi2", 3, 3)
    assert result.passed and result.name == "weyl_pairing_x2_plus_xi2_f3_g3"


@pytest.mark.parametrize("f, g", [(2.0, 2), (True, True), (True, 2), (1, 0.0)])
def test_weyl_pairing_check_rejects_non_integer_degree(f, g):
    with pytest.raises(TypeError):
        weyl_pairing_check("one", f, g)


@pytest.mark.parametrize("f, g", [(31, 31), (62, 0), (0, 62)])
def test_weyl_pairing_check_passes_at_its_degree_edges(f, g):
    assert weyl_pairing_check("one", f, g).passed


@pytest.mark.parametrize("f, g, name", [(32, 31, "g"), (0, 63, "g"), (-1, 0, "f"), (63, 0, "f")])
def test_weyl_pairing_check_refuses_a_degree_under_its_own_name(f, g, name):
    with pytest.raises(ValueError, match=rf"^{name} -?\d+ outside supported range"):
        weyl_pairing_check("one", f, g)


def test_weyl_pairing_check_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        weyl_pairing_check("x3", 0, 0)


# --- quadrature sized from mode degrees ---


def _h(n):
    return lambda t: hermite_function(n, t)


def _hg(j, k):
    return lambda u, v: hermite_function(j, u) * hermite_function(k, v)


def _lg(j, k):
    return lambda u, v: lg_mode(ModeIndex.lg(j, k), u, v)


def _dx_integrand(j, k):
    """Integrand of d/dx Wt(h_j (x) h_k): (F_u + F_v) / sqrt2."""
    d = hermite_function_derivative
    return lambda u, v: (d(j, u) * hermite_function(k, v) + hermite_function(j, u) * d(k, v)) / np.sqrt(2.0)


def _weyl_values(quad):
    pairings, _ = _weyl_pairings([(4, 4), (4, 3), (0, 4)], quad)
    return np.concatenate([np.concatenate(sides) for sides in pairings.values()])


def _half_width(degree):
    return QuadratureSpec.for_degree(degree).half_width


def _gram_on(quad, stack, ndim=2):
    """Weighted Gram matrix of the fields ``stack(axis, quad)`` returns,
    stacked ahead of their samples on the ``ndim``-fold grid of ``quad``."""
    axis, w = quad.grid()
    return _gram(stack(axis, quad), np.outer(w, w) if ndim == 2 else w)


def _moyal_gram(quad):
    pairs = [(5, 5), (5, 0), (4, 5), (0, 0)]
    return _gram_on(quad, lambda a, q: np.array([wigner1d_grid(_h(j), _h(k), a, a, q) for j, k in pairs]))


def _lg_gram(quad):
    pairs = [(4, 4), (0, 4), (3, 1)]
    return _gram_on(quad, lambda a, q: np.array([_lg(j, k)(a[:, None], a[None, :]) for j, k in pairs]))


def _wtilde_grams(quad):
    pairs = [(5, 5), (5, 0), (2, 3)]
    fields = [_hg(j, k) for j, k in pairs]
    grid_in = lambda a, q: np.array([f(a[:, None], a[None, :]) for f in fields])
    grid_out = lambda a, q: np.array([extended_wigner_grid(f, a, a, q) for f in fields])
    return np.concatenate([_gram_on(quad, grid_in), _gram_on(quad, grid_out)])


_BEAM_PARAMS = BeamParams(w0=1.3, k=9.0)


def _beam_norm(quad):
    z = 3.0 * _BEAM_PARAMS.zR
    scale = beam_geometry(_BEAM_PARAMS, z).w / np.sqrt(2.0)
    u, w = quad.grid()
    x, y = scale * u[:, None], scale * u[None, :]
    vals = beam_field(BeamIndex(2, -1), _BEAM_PARAMS, np.hypot(x, y), np.arctan2(y, x), z)
    return np.sum(np.abs(vals) ** 2 * np.outer(w, w)) * scale**2


_EDGE = np.array([-2.0, 0.7, 2.0])

#: Each oracle at the largest integrand degree and reach (largest |xi|)
#: that a check sizes it for, evaluated out to that reach,
#: and each outer Gram or norm at the degree its check sizes it for.
_SIZED_ORACLES = {
    # hermiticity: degree 16, |xi| <= 2
    "wigner1d": (16, 2.0, lambda q: wigner1d(_h(8), _h(8), _EDGE, -_EDGE, q)),
    # total_integral: degree 16 on [-12, 12]
    "wigner1d_grid": (
        16,
        12.0,
        lambda q: wigner1d_grid(_h(8), _h(8), np.linspace(-3, 3, 7), np.linspace(-12, 12, 9), q),
    ),
    # intertwine: the x partial under the integral, of degree 2 cap + 1 = 9,
    # |y| <= 2 (the shared value stack, to degree 2 cap + 2, takes its own)
    "extended_wigner": (9, 2.0, lambda q: extended_wigner(_dx_integrand(4, 4), _EDGE, -_EDGE, q)),
    # extended_wigner_maps_hg_to_lg: degree 12; wtilde_inner_products: |y| <= 8
    "extended_wigner_grid": (
        12,
        8.0,
        lambda q: extended_wigner_grid(_hg(6, 6), np.linspace(-8, 8, 9), np.linspace(-8, 8, 9), q),
    ),
    # lg_product_vs_quadrature2d: j + k + m + n <= 12, |xi| <= 2
    "wigner2d": (12, 2.0, lambda q: wigner2d(_lg(3, 3), _lg(2, 4), PhasePoint4(0.4, -1.1, 2.0, -2.0), q)),
    # weyl: f + g <= 8, so kernel moments of degree 10; one product spec
    # for the kernel, the frequency sum and the phase-space grid
    "weyl": (10, _half_width(10), _weyl_values),
    # the outer Grams and norms take the product rule: degree d, reach
    # the half-width of d
    "moyal_gram": (10, _half_width(10), _moyal_gram),
    "hermite_gram": (
        12,
        _half_width(12),
        lambda q: _gram_on(q, lambda a, _: hermite_function_table(12, a), ndim=1),
    ),
    "lg_gram": (8, _half_width(8), _lg_gram),
    "wtilde_gram": (10, _half_width(10), _wtilde_grams),
    # transverse_norm_constant: (2, -1) is of degree 2p + |ell| = 5 in sqrt2 r / w(z)
    "beam_norm": (5, _half_width(5), _beam_norm),
}


@pytest.mark.parametrize("name", list(_SIZED_ORACLES))
def test_sized_quadrature_is_converged_and_not_oversized(name):
    degree, reach, evaluate = _SIZED_ORACLES[name]
    spec = QuadratureSpec.for_degree(degree, reach)
    finer = evaluate(QuadratureSpec(spec.half_width + 2.0, 2 * spec.nodes))
    # 1e-13 absolute for values of order one; the weyl pairings of
    # x2 + xi2 are of order 18 and carry rounding in proportion
    scale = np.maximum(1.0, np.abs(finer))
    assert np.all(np.abs(evaluate(spec) - finer) <= 1e-13 * scale)
    # half the nodes on the same window is visibly under-resolved
    coarse = evaluate(QuadratureSpec(spec.half_width, spec.nodes // 4 * 2))
    assert np.abs(coarse - finer).max() > 1e-8
