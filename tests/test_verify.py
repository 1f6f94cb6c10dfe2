"""Verification engine plumbing: suite registry, determinism, report
shape, and the quantization pairing check."""

import json

import numpy as np
import pytest

from lgwigner.modes import DEFAULT_FD_STEP, ModeIndex, lg_mode
from lgwigner.specfun import hermite_function
from lgwigner.verify import (
    SIGMA_SYMBOLS,
    SUITE_CHECKS,
    SUITE_NAMES,
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


def test_registry_matches_manifest():
    assert SUITE_CHECKS == MANIFEST
    assert set(SUITE_NAMES) == set(MANIFEST) | {"all"}


def test_unknown_suite_and_budget():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=1)
    with pytest.raises(ValueError):
        run_suite("beam", seed=1, budget="medium")


def test_report_shape_and_consistency():
    report = run_suite("beam", seed=5, budget="quick")
    assert report.suite == "beam"
    assert report.seed == 5
    assert tuple(c.name for c in report.checks) == MANIFEST["beam"]
    for check in report.checks:
        assert check.passed == (check.max_abs_err <= check.tolerance)
        assert check.samples > 0
        assert check.elapsed_ms >= 0.0
    assert report.passed == all(c.passed for c in report.checks)
    assert report.passed


def test_determinism_modulo_elapsed():
    def strip(report):
        d = report.as_dict()
        for c in d["checks"]:
            c.pop("elapsed_ms")
        return d

    a = run_suite("polarization", seed=3, budget="quick")
    b = run_suite("polarization", seed=3, budget="quick")
    assert strip(a) == strip(b)
    c = run_suite("polarization", seed=4, budget="quick")
    assert strip(a) != strip(c)


def test_report_margin_is_error_over_tolerance():
    report = run_suite("polarization", seed=3, budget="quick")
    for check in report.as_dict()["checks"]:
        assert check["margin"] == check["max_abs_err"] / check["tolerance"]
        assert (check["margin"] <= 1.0) == check["passed"]


def test_report_records_budget():
    assert run_suite("beam", seed=1, budget="quick").as_dict()["budget"] == "quick"
    assert run_suite("beam", seed=1, budget="full").budget == "full"


def test_all_concatenates_every_suite():
    report = run_suite("all", seed=2, budget="quick")
    expected = [name for suite in MANIFEST for name in MANIFEST[suite]]
    assert [c.name for c in report.checks] == expected
    assert report.suite == "all"


def test_json_round_trip():
    report = run_suite("orthogonality", seed=1, budget="quick")
    parsed = json.loads(report.to_json())
    assert parsed["suite"] == "orthogonality"
    assert parsed["passed"] is True
    assert [c["name"] for c in parsed["checks"]] == list(MANIFEST["orthogonality"])


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


def test_weyl_pairing_check_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        weyl_pairing_check("x3", 0, 0)


def test_quick_suites_pass():
    for name in ("properties", "orthogonality", "closedforms", "weyl"):
        assert run_suite(name, seed=1, budget="quick").passed, name


def test_quick_budget_runtime():
    # everything except the 2D-oracle suite must finish well inside 60 s
    import time

    t0 = time.perf_counter()
    for name in SUITE_NAMES:
        if name in ("all", "product_theorem"):
            continue
        run_suite(name, seed=9, budget="quick")
    assert time.perf_counter() - t0 < 60.0


# --- quadrature sized from mode degrees ---


def _h(n):
    return lambda t: hermite_function(n, t)


def _hg(j, k):
    return lambda u, v: hermite_function(j, u) * hermite_function(k, v)


def _lg(j, k):
    return lambda u, v: lg_mode(ModeIndex.lg(j, k), u, v)


def _weyl_values(quad):
    pairings, _ = _weyl_pairings([(4, 4), (4, 3), (0, 4)], quad)
    return np.concatenate([np.concatenate(sides) for sides in pairings.values()])


_EDGE = np.array([-2.0, 0.7, 2.0])

#: Each oracle at the largest integrand degree and reach (largest |xi|)
#: that a full-budget check sizes it for, evaluated out to that reach.
_SIZED_ORACLES = {
    # hermiticity: degree 16, |xi| <= 2
    "wigner1d": (16, 2.0, lambda q: wigner1d(_h(8), _h(8), _EDGE, -_EDGE, q)),
    # total_integral: degree 16 on [-12, 12]
    "wigner1d_grid": (
        16,
        12.0,
        lambda q: wigner1d_grid(_h(8), _h(8), np.linspace(-3, 3, 7), np.linspace(-12, 12, 9), q),
    ),
    # intertwine: raised targets of degree 9, |y| <= 2 plus the difference step
    "extended_wigner": (
        9,
        2.0 + DEFAULT_FD_STEP,
        lambda q: extended_wigner(_hg(4, 5), _EDGE, -(_EDGE + DEFAULT_FD_STEP), q),
    ),
    # extended_wigner_maps_hg_to_lg: degree 12; wtilde_inner_products: |y| <= 8
    "extended_wigner_grid": (
        12,
        8.0,
        lambda q: extended_wigner_grid(_hg(6, 6), np.linspace(-8, 8, 9), np.linspace(-8, 8, 9), q),
    ),
    # lg_product_vs_quadrature2d: j + k + m + n <= 12, |xi| <= 2
    "wigner2d": (12, 2.0, lambda q: wigner2d(_lg(3, 3), _lg(2, 4), PhasePoint4(0.4, -1.1, 2.0, -2.0), q)),
    # weyl: f + g <= 8, so kernel moments of degree 10; oracle across [-12, 12]
    "weyl": (10, 12.0, _weyl_values),
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
