"""Special-function checks against independent oracles: coefficient-wise
symbolic differentiation for the Hermite polynomials, direct evaluation of
the normalization formula for the Hermite functions, and central finite
differences for every derivative identity."""

import numpy as np
import pytest

from lgwigner import specfun


# --- independent oracle: d^n/dx^n exp(-x^2) carried out coefficient-wise ---


def _gaussian_derivative_coeffs(n):
    """Ascending coefficients of P_n with d^n/dx^n exp(-x^2) = P_n exp(-x^2)."""
    p = np.array([1.0])
    for _ in range(n):
        dp = np.zeros(max(len(p) - 1, 1))
        for i in range(1, len(p)):
            dp[i - 1] = i * p[i]
        shifted = np.concatenate(([0.0], p))  # x * P
        new = np.zeros(len(p) + 1)
        new[: len(dp)] += dp
        new -= 2.0 * shifted
        p = new
    return p


def _hermite_rodrigues(n, x):
    coeffs = _gaussian_derivative_coeffs(n)
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs[::-1]:
        acc = acc * x + c
    return (-1.0) ** n * acc


def _trap(lo, hi, n):
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def test_hermite_poly_spot_values():
    assert specfun.hermite_poly(0, 0.7) == 1.0
    assert specfun.hermite_poly(1, 2.0) == pytest.approx(4.0, abs=0)
    assert specfun.hermite_poly(2, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_hermite_poly_matches_rodrigues_oracle():
    xs = np.linspace(-3.0, 3.0, 25)
    for n in range(7):
        got = specfun.hermite_poly(n, xs)
        want = _hermite_rodrigues(n, xs)
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / scale) <= 1e-9


def test_hermite_function_ground_state():
    assert specfun.hermite_function(0, 0.0) == pytest.approx(np.pi**-0.25, abs=1e-15)
    assert specfun.hermite_function(0, 0.0) == pytest.approx(0.7511255444649425, abs=1e-15)
    assert specfun.hermite_function(1, 0.0) == 0.0


def test_hermite_function_matches_direct_formula():
    # pi**-1/4 (n!)**-1/2 2**(-n/2) exp(-x^2/2) H_n(x) at n=3
    x = 1.25
    want = (
        np.pi**-0.25
        * 6.0**-0.5
        * 2.0**-1.5
        * np.exp(-0.5 * x * x)
        * specfun.hermite_poly(3, x)
    )
    assert specfun.hermite_function(3, x) == pytest.approx(want, rel=1e-13)


def test_hermite_function_parity():
    xs = np.linspace(0.1, 4.0, 17)
    for n in range(13):
        left = specfun.hermite_function(n, -xs)
        right = (-1.0) ** n * specfun.hermite_function(n, xs)
        assert np.max(np.abs(left - right)) <= 1e-14


def test_hermite_function_orthonormality():
    x, w = _trap(-16.0, 16.0, 1024)
    table = specfun.hermite_function_table(12, x)
    gram = (table * w) @ table.T
    assert np.abs(gram - np.eye(13)).max() <= 1e-10


def test_hermite_function_table_matches_single():
    xs = np.linspace(-2.0, 2.0, 9)
    table = specfun.hermite_function_table(8, xs)
    for n in range(9):
        assert np.allclose(table[n], specfun.hermite_function(n, xs), rtol=0, atol=1e-15)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def test_hermite_function_and_derivative_are_table_rows_bitwise():
    # one recurrence, so every entry point gives the table's bits, signed
    # zeros and the underflow region past |x| = 38 included
    x = np.concatenate([np.linspace(-14.0, 14.0, 201), [0.0, -0.0, 38.0, -39.0]])
    table = specfun.hermite_function_table(64, x)
    # one step past the table gives h_65 for the derivative of h_64
    h65 = x * np.sqrt(2.0 / 65) * table[64] - np.sqrt(64 / 65.0) * table[63]
    rows = np.concatenate([table, h65[None]])
    for n in range(65):
        if n == 0:
            ladder = -np.sqrt(0.5) * rows[1]
        else:
            ladder = np.sqrt(n / 2.0) * rows[n - 1] - np.sqrt((n + 1) / 2.0) * rows[n + 1]
        assert _bits(specfun.hermite_function(n, x)) == _bits(table[n])
        assert _bits(specfun.hermite_function_derivative(n, x)) == _bits(ladder)
        for i in (0, 77, 100, 202, 203, 204):
            assert _bits(specfun.hermite_function(n, float(x[i]))) == _bits(table[n, i])
            assert _bits(specfun.hermite_function_derivative(n, float(x[i]))) == _bits(ladder[i])


def test_hermite_derivative_trivial_points():
    assert specfun.hermite_function_derivative(0, 0.0) == 0.0
    want = -np.pi**-0.25 * np.exp(-0.5)
    assert specfun.hermite_function_derivative(0, 1.0) == pytest.approx(want, abs=1e-15)


def test_hermite_derivative_matches_finite_difference():
    step = 1e-5
    for n, x in [(2, 0.5), (0, -1.2), (5, 1.7), (8, -0.3)]:
        fd = (specfun.hermite_function(n, x + step) - specfun.hermite_function(n, x - step)) / (
            2 * step
        )
        assert specfun.hermite_function_derivative(n, x) == pytest.approx(fd, abs=1e-8)


def test_laguerre_spot_values():
    assert specfun.laguerre(0, 3, 7.2) == 1.0
    assert specfun.laguerre(1, 0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert specfun.laguerre(1, 1, 0.0) == pytest.approx(2.0, abs=0)


def test_laguerre_derivative_identity():
    # d/dx L^a_n = -L^(a+1)_(n-1), checked against central differences
    step = 1e-6
    xs = np.linspace(0.1, 6.0, 7)
    for n in range(1, 9):
        for alpha in (0, 1, 3):
            fd = (specfun.laguerre(n, alpha, xs + step) - specfun.laguerre(n, alpha, xs - step)) / (
                2 * step
            )
            want = -specfun.laguerre(n - 1, alpha + 1, xs)
            assert np.max(np.abs(fd - want)) <= 1e-7


def test_degree_and_argument_validation():
    with pytest.raises(ValueError):
        specfun.hermite_poly(-1, 0.0)
    with pytest.raises(ValueError):
        specfun.hermite_poly(65, 0.0)
    with pytest.raises(TypeError):
        specfun.hermite_poly(1.5, 0.0)
    with pytest.raises(ValueError):
        specfun.hermite_function(66, 0.0)
    with pytest.raises(ValueError):
        specfun.hermite_function(2, np.inf)
    with pytest.raises(ValueError):
        specfun.hermite_function_derivative(65, 0.0)
    with pytest.raises(ValueError):
        specfun.laguerre(3, -1, 0.5)
    with pytest.raises(TypeError):
        specfun.laguerre(3, 0.5, 0.5)
    with pytest.raises(ValueError):
        specfun.laguerre(3, 0, np.nan)


def test_scalar_in_scalar_out():
    assert isinstance(specfun.hermite_function(4, 0.3), float)
    out = specfun.hermite_function(4, np.array([0.3, 0.4]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
