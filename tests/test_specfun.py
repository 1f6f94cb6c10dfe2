"""Special-function checks against independent oracles: coefficient-wise
symbolic differentiation for the Hermite polynomials, direct evaluation of
the normalization formula for the Hermite functions, high-precision
mpmath references, and central finite differences for every derivative
identity. Also pinned: the blocked recurrences give every point the bits
of a one-element call and make no full-size temporary."""

import tracemalloc

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


@pytest.mark.parametrize("n", [0, 12, 64])
def test_hermite_function_accuracy_on_both_sides_of_the_underflow(n):
    """The documented range: absolute accuracy inside, relative accuracy
    out to |x| = 37.5, and past the underflow of the Gaussian start at
    about 37.6 only the documented absolute bound."""
    mpmath = pytest.importorskip("mpmath")

    def exact(x):
        with mpmath.workdps(40):
            x = mpmath.mpf(x)
            h = mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)
            return h / mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2**n * mpmath.factorial(n))

    for x in (0.0, 2.28, -4.4, 7.32, 11.0):
        assert abs(specfun.hermite_function(n, x) - exact(x)) <= 3e-15
    for x in (30.0, 36.0, 37.0, 37.5, -37.5):
        want = exact(x)
        assert abs(specfun.hermite_function(n, x) - want) <= 1e-13 * abs(want)
    for x in (37.7, 38.0, 38.5, 39.0, 40.0, -39.0):
        assert abs(specfun.hermite_function(n, x) - exact(x)) <= 1e-253


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


@pytest.mark.parametrize("n, alpha", [(16, 24), (32, 32), (40, 24), (64, 0), (0, 64), (63, 1), (1, 63)])
def test_laguerre_matches_mpmath_at_high_degree(n, alpha):
    """The normalized form exp(-x/2) x**(alpha/2) sqrt(n!/(n+alpha)!) L,
    which is how lg_mode uses the polynomial, against 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng([n, alpha])
    xs = np.concatenate([[0.0], rng.uniform(0.0, 4 * n + 2 * alpha + 40, 30)])
    got = specfun.laguerre(n, alpha, xs)
    with mpmath.workdps(50):
        for x, value in zip(xs, got):
            x = mpmath.mpf(float(x))
            norm = mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + alpha))
            scale = mpmath.exp(-x / 2) * x ** (mpmath.mpf(alpha) / 2) * norm
            err = scale * (mpmath.mpf(float(value)) - mpmath.laguerre(n, alpha, x))
            assert abs(err) <= 5e-14


# --- the blocked recurrences ---

_BLOCK = specfun._BLOCK
#: signed zeros, and points past the underflow of the Gaussian start
_SPECIAL = [0.0, -0.0, 38.0, -38.0, 39.0, -39.0]


def _block_inputs() -> dict:
    rng = np.random.default_rng(10)
    inputs = {}
    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
        x = rng.uniform(-12.0, 12.0, size)
        edge = x[_BLOCK - 3 : _BLOCK + 3]  # across the first block boundary
        edge[:] = _SPECIAL[: edge.size]
        x[-6:] = _SPECIAL
        inputs[f"{size} points"] = x
    grid = rng.uniform(-12.0, 12.0, (7, 5))
    grid[2, :] = _SPECIAL[:5]
    inputs["C-ordered 2-D"] = grid
    inputs["F-ordered 2-D"] = np.asfortranarray(grid)
    strided = rng.uniform(-12.0, 12.0, 60)[::3]
    strided[4:10] = _SPECIAL
    inputs["strided view"] = strided
    inputs["0-d"] = np.array(-0.0)
    inputs["empty"] = np.empty(0)
    inputs["(3, 0)"] = np.empty((3, 0))
    return inputs


def _probes(size: int) -> list:
    """Every point of a small input; of a large one the points around each
    block boundary, the special values at its end and a random sample."""
    if size <= 64:
        return list(range(size))
    near = {i for b in range(0, size + 1, _BLOCK) for i in range(b - 3, b + 3)}
    sample = np.random.default_rng(size).choice(size, 20, replace=False)
    return sorted(i for i in near | set(sample.tolist()) | set(range(size - 6, size)) if 0 <= i < size)


_ROUTINES = {
    "laguerre": lambda n, x: specfun.laguerre(n, 24, x),
    "hermite_function": specfun.hermite_function,
    "hermite_function_derivative": specfun.hermite_function_derivative,
    "hermite_function_table": specfun.hermite_function_table,
}


@pytest.mark.parametrize("name", list(_ROUTINES))
@pytest.mark.parametrize("n", [0, 1, 2, 64])
def test_blocked_recurrences_give_each_point_its_one_element_bits(name, n):
    routine = _ROUTINES[name]
    rows = (n + 1,) if name == "hermite_function_table" else ()
    for label, x in _block_inputs().items():
        got = routine(n, x)
        assert np.shape(got) == rows + x.shape, label
        got_flat = np.reshape(got, rows + (x.size,))
        x_flat = x.reshape(-1)
        for i in _probes(x.size):
            alone = routine(n, x_flat[i : i + 1])
            assert _bits(got_flat[..., i]) == _bits(alone), (label, i)


def _peak_bytes(evaluate) -> tuple[int, np.ndarray]:
    """Peak of the memory allocated during ``evaluate()``, and its result."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, out


def test_recurrences_make_no_full_size_temporaries():
    # numpy reports its allocations to tracemalloc; a full-size
    # temporary per step would add the output's size again and again
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 100.0, 262_144)
    peak, out = _peak_bytes(lambda: specfun.laguerre(16, 24, x))
    assert peak < out.nbytes + 2**20
    x = rng.uniform(-14.0, 14.0, 200_000)
    peak, out = _peak_bytes(lambda: specfun.hermite_function_table(64, x))
    assert peak < out.nbytes + 2**20


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


def test_running_quotient_tables_match_exact_factorial_ratios():
    """Every entry the three routes read from their running-quotient tables
    against 40-digit mpmath: the closed-form scale (-1)**lo sqrt(lo!/hi!)
    / sqrt(pi) and the LG amplitude sqrt(lo!/hi!) for lo <= hi <=
    MAX_DEGREE, and the beam's p!/(p + |ell|)! for p, |ell| <= MAX_DEGREE."""
    mpmath = pytest.importorskip("mpmath")
    from lgwigner.beam import _FACTORIAL_RATIO
    from lgwigner.modes import _SQRT_FACTORIAL_RATIO
    from lgwigner.wigner import _CLOSED_SCALE

    top = specfun.MAX_DEGREE
    worst = 0.0
    with mpmath.workdps(40):
        factorial = [mpmath.factorial(i) for i in range(2 * top + 1)]

        def relative(got, want):
            return abs(float((mpmath.mpf(float(got)) - want) / want))

        for lo in range(top + 1):
            for hi in range(lo, top + 1):
                root = mpmath.sqrt(factorial[lo] / factorial[hi])
                worst = max(
                    worst,
                    relative(_CLOSED_SCALE[lo, hi], (-1) ** lo * root / mpmath.sqrt(mpmath.pi)),
                    relative(_SQRT_FACTORIAL_RATIO[lo, hi], root),
                )
            for ell in range(top + 1):
                worst = max(worst, relative(_FACTORIAL_RATIO[lo, lo + ell], factorial[lo] / factorial[lo + ell]))
    assert worst <= 2e-15
