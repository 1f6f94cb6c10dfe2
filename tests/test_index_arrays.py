"""Integer indices that broadcast like coordinates: the Laguerre polynomial,
the Hermite function and its derivative, the HG and LG evaluators behind
``hg_mode`` and ``lg_mode``, their partials kernels (so the basis fields)
and the closed forms take index arrays, and every value of a batched call
has the bits of its own scalar-index call. Index arrays follow the scalar integer rule,
and the per-point Laguerre path keeps the accuracy the docstring claims,
against mpmath."""

import numpy as np
import pytest

from lgwigner.modes import (
    Basis,
    LadderOp,
    ModeIndex,
    _BasisField,
    _hg_modes,
    _hg_partial,
    _lg_modes,
    _lg_partial,
    apply_operator_pointwise,
    hg_field,
    hg_mode,
    lg_field,
    lg_mode,
)
from lgwigner.specfun import MAX_DEGREE, hermite_function, hermite_function_derivative, laguerre
from lgwigner.wigner import (
    PhasePoint4,
    wigner_hermite_closed,
    wigner_hg_closed,
    wigner_hg_diag,
    wigner_lg_closed,
    wigner_lg_diag,
)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def _laguerre_points() -> np.ndarray:
    # zeros of both signs, the far tail and a random spread
    rng = np.random.default_rng(180)
    return np.concatenate([[0.0, -0.0, 1e-300, 38.7, 300.0], rng.uniform(0.0, 300.0, 500)])


@pytest.mark.parametrize("alpha", [0, 1, 24, 63])
def test_laguerre_degree_stack_has_the_bits_of_each_degree(alpha):
    x = _laguerre_points()
    degrees = np.arange(MAX_DEGREE + 1)
    stack = laguerre(degrees[:, None], alpha, x)
    assert stack.shape == (MAX_DEGREE + 1, x.size)
    for n in degrees:
        assert _bits(stack[n]) == _bits(laguerre(int(n), alpha, x)), n


@pytest.mark.parametrize(
    "n_shape, alpha_shape, x_shape",
    [
        ((7, 1, 1), (1, 5, 1), (1, 1, 9)),  # pairs ahead of points: one table per alpha
        ((45,), (45,), (45,)),  # per point
        ((3, 1), (3, 1), (1, 4)),
        ((), (6, 1), (6, 2)),  # a scalar degree with an alpha array
        ((40, 1), (), (1, 3)),  # more distinct alphas than points: per point
    ],
)
def test_laguerre_index_arrays_broadcast_with_scalar_index_bits(n_shape, alpha_shape, x_shape):
    rng = np.random.default_rng([181, len(n_shape), len(x_shape)])
    n = rng.integers(0, MAX_DEGREE + 1, n_shape)
    alpha = rng.integers(0, 40, alpha_shape)
    x = rng.uniform(0.0, 200.0, x_shape)
    got = laguerre(n, alpha, x)
    n_b, alpha_b, x_b = np.broadcast_arrays(n, alpha, x)
    assert got.shape == x_b.shape
    want = [laguerre(int(a), int(b), float(c)) for a, b, c in zip(n_b.flat, alpha_b.flat, x_b.flat)]
    assert _bits(got.ravel()) == _bits(np.array(want))


@pytest.mark.parametrize("form", [hermite_function, hermite_function_derivative], ids=lambda f: f.__name__)
def test_hermite_degree_stack_has_the_bits_of_each_degree(form):
    rng = np.random.default_rng(182)
    x = np.concatenate([[0.0, -0.0, 38.0, -39.0], rng.uniform(-12.0, 12.0, 500)])
    stack = form(np.arange(MAX_DEGREE + 1)[:, None], x)
    for n in range(MAX_DEGREE + 1):
        assert _bits(stack[n]) == _bits(form(n, x)), n
    degrees = rng.integers(0, MAX_DEGREE + 1, x.size)
    want = [form(int(d), float(t)) for d, t in zip(degrees, x)]
    assert _bits(form(degrees, x)) == _bits(np.array(want))


def _plane_points():
    """Points with the origin (both zero signs) and points past |z| = 38.6,
    where the Gaussian underflows, among a random spread."""
    rng = np.random.default_rng(183)
    x = np.concatenate([[0.0, -0.0, 0.0, -0.0, 27.4, -40.0, 1e4], rng.uniform(-9.0, 9.0, 200)])
    y = np.concatenate([[0.0, -0.0, -0.0, 0.0, 28.0, 1.0, -2.0], rng.uniform(-9.0, 9.0, 200)])
    return x, y


_PAIR_FORMS = {
    "hg_mode": (_hg_modes, lambda j, k, x, y: hg_mode(ModeIndex.hg(j, k), x, y)),
    "lg_mode": (_lg_modes, lambda j, k, x, y: lg_mode(ModeIndex.lg(j, k), x, y)),
    "wigner_hermite_closed": (wigner_hermite_closed, wigner_hermite_closed),
}


@pytest.mark.parametrize("form", list(_PAIR_FORMS))
def test_pair_stack_to_order_12_has_the_bits_of_each_pair(form):
    batched, single = _PAIR_FORMS[form]
    x, y = _plane_points()
    d = np.arange(13)
    stack = batched(d[:, None, None], d[None, :, None], x, y)
    assert stack.shape == (13, 13, x.size)
    for j in range(13):
        for k in range(13):
            assert _bits(stack[j, k]) == _bits(single(j, k, x, y)), (j, k)


#: basis -> (its basis fields' value kernel, partials kernel, per-index field)
_FIELDS = {Basis.HG: (_hg_modes, _hg_partial, hg_field), Basis.LG: (_lg_modes, _lg_partial, lg_field)}


@pytest.mark.parametrize("basis", list(Basis), ids=lambda basis: basis.value)
def test_batched_field_entries_have_the_bits_of_each_basis_field(basis):
    value, partial, field = _FIELDS[basis]
    x, y = _plane_points()
    first, second = np.array([(a, order - a) for order in range(9) for a in range(order + 1)]).T
    stack = _BasisField(first[:, None], second[:, None], value, partial)
    for method in ("__call__", "partial_x", "partial_y"):
        got = getattr(stack, method)(x, y)
        assert got.shape == (first.size, x.size)
        for row, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
            assert _bits(got[row]) == _bits(getattr(field(ModeIndex(a, b, basis)), method)(x, y)), (method, a, b)


@pytest.mark.parametrize("basis", list(Basis), ids=lambda basis: basis.value)
def test_ladder_operators_on_a_stacked_field_at_a_scalar_point_give_its_array(basis):
    value, partial, _ = _FIELDS[basis]
    stack = _BasisField(np.arange(3), 0, value, partial)
    for op in LadderOp:
        got = apply_operator_pointwise(op, stack, 0.3, 0.2)
        assert isinstance(got, np.ndarray) and got.shape == (3,), op
        assert _bits(got) == _bits(apply_operator_pointwise(op, stack, np.array([0.3]), np.array([0.2]))), op


def _drawn(count, nints, high):
    rng = np.random.default_rng([184, nints])
    indices = rng.integers(0, high, (nints, count))
    coords = rng.uniform(-3.0, 3.0, (4, count))
    coords[:, :2] = 0.0
    coords[:, 2] = 30.0  # past the underflow of exp(-q0)
    return indices, coords


@pytest.mark.parametrize(
    "form, nints",
    [(wigner_lg_closed, 4), (wigner_hg_closed, 4), (wigner_lg_diag, 2), (wigner_hg_diag, 2)],
    ids=["wigner_lg_closed", "wigner_hg_closed", "wigner_lg_diag", "wigner_hg_diag"],
)
def test_phase_space_forms_take_per_point_indices(form, nints):
    indices, coords = _drawn(300, nints, 9)
    got = form(*indices, PhasePoint4(*coords))
    want = [form(*map(int, indices[:, i]), PhasePoint4(*coords[:, i])) for i in range(coords.shape[1])]
    assert got.shape == (coords.shape[1],)
    assert _bits(got) == _bits(np.array(want, dtype=got.dtype))


def test_index_arrays_at_a_scalar_point_give_an_array_and_0d_indices_a_scalar():
    stack = wigner_hermite_closed(np.arange(3)[:, None], [0, 1], 0.3, -1.2)
    assert isinstance(stack, np.ndarray) and stack.shape == (3, 2)
    assert stack[2, 1] == wigner_hermite_closed(2, 1, 0.3, -1.2)
    diag = wigner_lg_diag(np.arange(4), 1, PhasePoint4(0.3, -0.5, 1.1, 0.7))
    assert diag.shape == (4,) and diag[3] == wigner_lg_diag(3, 1, PhasePoint4(0.3, -0.5, 1.1, 0.7))
    assert type(laguerre(np.array(4), np.array(1), 2.5)) is float
    assert type(_lg_modes(np.int64(2), 1, 0.3, 0.2)) is complex
    assert type(hermite_function(np.array(4), 2.5)) is float
    assert laguerre(np.array([], dtype=int), 0, 1.0).shape == (0,)
    assert hermite_function(np.array([], dtype=int), 1.0).shape == (0,)
    assert hermite_function_derivative(np.array([], dtype=int), 1.0).shape == (0,)


#: name -> (evaluator taking the index under test first, that index's name,
#: its bounds)
_INDEXED = {
    "laguerre n": (lambda i: laguerre(i, 2, 0.5), "n", (0, MAX_DEGREE)),
    "laguerre alpha": (lambda i: laguerre(3, i, 0.5), "alpha", (0, None)),
    "hermite_function": (lambda i: hermite_function(i, 0.5), "n", (0, MAX_DEGREE)),
    "hermite_function_derivative": (lambda i: hermite_function_derivative(i, 0.5), "n", (0, MAX_DEGREE)),
    "lg evaluator": (lambda i: _lg_modes(1, i, 0.5, 0.2), "n_minus", (0, MAX_DEGREE)),
    "hg partials": (lambda i: _hg_partial(i, 2, 0.5, 0.2, False), "j", (0, MAX_DEGREE)),
    "lg partials": (lambda i: _lg_partial(1, i, 0.5, 0.2, True), "n_minus", (0, MAX_DEGREE)),
    "wigner_hermite_closed": (lambda i: wigner_hermite_closed(i, 2, 0.5, 0.2), "j", (0, MAX_DEGREE)),
    "wigner_lg_closed": (lambda i: wigner_lg_closed(1, 2, i, 0, PhasePoint4(0.1, 0.2, 0.3, 0.4)), "m", (0, MAX_DEGREE)),
    "wigner_hg_closed": (lambda i: wigner_hg_closed(1, 2, 0, i, PhasePoint4(0.1, 0.2, 0.3, 0.4)), "n", (0, MAX_DEGREE)),
    "wigner_lg_diag": (lambda i: wigner_lg_diag(0, i, PhasePoint4(0.1, 0.2, 0.3, 0.4)), "k", (0, MAX_DEGREE)),
    "wigner_hg_diag": (lambda i: wigner_hg_diag(i, 0, PhasePoint4(0.1, 0.2, 0.3, 0.4)), "j", (0, MAX_DEGREE)),
}


def _raised(evaluate, index):
    with pytest.raises((TypeError, ValueError)) as caught:
        evaluate(index)
    return caught.type, str(caught.value)


@pytest.mark.parametrize("name", list(_INDEXED))
def test_index_arrays_follow_the_scalar_integer_rule(name):
    evaluate, arg, (lo, hi) = _INDEXED[name]
    top = "inf)" if hi is None else f"{hi}]"
    for bad in [lo - 1, -7] + ([] if hi is None else [hi + 1, 1000]):
        want = _raised(evaluate, bad)
        assert want == (ValueError, f"{arg} {bad} outside supported range [{lo}, {top}")
        # the first offending entry is named, wherever it sits
        for array in ([1, bad, 2], [[bad, 1], [3, bad - 1 if bad < 0 else bad + 1]], np.array([bad], dtype=np.int32)):
            assert _raised(evaluate, array) == want
    wrong_dtypes = [(np.array([1.0, 2.0]), "float64"), ([1.5], "float64"), ([True, False], "bool"), (np.array(True), "bool")]
    for array, dtype in wrong_dtypes:
        assert _raised(evaluate, array) == (TypeError, f"{arg} must be an integer, got {dtype} array")
    for scalar, kind in ((1.0, "float"), (True, "bool"), ("3", "str")):
        assert _raised(evaluate, scalar) == (TypeError, f"{arg} must be an integer, got {kind}")
    assert np.shape(evaluate(np.array([lo, 1], dtype=np.uint8))) == (2,)


#: The (n, alpha) pairs of the ``laguerre`` docstring's accuracy claim.
_CLAIMED_PAIRS = [(16, 24), (32, 32), (40, 24), (64, 0), (0, 64), (63, 1), (1, 63)]


def test_laguerre_mixed_pairs_in_one_call_keep_the_claimed_accuracy():
    """The seven pairs mixed point by point in one call, each over its
    [0, 4n + 2a + 40], against 50-digit mpmath in the normalized form
    exp(-x/2) x**(a/2) sqrt(n!/(n+a)!) L that lg_mode uses."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(185)
    pairs = np.array(_CLAIMED_PAIRS)[rng.integers(0, len(_CLAIMED_PAIRS), 280)]
    pairs[: len(_CLAIMED_PAIRS)] = _CLAIMED_PAIRS
    n, alpha = pairs.T
    x = rng.uniform(0.0, 1.0, n.size) * (4 * n + 2 * alpha + 40)
    x[: len(_CLAIMED_PAIRS)] = 0.0
    got = laguerre(n, alpha, x)
    worst = 0.0
    with mpmath.workdps(50):
        for a, b, t, value in zip(n.tolist(), alpha.tolist(), x.tolist(), got.tolist()):
            t = mpmath.mpf(t)
            norm = mpmath.sqrt(mpmath.factorial(a) / mpmath.factorial(a + b))
            scale = mpmath.exp(-t / 2) * t ** (mpmath.mpf(b) / 2) * norm
            worst = max(worst, abs(float(scale * (mpmath.mpf(value) - mpmath.laguerre(a, b, t)))))
    assert worst <= 3.1e-15


_POINT4 = PhasePoint4(0.1, 0.2, 0.3, 0.4)

#: Valid arguments of each evaluator whose decorator declares indices, in
#: signature order.
_ARGS = {
    laguerre: {"n": 3, "alpha": 2, "x": 0.5},
    hermite_function: {"n": 3, "x": 0.5},
    hermite_function_derivative: {"n": 3, "x": 0.5},
    _hg_modes: {"j": 1, "k": 2, "x": 0.5, "y": 0.2},
    _hg_partial: {"j": 1, "k": 2, "x": 0.5, "y": 0.2, "along_y": False},
    _lg_modes: {"n_plus": 1, "n_minus": 2, "x": 0.5, "y": 0.2},
    _lg_partial: {"n_plus": 1, "n_minus": 2, "x": 0.5, "y": 0.2, "along_y": True},
    wigner_hermite_closed: {"j": 1, "k": 2, "x": 0.5, "y": 0.2},
    wigner_lg_closed: {"j": 1, "k": 2, "m": 0, "n": 3, "point": _POINT4},
    wigner_hg_closed: {"j": 1, "k": 2, "m": 0, "n": 3, "point": _POINT4},
    wigner_lg_diag: {"j": 1, "k": 2, "point": _POINT4},
    wigner_hg_diag: {"j": 1, "k": 2, "point": _POINT4},
}

#: Every (evaluator, index, largest value) that a decorator declares.
_DECLARED = [
    (laguerre, "n", MAX_DEGREE),
    (laguerre, "alpha", None),
    (hermite_function, "n", MAX_DEGREE),
    (hermite_function_derivative, "n", MAX_DEGREE),
    (_hg_modes, "j", MAX_DEGREE),
    (_hg_modes, "k", MAX_DEGREE),
    (_hg_partial, "j", MAX_DEGREE),
    (_hg_partial, "k", MAX_DEGREE),
    (_lg_modes, "n_plus", MAX_DEGREE),
    (_lg_modes, "n_minus", MAX_DEGREE),
    (_lg_partial, "n_plus", MAX_DEGREE),
    (_lg_partial, "n_minus", MAX_DEGREE),
    (wigner_hermite_closed, "j", MAX_DEGREE),
    (wigner_hermite_closed, "k", MAX_DEGREE),
    (wigner_lg_closed, "j", MAX_DEGREE),
    (wigner_lg_closed, "k", MAX_DEGREE),
    (wigner_lg_closed, "m", MAX_DEGREE),
    (wigner_lg_closed, "n", MAX_DEGREE),
    (wigner_hg_closed, "j", MAX_DEGREE),
    (wigner_hg_closed, "k", MAX_DEGREE),
    (wigner_hg_closed, "m", MAX_DEGREE),
    (wigner_hg_closed, "n", MAX_DEGREE),
    (wigner_lg_diag, "j", MAX_DEGREE),
    (wigner_lg_diag, "k", MAX_DEGREE),
    (wigner_hg_diag, "j", MAX_DEGREE),
    (wigner_hg_diag, "k", MAX_DEGREE),
]


@pytest.mark.parametrize("form, name, top", _DECLARED, ids=[f"{f.__name__}-{n}" for f, n, _ in _DECLARED])
def test_every_declared_index_is_checked_by_position_and_by_keyword(form, name, top):
    def positional(value):
        return form(*dict(_ARGS[form], **{name: value}).values())

    def keyword(value):
        return form(**dict(_ARGS[form], **{name: value}))

    bound = "inf)" if top is None else f"{top}]"
    for call in (positional, keyword):
        for bad in [-1] + ([] if top is None else [top + 1]):
            assert _raised(call, [1, bad, 2]) == (ValueError, f"{name} {bad} outside supported range [0, {bound}")
        assert _raised(call, np.array([1.0, 2.0])) == (TypeError, f"{name} must be an integer, got float64 array")
    values = np.array([[0, 3], [2, 1]])
    want = positional(values)
    assert want.shape == (2, 2)
    assert _bits(keyword(values)) == _bits(want)
