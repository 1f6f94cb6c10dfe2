"""The scalar rule shared by every pointwise evaluator: a scalar point is
evaluated as one-element arrays, so it gives the same bits alone as
inside an array, and comes back as a Python ``float`` or ``complex``."""

import numpy as np
import pytest

from lgwigner.beam import BeamIndex, BeamParams, beam_field
from lgwigner.modes import LadderOp, ModeIndex, apply_operator_pointwise, hg_field, hg_mode, lg_field, lg_mode
from lgwigner.specfun import hermite_function, hermite_function_derivative, hermite_poly, laguerre
from lgwigner.wigner import (
    PhasePoint4,
    QuadratureSpec,
    extended_wigner,
    extended_wigner_grid,
    wigner1d,
    wigner1d_grid,
    wigner_hermite_closed,
    wigner_hg_closed,
    wigner_hg_diag,
    wigner_lg_closed,
    wigner_lg_diag,
)

_QUAD = QuadratureSpec.for_degree(4, 3.0)


def _h(n):
    return lambda t: hermite_function(n, t)


def _op_case(op):
    fld = hg_field(ModeIndex.hg(2, 1)) if op.value.startswith("a") else lg_field(ModeIndex.lg(2, 1))
    return 2, complex, lambda x, y: apply_operator_pointwise(op, fld, x, y)


#: name -> (number of coordinates, scalar result type, evaluator of them)
CASES = {
    "hermite_poly": (1, float, lambda x: hermite_poly(7, x)),
    "hermite_function": (1, float, lambda x: hermite_function(9, x)),
    "hermite_function_derivative": (1, float, lambda x: hermite_function_derivative(6, x)),
    "laguerre": (1, float, lambda x: laguerre(5, 2, x)),
    "hg_mode": (2, float, lambda x, y: hg_mode(ModeIndex.hg(3, 2), x, y)),
    **{
        f"lg_mode{index}": (2, complex, lambda x, y, index=index: lg_mode(ModeIndex.lg(*index), x, y))
        for index in [(2, 0), (0, 2), (3, 1), (4, 2)]
    },
    **{
        f"beam_field{index}": (
            2,
            complex,
            lambda r, phi, index=index: beam_field(BeamIndex(*index), BeamParams(1.0, 10.0), abs(r), phi, 0.5),
        )
        for index in [(2, -3), (1, 2)]
    },
    **{op.value: _op_case(op) for op in LadderOp},
    **{
        f"{basis}_field.{partial}": (2, kind, lambda x, y, fld=fld, partial=partial: getattr(fld, partial)(x, y))
        for basis, kind, fld in [
            ("hg", float, hg_field(ModeIndex.hg(2, 1))),
            ("lg", complex, lg_field(ModeIndex.lg(2, 1))),
        ]
        for partial in ("partial_x", "partial_y")
    },
    "extended_wigner": (2, complex, lambda x, y: extended_wigner(lambda u, v: _h(2)(u) * _h(1)(v), x, y, _QUAD)),
    "wigner1d": (2, complex, lambda x, xi: wigner1d(_h(3), _h(1), x, xi, _QUAD)),
    "wigner_hermite_closed": (2, complex, lambda x, y: wigner_hermite_closed(4, 2, x, y)),
    "wigner_lg_closed": (4, complex, lambda *c: wigner_lg_closed(2, 1, 0, 3, PhasePoint4(*c))),
    "wigner_hg_closed": (4, complex, lambda *c: wigner_hg_closed(1, 2, 3, 0, PhasePoint4(*c))),
    "wigner_lg_diag": (4, float, lambda *c: wigner_lg_diag(2, 1, PhasePoint4(*c))),
    "wigner_hg_diag": (4, float, lambda *c: wigner_hg_diag(2, 1, PhasePoint4(*c))),
    # a diagonal slice at fixed xi, off the CLI's grids
    "wigner_lg_diag-slice": (2, float, lambda x1, x2: wigner_lg_diag(2, 1, PhasePoint4(x1, x2, 0.5, -0.25))),
}


@pytest.mark.parametrize("name", CASES)
def test_every_evaluator_on_arrays_matches_pointwise_bitwise(name):
    ncoords, kind, evaluate = CASES[name]
    coords = np.random.default_rng(20).uniform(-3.0, 3.0, size=(ncoords, 2000))
    got = evaluate(*coords)
    want = [evaluate(*point) for point in coords.T.tolist()]
    assert isinstance(got, np.ndarray) and got.shape == (2000,)
    assert all(type(v) is kind for v in want)
    assert np.array_equal(got, want)


def test_scalar_rule_binds_keywords_and_takes_0d_inputs():
    x, y = np.float64(0.3), np.array(-1.2)
    index = ModeIndex.lg(3, 1)
    want = lg_mode(index, np.array([0.3]), np.array([-1.2]))[0]
    for got in (lg_mode(index, x, y), lg_mode(y=y, x=x, index=index), lg_mode(index, y=-1.2, x=0.3)):
        assert type(got) is complex and got == want
    assert type(hermite_function(x=x, n=3)) is float
    assert type(laguerre(4, alpha=1, x=np.array(2.5))) is float
    point = PhasePoint4(x, y, np.float64(0.5), np.array(-0.25))
    assert type(wigner_lg_diag(k=1, j=2, point=point)) is float
    assert type(wigner_lg_closed(2, 1, 0, 3, point=point)) is complex
    assert type(beam_field(BeamIndex(2, -3), BeamParams(1.0, 10.0), r=x, phi=y, z=0.5)) is complex
    fld = lg_field(ModeIndex.lg(2, 1))
    got = apply_operator_pointwise(op=LadderOp.APLUS, f=fld, x=x, y=y)
    assert type(got) is complex
    assert got == apply_operator_pointwise(LadderOp.APLUS, fld, np.array([0.3]), np.array([-1.2]))[0]
    # a missing, surplus or doubled argument is refused as for any call
    for args, kwargs in [((index, 0.3), {}), ((index, 0.3, 0.2, 0.1), {}), ((index, 0.3, 0.2), {"x": 0.1})]:
        with pytest.raises(TypeError):
            lg_mode(*args, **kwargs)


def test_field_callable_receives_arrays_for_a_scalar_point():
    class Field:
        """The Gaussian exp(-(x**2 + y**2) / 2), recording the argument
        types of each call to it and to its partials."""

        def __init__(self):
            self.seen = []

        def __call__(self, x, y):
            self.seen.append(("f", type(x), type(y)))
            return np.exp(-(x * x + y * y) / 2)

        def partial_x(self, x, y):
            self.seen.append(("partial_x", type(x), type(y)))
            return -x * np.exp(-(x * x + y * y) / 2)

        def partial_y(self, x, y):
            self.seen.append(("partial_y", type(x), type(y)))
            return -y * np.exp(-(x * x + y * y) / 2)

    field = Field()
    assert type(apply_operator_pointwise(LadderOp.A1DAG, field, 0.2, 0.9)) is complex
    assert field.seen == [(name, np.ndarray, np.ndarray) for name in ("partial_x", "partial_y", "f")]


#: Points where every Gaussian factor exp(-|z|**2 / 2) (exp(-q0) for the
#: diagonal forms) underflows to 0, at and past which the Laguerre
#: polynomial or the power of z of a degree-64 mode overflows.
_FAR = np.array([40.0, -1e4, 1e150])


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda t: lg_mode(ModeIndex.lg(64, 60), t, -t),
        lambda t: wigner_hermite_closed(60, 64, t, t),
        lambda t: lg_field(ModeIndex.lg(64, 60)).partial_x(t, t),
        lambda t: lg_field(ModeIndex.lg(60, 64)).partial_y(t, -t),
        lambda t: wigner_lg_diag(64, 60, PhasePoint4(t, 0.5, -t, 1.0)),
        lambda t: wigner_hg_diag(3, 1, PhasePoint4(0.0, 0.0, t, 0.0)),
        lambda t: beam_field(BeamIndex(64, -64), BeamParams(1e-3, 10.0), np.abs(t), t, 0.0),
        lambda t: beam_field(BeamIndex(2, 1), BeamParams(1e-100, 1e300), np.abs(t), 0.0, 0.0),
    ],
)
def test_values_past_the_gaussian_underflow_are_positive_zero(evaluate):
    values = np.asarray(evaluate(_FAR), dtype=complex)
    assert np.array_equal(values, np.zeros(_FAR.shape))
    assert not np.signbit(values.real).any() and not np.signbit(values.imag).any()


def _coordinate_names(name):
    """The names under which each coordinate of a ``CASES`` evaluator is
    passed: a ``PhasePoint4`` refuses a field under the field's name."""
    if name.startswith("beam_field"):
        return ("r", "phi")
    if name == "wigner1d":
        return ("x", "xi")
    if name == "wigner_lg_diag-slice":
        return ("x1", "x2")
    return {1: ("x",), 2: ("x", "y"), 4: ("x1", "x2", "xi1", "xi2")}[CASES[name][0]]


@pytest.mark.parametrize("name", CASES)
def test_every_evaluator_refuses_a_non_finite_coordinate_by_name(name):
    _, _, evaluate = CASES[name]
    coords = _coordinate_names(name)
    for slot, coord in enumerate(coords):
        for bad in (np.nan, np.inf, -np.inf):
            for shape in ((), (3,)):
                point = [np.full(shape, 0.3) for _ in coords]
                point[slot] = np.full(shape, bad) if not shape else np.array([0.3, bad, -0.2])
                with pytest.raises(ValueError, match=rf"^{coord} must be finite$"):
                    evaluate(*point)


@pytest.mark.parametrize(
    "oracle, names",
    [
        (lambda a, b: wigner1d_grid(_h(1), _h(2), a, b, _QUAD), ("xs", "xis")),
        (lambda a, b: extended_wigner_grid(lambda u, v: _h(1)(u) * _h(2)(v), a, b, _QUAD), ("xs", "ys")),
    ],
    ids=["wigner1d_grid", "extended_wigner_grid"],
)
def test_grid_oracles_refuse_a_non_finite_axis_by_name(oracle, names):
    for slot, axis in enumerate(names):
        for bad in (np.nan, np.inf, -np.inf):
            axes = [np.array([0.0, 0.5]), np.array([-1.0, 1.0])]
            axes[slot] = np.array([0.0, bad])
            with pytest.raises(ValueError, match=rf"^{axis} must be finite$"):
                oracle(*axes)
