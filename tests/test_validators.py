"""Property tests for the input validators: each accepts exactly its
documented domain and raises the documented exception type outside it."""

import contextlib
import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lgwigner import cli  # noqa: E402
from lgwigner.beam import BeamIndex, BeamParams  # noqa: E402
from lgwigner.modes import Basis, ModeIndex  # noqa: E402
from lgwigner.specfun import MAX_DEGREE  # noqa: E402
from lgwigner.wigner import Grid2D, PhasePoint4, QuadratureSpec  # noqa: E402

# derandomized, so every run draws the same examples
pinned = settings(max_examples=100, derandomize=True, database=None, deadline=None)

integers = st.one_of(
    st.integers(-3 * MAX_DEGREE, 3 * MAX_DEGREE), st.integers(-200, 200).map(np.int64)
)
non_integers = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(0, MAX_DEGREE).map(float),
    st.text(max_size=3),
    st.none(),
)
floats = st.floats()
finite = st.floats(-1e6, 1e6)
bounds = st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan]))


@pinned
@given(integers, integers, st.sampled_from(Basis))
def test_mode_index_accepts_exactly_degrees_0_to_max(first, second, basis):
    if 0 <= first <= MAX_DEGREE and 0 <= second <= MAX_DEGREE:
        index = ModeIndex(first, second, basis)
        assert (index.first, index.second, index.basis) == (first, second, basis)
    else:
        with pytest.raises(ValueError):
            ModeIndex(first, second, basis)


@pinned
@given(non_integers, st.integers(0, MAX_DEGREE), st.booleans())
def test_mode_index_rejects_non_integers(bad, good, bad_first):
    with pytest.raises(TypeError):
        ModeIndex(*((bad, good) if bad_first else (good, bad)), Basis.HG)


@pinned
@given(st.one_of(st.none(), st.text(max_size=3), st.sampled_from(["hg", "lg", 0])))
def test_mode_index_rejects_non_basis(basis):
    with pytest.raises(TypeError):
        ModeIndex(0, 0, basis)


@pinned
@given(integers, integers)
def test_beam_index_accepts_exactly_p_and_abs_ell_up_to_max(p, ell):
    if 0 <= p <= MAX_DEGREE and abs(ell) <= MAX_DEGREE:
        index = BeamIndex(p, ell)
        assert (index.p, index.ell) == (p, ell)
    else:
        with pytest.raises(ValueError):
            BeamIndex(p, ell)


@pinned
@given(non_integers, st.integers(0, MAX_DEGREE), st.booleans())
def test_beam_index_rejects_non_integers(bad, good, bad_p):
    with pytest.raises(TypeError):
        BeamIndex(*((bad, good) if bad_p else (good, bad)))


@pinned
@given(floats, floats)
def test_beam_params_accept_exactly_positive_finite_values(w0, k):
    # w0 <= 1e150 keeps w0**2 finite; the Rayleigh range must be a
    # positive, finite value too
    if all(math.isfinite(v) and v > 0 for v in (w0, k)) and w0 <= 1e150 and 0 < 0.5 * k * w0**2 < math.inf:
        params = BeamParams(w0, k)
        assert (params.w0, params.k) == (w0, k)
    else:
        with pytest.raises(ValueError):
            BeamParams(w0, k)


@pinned
@given(floats, st.integers(-64, 4096))
def test_quadrature_spec_accepts_exactly_its_domain(half_width, nodes):
    if math.isfinite(half_width) and half_width > 0 and nodes >= 16 and nodes % 2 == 0:
        spec = QuadratureSpec(half_width, nodes)
        assert (spec.half_width, spec.nodes) == (half_width, nodes)
    else:
        with pytest.raises(ValueError):
            QuadratureSpec(half_width, nodes)


@pinned
@given(non_integers)
def test_quadrature_spec_rejects_non_integer_nodes(nodes):
    with pytest.raises(TypeError):
        QuadratureSpec(8.0, nodes)


@pinned
@given(st.lists(floats, min_size=4, max_size=4), st.booleans())
def test_phase_point_accepts_exactly_finite_fields(coords, as_arrays):
    fields = [np.array([0.5, v, -0.5]) for v in coords] if as_arrays else coords
    if all(map(math.isfinite, coords)):
        point = PhasePoint4(*fields)
        assert point.x1 is fields[0] and point.xi2 is fields[3]
    else:
        with pytest.raises(ValueError):
            PhasePoint4(*fields)


@pinned
@given(bounds, bounds, st.integers(-2, 6), bounds, bounds, st.integers(-2, 6), st.integers(0, 40))
@example(-math.inf, math.inf, 4, -1.0, 1.0, 4, 16)  # linspace would give [nan, nan, nan, inf]
@example(-1.0, 1.0, 4, 0.0, math.inf, 4, 16)
def test_grid_accepts_exactly_increasing_axes_of_two_or_more_matching_values(
    x_lo, x_hi, nx, y_lo, y_hi, ny, size
):
    args = ((x_lo, x_hi, nx), (y_lo, y_hi, ny), np.zeros(size))
    finite_bounds = all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi)))
    if finite_bounds and x_lo < x_hi and y_lo < y_hi and nx >= 2 and ny >= 2 and size == nx * ny:
        assert Grid2D(*args).values.shape == (nx, ny)
    else:
        with pytest.raises(ValueError):
            Grid2D(*args)


@pytest.mark.parametrize("count", [2.7, 3.9, 3.0, "3", True, None])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_grid_rejects_non_integer_counts(count, axis):
    # as QuadratureSpec.nodes and ModeIndex do; int() would make 2.7 two
    # samples and accept "3"
    good = (-1.0, 1.0, 3)
    bad = (-1.0, 1.0, count)
    with pytest.raises(TypeError):
        Grid2D(*((bad, good) if axis == "x" else (good, bad)), np.zeros(9))


def test_grid_accepts_numpy_integer_counts():
    grid = Grid2D((-1.0, 1.0, np.int64(3)), (-1.0, 1.0, np.int32(2)), np.zeros(6))
    assert grid.x_axis == (-1.0, 1.0, 3) and grid.y_axis == (-1.0, 1.0, 2)
    assert type(grid.x_axis[2]) is int and grid.values.shape == (3, 2)


@pytest.mark.parametrize("slot", range(4))
def test_grid_rejects_nan_bounds(slot):
    bounds = [-1.0, 1.0, -1.0, 1.0]
    bounds[slot] = math.nan
    with pytest.raises(ValueError):
        Grid2D((bounds[0], bounds[1], 2), (bounds[2], bounds[3], 2), np.zeros(4))


# the CLI's documented coordinate limit and its neighbours
_LIMIT = 1e150
coordinates = st.one_of(
    st.floats(-1e200, 1e200),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sampled_from([_LIMIT, -_LIMIT, math.nextafter(_LIMIT, math.inf), math.nextafter(-_LIMIT, -math.inf)]),
)
# one axis at 4096 or 4097 keeps the other at 2, so accepted grids stay small
grid_counts = st.one_of(
    st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
    st.sampled_from([(4096, 2), (2, 4096), (4097, 2), (2, 4097)]),
)


@pinned
@given(coordinates, coordinates, coordinates, coordinates, grid_counts)
@example(-_LIMIT, _LIMIT, -_LIMIT, _LIMIT, (2, 4096))
@example(-1e4, 1e4, -1e4, 1e4, (8, 8))
def test_cli_grid_flags_accept_exactly_the_documented_domain(
    tmp_path_factory, xmin, xmax, ymin, ymax, counts
):
    nx, ny = counts
    out = tmp_path_factory.getbasetemp() / "grid_flags.csv"
    out.unlink(missing_ok=True)
    bounds = {"xmin": xmin, "xmax": xmax, "ymin": ymin, "ymax": ymax}
    argv = ["modes", "lg", "--index", "64", "64", f"--nx={nx}", f"--ny={ny}", "--out", str(out)]
    argv += [f"--{name}={value!r}" for name, value in bounds.items()]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    axes_ok = all(math.isfinite(v) and abs(v) <= _LIMIT for v in bounds.values())
    in_domain = axes_ok and xmin < xmax and ymin < ymax and 2 <= nx <= 4096 and 2 <= ny <= 4096
    assert code == (0 if in_domain else 2)
    if in_domain:
        text = out.read_text()
        assert text.count("\n") == nx * ny + 1 and "nan" not in text
    else:
        assert not out.exists()
