"""Mode evaluation and ladder bookkeeping checks.

The pointwise operator applications are validated against the index-space
ladder rules, which were fixed independently from the differential
expressions, so agreement here is a genuine cross-check."""

import numpy as np
import pytest

from lgwigner import specfun
from lgwigner.specfun import MAX_DEGREE
from lgwigner.modes import (
    ANNIHILATED,
    Basis,
    LadderOp,
    ModeIndex,
    _BasisField,
    _hg_modes,
    _hg_partial,
    _ladder_action,
    _lg_modes,
    _lg_partial,
    apply_operator_pointwise,
    hg_field,
    hg_mode,
    ladder_index_action,
    lg_field,
    lg_mode,
)


def _trap(lo, hi, n):
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def test_hg_mode_ground_and_zeros():
    assert hg_mode(ModeIndex.hg(0, 0), 0.0, 0.0) == pytest.approx(np.pi**-0.5, abs=1e-15)
    for y in (-2.0, 0.0, 0.3, 5.0):
        assert hg_mode(ModeIndex.hg(1, 0), 0.0, y) == 0.0


def test_hg_mode_tensor_symmetry():
    a = hg_mode(ModeIndex.hg(2, 3), 0.4, -1.1)
    b = hg_mode(ModeIndex.hg(3, 2), -1.1, 0.4)
    assert a == pytest.approx(b, rel=1e-14)


def test_lg_ground_state():
    for x, y in [(0.0, 0.0), (1.0, -0.5), (0.3, 2.0)]:
        want = np.pi**-0.5 * np.exp(-0.5 * (x * x + y * y))
        assert lg_mode(ModeIndex.lg(0, 0), x, y) == pytest.approx(want, abs=1e-15)


def test_lg_spot_value():
    assert lg_mode(ModeIndex.lg(1, 0), 1.0, 0.0) == pytest.approx(
        np.pi**-0.5 * np.exp(-0.5), abs=1e-15
    )


def test_lg_index_swap_conjugates():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_plus, n_minus = (int(v) for v in rng.integers(0, 6, 2))
        x, y = rng.uniform(-2.5, 2.5, 2)
        a = lg_mode(ModeIndex.lg(n_plus, n_minus), x, y)
        b = lg_mode(ModeIndex.lg(n_minus, n_plus), x, y)
        assert a == pytest.approx(np.conj(b), abs=1e-14)


def test_lg_equal_indices_branch_agreement():
    # mirror-branch formula written out directly in the test
    xs = np.linspace(-3.0, 3.0, 13)
    xg, yg = xs[:, None], xs[None, :]
    rho = xg * xg + yg * yg
    for n in range(9):
        got = lg_mode(ModeIndex.lg(n, n), xg, yg)
        want = np.pi**-0.5 * (-1.0) ** n * np.exp(-0.5 * rho) * specfun.laguerre(n, 0, rho)
        assert np.abs(got - want).max() <= 1e-12


def test_lg_azimuthal_structure():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_plus, n_minus = (int(v) for v in rng.integers(0, 7, 2))
        r = rng.uniform(0.1, 3.0)
        phi = rng.uniform(-np.pi, np.pi)
        idx = ModeIndex.lg(n_plus, n_minus)
        rotated = lg_mode(idx, r * np.cos(phi), r * np.sin(phi))
        base = lg_mode(idx, r, 0.0)
        want = np.exp(1j * (n_plus - n_minus) * phi) * base
        assert rotated == pytest.approx(want, abs=1e-10)


def test_lg_angular_momentum_eigenrelation():
    # -i d/dphi applied by central differences equals (n_plus - n_minus)
    step = 1e-5
    rng = np.random.default_rng(4)
    for _ in range(15):
        n_plus, n_minus = (int(v) for v in rng.integers(0, 5, 2))
        idx = ModeIndex.lg(n_plus, n_minus)
        r = rng.uniform(0.3, 2.5)
        phi = rng.uniform(-np.pi, np.pi)

        def at(angle):
            return lg_mode(idx, r * np.cos(angle), r * np.sin(angle))

        deriv = -1j * (at(phi + step) - at(phi - step)) / (2 * step)
        want = (n_plus - n_minus) * at(phi)
        assert deriv == pytest.approx(want, abs=1e-6)


def test_lg_grid_normalization():
    axis, w = _trap(-8.0, 8.0, 161)
    w2 = np.outer(w, w)
    for n_plus in range(5):
        for n_minus in range(5):
            if n_plus + n_minus > 8:
                continue
            vals = lg_mode(ModeIndex.lg(n_plus, n_minus), axis[:, None], axis[None, :])
            norm = np.sqrt(np.sum(np.abs(vals) ** 2 * w2))
            assert abs(norm - 1.0) <= 1e-8


def test_lg_eigenvalues():
    for index, (total, angular) in [((0, 0), (0, 0)), ((2, 1), (3, 1)), ((0, 4), (4, -4))]:
        assert ModeIndex.lg(*index).total_number == total
        assert ModeIndex.lg(*index).angular_momentum == angular


def test_ladder_index_action_examples():
    coeff, idx = ladder_index_action(LadderOp.APLUSDAG, ModeIndex.lg(2, 1))
    assert coeff == pytest.approx(np.sqrt(3.0)) and idx == ModeIndex.lg(3, 1)

    coeff, idx = ladder_index_action(LadderOp.AMINUS, ModeIndex.lg(5, 0))
    assert coeff == 0.0 and idx is ANNIHILATED

    coeff, idx = ladder_index_action(LadderOp.A1, ModeIndex.hg(0, 4))
    assert coeff == 0.0 and idx is ANNIHILATED

    coeff, idx = ladder_index_action(LadderOp.A2, ModeIndex.hg(3, 2))
    assert coeff == pytest.approx(np.sqrt(2.0)) and idx == ModeIndex.hg(3, 1)


def test_ladder_index_action_basis_mismatch():
    with pytest.raises(ValueError):
        ladder_index_action(LadderOp.A1, ModeIndex.lg(1, 1))
    with pytest.raises(ValueError):
        ladder_index_action(LadderOp.APLUS, ModeIndex.hg(1, 1))


def test_apply_operator_annihilates_ground_state():
    fld = lg_field(ModeIndex.lg(0, 0))
    for op in (LadderOp.APLUS, LadderOp.AMINUS):
        for x, y in [(0.0, 0.0), (0.7, -1.3), (-2.0, 0.4)]:
            assert abs(apply_operator_pointwise(op, fld, x, y)) <= 1e-14


def test_apply_operator_matches_index_action_examples():
    fld = hg_field(ModeIndex.hg(0, 0))
    for x, y in [(0.2, 0.9), (-1.0, 0.0)]:
        got = apply_operator_pointwise(LadderOp.A1DAG, fld, x, y)
        want = hg_mode(ModeIndex.hg(1, 0), x, y)
        assert got == pytest.approx(want, abs=1e-12)

    fld = lg_field(ModeIndex.lg(1, 0))
    got = apply_operator_pointwise(LadderOp.APLUSDAG, fld, 0.3, -0.7)
    want = np.sqrt(2.0) * lg_mode(ModeIndex.lg(2, 0), 0.3, -0.7)
    assert got == pytest.approx(want, abs=1e-12)


def test_apply_operator_accepts_point_arrays():
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 6))
    for fld, op in (
        (lg_field(ModeIndex.lg(1, 2)), LadderOp.AMINUSDAG),
        (hg_field(ModeIndex.hg(2, 0)), LadderOp.A1),
    ):
        got = apply_operator_pointwise(op, fld, x, y)
        assert got.shape == (6,)
        for i in range(6):
            assert got[i] == apply_operator_pointwise(op, fld, x[i], y[i])
        assert type(apply_operator_pointwise(op, fld, 0.4, -0.9)) is complex


#: basis -> its basis fields' (value kernel, partials kernel)
_KERNELS = {Basis.HG: (_hg_modes, _hg_partial), Basis.LG: (_lg_modes, _lg_partial)}


def _modes_to_order(top):
    """Index arrays (first, second) of every mode of order at most ``top``."""
    return np.array([(a, order - a) for order in range(top + 1) for a in range(order + 1)]).T


def test_pointwise_ladder_consistency_random():
    # every operator on every mode of its basis whose order and target
    # order are at most 64, one batched call per operator, against the
    # index-space action; the pairs to order 8 keep their tighter bound
    x, y = np.random.default_rng(12).uniform(-3.0, 3.0, size=(2, 40))
    first, second = _modes_to_order(MAX_DEGREE)
    pairs = low_pairs = 0
    for op in LadderOp:
        value, partial = _KERNELS[Basis.HG if op.value.startswith("a") else Basis.LG]
        coeff, to_first, to_second = _ladder_action(op, first, second)
        keep = to_first + to_second <= MAX_DEGREE
        field = _BasisField(first[keep, None], second[keep, None], value, partial)
        want = coeff[keep, None] * value(to_first[keep, None], to_second[keep, None], x, y)
        err = np.abs(apply_operator_pointwise(op, field, x, y) - want).max(axis=1)
        low = np.maximum(first + second, to_first + to_second)[keep] <= 8
        assert err[low].max() <= 1e-14
        assert err.max() <= 1e-12
        pairs += keep.sum()
        low_pairs += low.sum()
    assert (pairs, low_pairs) == (16_900, 324)


@pytest.mark.parametrize("op", list(LadderOp), ids=lambda op: op.value)
def test_ladder_action_entries_match_ladder_index_action(op):
    basis = Basis.HG if op.value.startswith("a") else Basis.LG
    first, second = _modes_to_order(MAX_DEGREE - 1)
    coeff, to_first, to_second = _ladder_action(op, first, second)
    for row, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
        got, target = ladder_index_action(op, ModeIndex(a, b, basis))
        if target is ANNIHILATED:
            assert (got, coeff[row], to_first[row], to_second[row]) == (0.0, 0.0, a, b)
        else:
            assert type(got) is np.float64 and got == coeff[row]
            assert target == ModeIndex(int(to_first[row]), int(to_second[row]), basis)


class _Ramp:
    """The field f = x + y with partials that disagree with it, so the
    result shows which partials were used."""

    def __call__(self, x, y):
        return x + y

    def partial_x(self, x, y):
        return np.full_like(x, 2.0)

    def partial_y(self, x, y):
        return np.full_like(x, 3.0)


def test_apply_operator_takes_the_partials_a_field_carries():
    # A1 = (x f + df/dx) / sqrt2 and A2 = (y f + df/dy) / sqrt2
    assert apply_operator_pointwise(LadderOp.A1, _Ramp(), 0.5, 0.25) == pytest.approx((0.375 + 2.0) / np.sqrt(2.0))
    assert apply_operator_pointwise(LadderOp.A2, _Ramp(), 0.5, 0.25) == pytest.approx((0.1875 + 3.0) / np.sqrt(2.0))
    with pytest.raises(TypeError):
        apply_operator_pointwise(LadderOp.A1, _Ramp(), 0.5, 0.25, mode="analytic")


@pytest.mark.parametrize("op", list(LadderOp), ids=lambda op: op.value)
def test_apply_operator_refuses_a_field_without_both_partials(op):
    # refused before any of it is called, at a scalar point and on arrays
    calls = []
    for names in (("partial_x",), ("partial_y",), ()):

        def field(x, y):
            calls.append((x, y))
            return x + y

        for name in names:
            setattr(field, name, field)
        for x, y in [(0.5, 0.25), (np.linspace(-1.0, 1.0, 3), np.zeros(3))]:
            with pytest.raises(TypeError, match="partial_x and partial_y"):
                apply_operator_pointwise(op, field, x, y)
    assert calls == []


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex.hg(-1, 0)
    with pytest.raises(ValueError):
        ModeIndex.lg(0, 65)
    with pytest.raises(TypeError):
        ModeIndex(0.5, 0, Basis.HG)
    with pytest.raises(ValueError):
        hg_mode(ModeIndex.lg(1, 1), 0.0, 0.0)
    with pytest.raises(ValueError):
        lg_mode(ModeIndex.hg(1, 1), 0.0, 0.0)
    with pytest.raises(ValueError):
        ModeIndex.hg(1, 1).total_number
