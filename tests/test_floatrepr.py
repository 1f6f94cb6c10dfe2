"""``lgwigner._floatrepr``, the CLI's float formatter: every element's
bytes equal ``repr(float(v))``, on random bit patterns and on the cases
where the digits or the layout change rule; its integer logarithms and
its table of powers of ten, against exact integer arithmetic; and
``tools/check_float_repr.py``, which runs the random comparison at scale."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lgwigner import _floatrepr as fr

ROOT = Path(__file__).resolve().parent.parent


def _assert_reprs(values):
    """Every element of ``values`` formats as its ``repr``."""
    values = np.asarray(values, dtype=np.float64)
    rows = fr.format_floats(values)
    assert rows.shape == (values.size, fr.WIDTH) and rows.dtype == np.uint8
    got = [row[row != 0].tobytes().decode("ascii") for row in rows]
    expected = [repr(v) for v in values.tolist()]
    bad = [(f"0x{b:016x}", e, g) for b, e, g in zip(values.view(np.uint64).tolist(), expected, got) if e != g]
    assert bad == [], bad[:10]


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns_format_as_repr():
    rng = np.random.default_rng(29)
    _assert_reprs(rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True).view(np.float64))


def test_every_power_of_two_formats_as_repr():
    # the significand 2^52, where the gap below is half the gap above, at
    # every binary exponent; subnormal powers of two have one bit set
    _assert_reprs(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_powers_of_ten_and_their_neighbours_format_as_repr():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_reprs(np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf)]))


def test_subnormal_boundary_and_integers_around_two_to_the_53_format_as_repr():
    smallest_normal = 0x0010000000000000
    edge = np.arange(smallest_normal - 64, smallest_normal + 64, dtype=np.uint64)
    tiny = np.arange(1, 200, dtype=np.uint64)  # subnormals with one to eight bits
    integers = np.arange(2.0**53 - 64, 2.0**53 + 130)
    _assert_reprs(np.concatenate([edge.view(np.float64), tiny.view(np.float64), integers, -integers]))


def test_zeros_infinities_and_nans_of_both_signs_format_as_repr():
    values = _bits(
        0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
        0x7FF8000000000003, 0xFFFFFFFFFFFFFFFF, 0x7FF4000000000005,
        0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,  # the largest finite magnitude, for contrast
    )
    _assert_reprs(values)
    text = [row[row != 0].tobytes() for row in fr.format_floats(values)]
    assert text == [b"0.0", b"-0.0", b"inf", b"-inf"] + [b"nan"] * 7 + [b"1.7976931348623157e+308", b"-1.7976931348623157e+308"]


@pytest.mark.parametrize(
    "value, text",
    [
        (1e-5, "1e-05"),
        (1e-4, "0.0001"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e16, "1e+16"),
        (-1.2345e-5, "-1.2345e-05"),
        (0.00012345678901234567, "0.00012345678901234567"),
        (123456789012345.67, "123456789012345.67"),
        (5e-324, "5e-324"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
    ],
)
def test_fixed_and_exponent_notation_switch_where_repr_switches(value, text):
    assert repr(value) == text
    for v in (value, np.nextafter(value, 0.0), np.nextafter(value, np.inf), -value):
        _assert_reprs([v])


def test_values_whose_interval_ends_are_ties_format_as_repr():
    # [2^53, 2^54) holds the even integers, and each one's interval ends
    # are exactly the odd integers beside it: an even significand takes
    # them, so 2^53 + 2 must not shorten to the decimal 2^53 + 1 rounds to
    ties = np.arange(2.0**53, 2.0**53 + 400, 2.0)
    _assert_reprs(np.concatenate([ties, -ties, ties * 2.0**-60, ties * 2.0**900]))


def test_any_shape_is_read_in_c_order():
    values = np.arange(12.0).reshape(3, 4).T * 0.1
    rows = fr.format_floats(values)
    assert rows.shape == (12, fr.WIDTH)
    assert [row[row != 0].tobytes().decode() for row in rows] == [repr(v) for v in values.ravel().tolist()]
    assert fr.format_floats(np.empty(0)).shape == (0, fr.WIDTH)


def _floor_log10(x: Fraction) -> int:
    e = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def test_integer_logarithms_are_exact_over_every_exponent_they_take():
    q = np.arange(-1074, 972)  # the binary exponents of finite doubles
    assert fr._flog10pow2(q).tolist() == [_floor_log10(Fraction(2) ** int(e)) for e in q]
    assert fr._flog10_three_quarters_pow2(q).tolist() == [_floor_log10(Fraction(3, 4) * Fraction(2) ** int(e)) for e in q]
    e = np.arange(fr._E_MIN, fr._E_MAX + 1)
    assert fr._flog2pow10(e).tolist() == [
        (10**int(x)).bit_length() - 1 if x >= 0 else -(10 ** -int(x)).bit_length() for x in e
    ]


def test_power_table_holds_each_power_of_ten_rounded_down_plus_one():
    g1h, g1l, g0h, g0l = (limb.tolist() for limb in fr._G)
    for i, e in enumerate(range(fr._E_MIN, fr._E_MAX + 1)):
        g = ((g1h[i] << 32 | g1l[i]) << 63) | (g0h[i] << 32 | g0l[i])
        r = int(fr._flog2pow10(e)) - 125
        assert 2**125 <= g < 2**126
        assert g == int(Fraction(10) ** e / Fraction(2) ** r) + 1


def test_products_stay_within_63_bits():
    # the largest significand, at every binary exponent, shifted as the
    # digit step shifts it; the significand 2^52 at its own scale
    q = np.arange(-1074, 972)
    for asym, c in ((False, 2**53 - 1), (True, 2**52)):
        k = fr._flog10_three_quarters_pow2(q) if asym else fr._flog10pow2(q)
        h = q + fr._flog2pow10(-k) + 2
        assert h.min() >= 0 and ((4 * c + 2) << int(h.max())) < 2**63


def test_check_tool_agrees_with_repr_on_random_patterns():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_float_repr.py"), "--count", "10000", "--seed", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0 of 10000 bit patterns (seed 1) differ from repr\n"
