"""The bytes of ``repr(float(v))`` for every element of a float64 array.

:func:`format_floats` is the CLI's float formatter. ``repr`` writes the
shortest decimal that reads back as ``v`` and, of those, the one closest
to ``v`` (a tie goes to the even last digit). The digits here come from
Giulietti's Schubfach algorithm ("The Schubfach way to render doubles",
2020; the algorithm of Java's ``Double.toString`` since JDK 19, and
compare Adams, "Ryu", PLDI 2018), run on whole uint64 arrays:

- ``10^e`` for e in [-292, 324] is held as a 126-bit ``g`` (Java's
  table, built at import from exact Python ints), so that
  ``10^e = g * 2^r`` up to the last bit of ``g``;
- the value, scaled by ``10^-k`` (``k`` from the binary exponent), is
  rounded to odd from its 64 x 126-bit product with ``g``, done on
  32-bit limbs;
- so are the two ends of its rounding interval, and which of its
  neighbours and of the multiples of ten around it lie in the interval
  is read from them, as Java does;
- a multiple of ten inside the interval is taken if there is one (it
  is shorter); otherwise the closer of the two neighbours of the value.

Java then prefers two digits to one; ``repr`` does not, so this module
leaves out Java's small-subnormal scaling and its ``s >= 100`` test.

The layout is ``repr``'s: fixed notation when the decimal point falls
within (-4, 16] places of the first digit, otherwise ``d.ddde±XX``;
``-0.0``, ``inf``, ``-inf``, and ``nan`` for every NaN. Each element
becomes one row of 24 bytes, a sign slot, the digits with their point
and zeros, and an exponent slot, with NUL bytes in whatever slots it does
not fill. The slots are three little-endian uint64 words, so that the
point is placed by one form table and whole-word shifts.
"""

from __future__ import annotations

import numpy as np

#: Bytes per formatted element: '-', 17 digits, '.', 'e-323'
WIDTH = 24

_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_FRACTION = (1 << 52) - 1
_HIDDEN = 1 << 52
_ABS = (1 << 63) - 1
_INF_BITS = 0x7FF0000000000000
_ONE_BITS = 0x3FF0000000000000

#: Powers of ten an exponent k of the decimal scale takes: 10^-k for
#: k in [-324, 292], the range of double's binary exponents
_E_MIN, _E_MAX = -292, 324

#: 10^0 .. 10^17: a significand has at most 17 digits
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


def _flog10pow2(e):
    """floor(e log10 2), exact for |e| <= 5456721 (Java's constants)."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact over double's binary exponents."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _g_tables() -> tuple[np.ndarray, ...]:
    """The 32-bit limbs (g1 high, g1 low, g0 high, g0 low) of
    ``g = floor(10^e 2^-r) + 1 = g1 2^63 + g0``, with
    ``r = flog2pow10(e) - 125``, for e in [_E_MIN, _E_MAX]."""
    limbs = []
    power = 10**-_E_MIN  # 10^|e|
    for e in range(_E_MIN, _E_MAX + 1):
        r = _flog2pow10(e) - 125
        if e < 0:
            g = (1 << -r) // power + 1
            power //= 10
        else:
            g = (power << -r if r < 0 else power >> r) + 1
            power *= 10
        g1, g0 = g >> 63, g & _M63
        limbs += (g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    return tuple(np.array(limbs, dtype=np.uint64).reshape(-1, 4).T.copy())


_G = _g_tables()


def _rop(g, cp):
    """Java's ``rop`` in two parts: the 126-bit ``g`` (its four 32-bit
    limbs) times ``cp`` (< 2^63), over 2^127, as its whole part and its
    fraction in units of 2^-63. Java's rounded-to-odd value is
    ``_odd(*_rop(g, cp))``.

    g1 = g >> 63 and g0 = g mod 2^63 are below 2^63, so their high limbs
    are below 2^31, and so is cp's: the two cross products of a limb
    product sum below 2^64."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    # x1: the high 64 bits of g0 * cp
    low, cross = g0l * cl, g0l * ch + g0h * cl
    x1 = g0h * ch + (cross >> 32) + (((cross & _M32) + (low >> 32)) >> 32)
    # y1:y0 = g1 * cp
    low, cross = g1l * cl, g1l * ch + g1h * cl
    mid = (cross & _M32) + (low >> 32)
    y1 = g1h * ch + (cross >> 32) + (mid >> 32)
    y0 = (mid << 32) | (low & _M32)
    z = (y0 >> 1) + x1
    return y1 + (z >> 63), z & _M63


def _odd(whole, fraction):
    """The whole part, its last bit set where the fraction is not 0."""
    return whole | ((fraction + _M63) >> 63)


def _shortest(bits):
    """(d, k): ``d 10^k`` is the shortest decimal, and of those the
    closest, that reads back as the positive finite double of each
    uint64 in ``bits``; d in [1, 10^17), uint64, and k int64."""
    t = bits & _FRACTION
    bq = bits >> 52
    c = np.where(bq != 0, t | _HIDDEN, t)
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # at a power of two the gap below is half the gap above
    asym = (t == 0) & (bq > 1)
    k = np.where(asym, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = [limb.take(-k - _E_MIN) for limb in _G]
    cb = c << 2
    odd = c & 1  # an odd significand's interval excludes its ends
    # four times the value and its interval ends, in units of 10^k,
    # rounded to odd; s and s + 1 are the value's neighbours
    vb, vbl, vbr = (_odd(*_rop(g, cp << h)) for cp in (cb, cb - 2 + asym, cb + 2))
    s = vb >> 2
    sp10 = s // 10 * 10
    uin, win = vbl + odd <= s << 2, ((s + 1) << 2) + odd <= vbr
    upin, wpin = vbl + odd <= sp10 << 2, ((sp10 + 10) << 2) + odd <= vbr
    b = vb & 3
    nearer_s = (b < 2) | ((b == 2) & ((s & 1) == 0))
    d = np.where(np.where(uin != win, uin, nearer_s), s, s + 1)
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), d)
    return d, k


def _words(row: int) -> list[int]:
    """A 24-byte row, given as an int with byte 0 lowest, as its three
    little-endian uint64 words."""
    return [row >> 64 * w & (1 << 64) - 1 for w in range(3)]


def _head(m: int) -> int:
    """The row that keeps the first m bytes of a row."""
    return (1 << 8 * m) - 1


def _pattern_table() -> np.ndarray:
    """The layout of every (form, digit count n) pattern, in ten rows of
    words, one column per pattern ``18 form + n``: three words that keep
    the digits before the point, three that hold the bytes inserted after
    them (the point, or "0." and zeros), three that cut the row after
    its last byte, and the bit shift of the digits past the insertion.

    Form f < 20 is fixed notation with the point after f - 3 digits (at
    most 0: the digits follow "0." and 3 - f zeros); form 20 is exponent
    notation, the point after the first digit, and none for one digit.
    A fixed form shows every digit before its point and at least one after.
    """
    columns = []
    for form, decpt in enumerate([*range(-3, 17), 1]):
        lead = max(decpt, 0)  # digits before the point
        text = b"." if decpt > 0 else b"0." + b"0" * -decpt  # inserted after them
        insert = int.from_bytes(text, "little") << 8 * (1 + lead)
        for n in range(18):
            if form == _EXPONENT_FORM:
                length = n + (n > 1)
            else:
                length = max(n, decpt + 1) + 1 if decpt > 0 else n + len(text)
            cut = _head(1 + length)
            columns.append([*_words(_head(1 + lead)), *_words(insert & cut), *_words(cut), 8 * len(text)])
    return np.array(columns, dtype=np.uint64).T.copy()


_EXPONENT_FORM = 20
_PATTERN = _pattern_table()


#: The decimal-point positions a float64 takes: its digits d_1 d_2 ...
#: are 0.d_1 d_2 ... 10^decpt, decpt in [-323, 309]
_DECPT_MIN, _DECPT_MAX = -323, 309


def _decpt_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per decimal-point position, from ``_DECPT_MIN``: the first pattern
    column of its form (see :func:`_pattern_table`), and the word 2 of
    its exponent 'e±XX' (bytes 19-23 of a row; 0 in fixed notation)."""
    columns, exponents = [], []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        fixed = -4 < decpt <= 16
        columns.append(18 * (decpt + 3 if fixed else _EXPONENT_FORM))
        exponents.append(0 if fixed else int.from_bytes(b"e%+03d" % (decpt - 1), "little") << 24)
    return np.array(columns), np.array(exponents, dtype=np.uint64)


_FORM_COLUMN, _EXPONENT = _decpt_tables()


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For 0 .. 9999: its four ASCII digits in the low four bytes of a
    word, first digit lowest, and its count of trailing zero digits (4
    for 0)."""
    digit = np.arange(48, 58, dtype=np.uint64)
    pair = (digit[:, None] | digit << 8).reshape(-1)
    zeros = np.zeros(10000, dtype=np.int64)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    return (pair[:, None] | pair << 16).reshape(-1), zeros


_QUAD, _QUAD_ZEROS = _quad_tables()


def _octet(u):
    """The eight ASCII digits of each int64 u < 10^8 as a little-endian word,
    and the count of its trailing zero digits (8 for 0)."""
    high = u // 10000
    low = u - high * 10000
    zeros = np.where(low == 0, 4 + _QUAD_ZEROS.take(high), _QUAD_ZEROS.take(low))
    return _QUAD.take(high) | (_QUAD.take(low) << 32), zeros


#: The slot rows of ``inf`` (signed like any number) and ``nan``
_INF, _NAN = (np.array(_words(int.from_bytes(text, "little") << 8), dtype=np.uint64) for text in (b"inf", b"nan"))


def format_floats(values) -> np.ndarray:
    """A (n, 24) uint8 matrix for the n elements of ``values`` (read as
    float64, flattened in C order): row i with its NUL bytes removed is
    the ASCII of ``repr(float(values.flat[i]))``."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitude = bits & _ABS
    regular = (magnitude != 0) & (magnitude < _INF_BITS)
    d, k = _shortest(np.where(regular, magnitude, _ONE_BITS))
    d = np.where(regular, d, 0)
    count = np.searchsorted(_POW10, d, side="right")  # digits of d; 0 for 0
    # d to 17 digits, the first one nonzero, and as int64 (d < 10^17)
    d = (d * _POW10.take(17 - count)).view(np.int64)
    first = d // 10**16
    rest = d - first * 10**16
    upper = rest // 10**8
    middle, middle_zeros = _octet(upper)
    last, last_zeros = _octet(rest - upper * 10**8)
    n = 17 - np.where(last_zeros < 8, last_zeros, 8 + middle_zeros)
    decpt = np.where(regular, k + count, 1) - _DECPT_MIN
    pattern = _PATTERN.take(_FORM_COLUMN.take(decpt) + n, axis=1)
    shift = pattern[9]
    back = 64 - shift
    # bytes 1-17: the digits; byte 0 is the sign's slot
    first = (first.view(np.uint64) + 48) << 8
    digits = (first | (middle << 16), (middle >> 48) | (last << 16), last >> 48)
    out = np.empty((bits.size, 3), dtype="<u8")
    for i, word in enumerate(digits):
        keep, insert, cut = pattern[i], pattern[3 + i], pattern[6 + i]
        moved = (word & ~keep) << shift
        if i:
            moved |= (digits[i - 1] & ~pattern[i - 1]) >> back
        out[:, i] = (word & keep) | insert | (moved & cut)
    out[:, 2] |= _EXPONENT.take(decpt)
    nan = magnitude > _INF_BITS
    out[magnitude == _INF_BITS] = _INF
    out[nan] = _NAN
    out[:, 0] |= np.where(nan, 0, (bits >> 63) * ord("-"))
    return out.view(np.uint8)
