"""Shortest round-trip digits of float64 arrays, laid out as ``repr`` prints them.

A numpy port of Ryu's ``d2d`` (Ulf Adams, "Ryū: fast float-to-string
conversion", PLDI 2018) for doubles in [2^-13, 2^50), the range of every
time in frames.csv.  It finds the shortest decimal that reads back as the
same double, the nearest when several are that short: the digits ``repr``
prints.  The range keeps the kernel small:

- a value's ``mv = 4·m2`` has the binary exponent -a, 5 <= a <= 67, and
  Ryu scales it by 10^(a-q)·2^-a = 5^i·2^-q with q = ⌊a·log10 5⌋ - 1 >= 2
  and i = a - q <= 22, so 5^i fits in one ``uint64`` and every product is
  exact;
- with q >= 2 the rounding interval's lower bound is never exact, so the
  digits dropped from it are never all zeros;
- ``repr`` prints every value in the range in fixed notation.

The 64×64-bit products are built from 32-bit limbs in ``uint64`` lanes,
so the bytes cannot depend on numpy's SIMD dispatch.  Other values take
``repr``.  Each value becomes a column of a ``uint8`` matrix, a row per
byte place, with a mask of the bytes of its text, so a caller can stack
the cells of a table's columns and compact them with one mask.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFF_FFFF)
_POW10 = np.array([10**k for k in range(20)], np.uint64)  # 10^19 < 2^64
_ONE = np.float64(1.0).view(np.uint64)

# Per biased exponent from _LOW (2^-13) to _HIGH (2^50, excluded): a, q,
# 5^i and vr's decimal exponent q - a.
_LOW, _HIGH = 1010, 1073
_A = 1077 - np.arange(_LOW, _HIGH)
_Q = np.array([len(str(5**a)) - 2 for a in _A.tolist()])
_FIVE = (5 ** (_A - _Q)).astype(np.uint64)
_E10 = _Q - _A
_RIGHT, _LEFT = _Q.astype(np.uint64), (64 - _Q).astype(np.uint64)


def _umul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a·b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, mid = a0 * b0, a1 * b0
    # At most (2^32 - 1)^2 + 2·(2^32 - 1) = 2^64 - 1: no carry is lost.
    cross = (low >> 32) + (mid & _MASK32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (cross >> 32), (cross << 32) | (low & _MASK32)


def _div10(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder by 10; numpy's ``uint64 %`` is far slower than ``//``."""
    quotient = v // 10
    return quotient, v - quotient * 10


def shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's ``d2d`` over the bit patterns of doubles in [2^-13, 2^50).

    Returns ``(digits, exponent)``, ``uint64`` and ``int64``: each value is
    ``digits · 10**exponent`` with the fewest digits that round-trip.
    """
    row = (bits >> 52) - np.uint64(_LOW)
    mantissa = bits & np.uint64((1 << 52) - 1)
    mv = (mantissa | np.uint64(1 << 52)) << 2  # 4·m2, the value's scaled mantissa
    five, right, left = _FIVE[row], _RIGHT[row], _LEFT[row]

    def scaled(m: np.ndarray) -> np.ndarray:
        # ⌊m·5^i / 2^q⌋: m·5^i < 2^107 and the quotient < 100·2^55 < 2^64.
        high, low = _umul(m, five)
        return (high << left) | (low >> right)

    # Step 3: vr, the upper bound vp and the lower bound vm (half as far
    # below a power of two, whose lower neighbour is half an ulp away).
    vr, vp, vm = scaled(mv), scaled(mv + 2), scaled(mv - 1 - (mantissa != 0))
    vr_zeros = mv >> right << right == mv  # 5^i is odd: vr is exact iff 2^q divides mv

    # Step 4: drop the digits below the first place where vp and vm differ,
    # found one place at a time.  5^i/2^q = 5^a/10^q >= 10, so vp - vm > 29
    # and at least one digit is always dropped.
    removed = np.ones(len(vr), np.int64)
    for place in _POW10[2:]:
        more = vp // place > vm // place
        if not more.any():
            break
        removed += more
    # vr's dropped digits: the first one dropped is `last`; below it, zeros or not.
    scale = _POW10[removed - 1]
    kept = vr // scale
    vr_zeros &= vr - kept * scale == 0
    vr, last = _div10(kept)
    # Round half to even when the dropped digits are exactly 5000..., and up
    # when vr fell on vm, which is outside the interval: vm is never exact.
    half_even = vr_zeros & (last == 5) & (vr & 1 == 0)
    round_up = (vr == vm // _POW10[removed]) | ((last >= 5) & ~half_even)
    return vr + round_up, _E10[row] + removed


# The byte places of a cell: '0.000' before the digits; the 17 digits, each
# followed by a place for the decimal point; then 15 trailing zeros and '.0'.
_DIGITS, _POINTS = slice(5, 39, 2), slice(6, 40, 2)
_ZEROS, _DOT_ZERO = slice(39, 54), slice(54, 56)
_TEMPLATE = np.frombuffer(b"0.000" + b"0." * 17 + b"0" * 15 + b".0", np.uint8)


def _layout(digits: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``digits · 10**exponent`` as ``repr`` writes them, one
    column per value (see ``float_cells``).

    Fixed notation, which ``repr`` uses from 1e-4 up to 1e16: a decimal
    point after at most 16 digits and before at most 3 zeros, with ``.0``
    on integral values.
    """
    size = np.searchsorted(_POW10, digits, side="right")
    point = exponent + size  # digits before the decimal point
    chars = np.repeat(_TEMPLATE[:, None], len(digits), axis=1)
    keep = np.empty(chars.shape, bool)
    places = np.arange(17)[:, None]
    # '0.' and one zero per place the point lies before the first digit.
    keep[:2] = point <= 0
    keep[2:5] = places[:3] < -point
    for place in range(16, -1, -1):
        digits, digit = _div10(digits)
        chars[5 + 2 * place] += digit.astype(np.uint8)
    keep[_DIGITS] = places >= 17 - size
    # The point follows digit 16 + exponent when that is a digit but not the last.
    keep[_POINTS] = places == np.where((point > 0) & (exponent < 0), 16 + exponent, -1)
    keep[_ZEROS] = places[:15] < exponent
    keep[_DOT_ZERO] = exponent >= 0
    return chars, keep


def float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``repr`` of each float64 in a ``uint8`` matrix with one column per
    value and one row per byte place, and the mask of the bytes that make up
    each value's text.  Rows that no value keeps are left out."""
    values = np.ascontiguousarray(values, np.float64)
    bits = values.view(np.uint64)
    biased = bits >> 52  # the sign bit makes it >= 2048
    fast = (biased >= _LOW) & (biased < _HIGH)
    # The other values are laid out as 1.0 here and replaced by their repr.
    chars, keep = _layout(*shortest(np.where(fast, bits, _ONE)))
    if not fast.all():
        # Every repr of a float fits the places of a cell and holds no NUL byte.
        text = np.array([repr(v) for v in values[~fast].tolist()], dtype="S")
        text = text.view(np.uint8).reshape(len(text), -1).T
        keep[:, ~fast] = False
        chars[: len(text), ~fast], keep[: len(text), ~fast] = text, text != 0
    used = keep.any(axis=1)
    return chars[used], keep[used]
