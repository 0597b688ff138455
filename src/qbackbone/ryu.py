"""Shortest round-trip digits of float64 arrays, laid out as ``repr`` prints them.

A numpy port of Ryu's ``d2s`` (Ulf Adams, "Ryū: fast float-to-string
conversion", PLDI 2018).  For each positive normal double it finds the
shortest decimal that reads back as the same double, the nearest one when
several are that short: the digits Python's ``repr`` prints.  The 64×64-bit
products of the mantissa and the 128-bit powers of five are built from
32-bit limbs in ``uint64`` lanes, so the kernel runs on integer operations
only and its bytes cannot depend on numpy's SIMD dispatch.  Zeros,
negatives, subnormals, infinities and nan take ``repr`` per value.

Each value becomes one column of a ``uint8`` matrix, one row per byte
place, with a boolean mask of the bytes that belong to its text, so a
caller can stack the cells of a table's columns and compact every cell of
it with one mask.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFF_FFFF)
_INVERSE_ROWS = 292  # 5^-q for the exponents of values >= 2^54


def _multipliers() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's 128-bit multipliers as (low, high) ``uint64`` words.

    Row q < 292 is ⌊2^(len(5^q) - 1 + 125) / 5^q⌋ + 1, the inverse power
    that divides by 5^q; row 292 + i is the top 125 bits of 5^i, i < 326.
    """
    inverse = [(1 << (5**q).bit_length() + 124) // 5**q + 1 for q in range(_INVERSE_ROWS)]
    forward = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    words = inverse + forward
    return (
        np.array([w & 0xFFFF_FFFF_FFFF_FFFF for w in words], np.uint64),
        np.array([w >> 64 for w in words], np.uint64),
    )


_POW10 = np.array([10**k for k in range(20)], np.uint64)  # 10^19 < 2^64
_ONE = np.float64(1.0).view(np.uint64)


def _pow5_bits(e: np.ndarray) -> np.ndarray:
    """Bit length of 5^e, for 0 <= e <= 3528."""
    return (e * 1217359 >> 19) + 1


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Ryu's per-exponent constants, indexed by the biased exponent.

    A value's ``mv = 4·m2`` has the binary exponent e2 = biased - 1077.
    Step 3 scales it by 10^-e10: values >= 2^54 (e2 >= 0) by an inverse
    power of five, smaller ones by a power of five, then shifts right by
    ``shift``.  Returned: e10, the multiplier's two words, the shift less
    64 and 128 less the shift, the mask of the 2^q that makes a small
    value's dropped digits zeros, whether q <= 1, and 5^q where a big
    value's dropped digits may be zeros (else 0).
    """
    e2 = np.clip(np.arange(2048), 1, 2046) - 1077  # 0 and 2047 never reach the kernel
    big = e2 >= 0
    a = np.abs(e2)
    q = np.where(big, (a * 78913 >> 18) - (a > 3), (a * 732923 >> 20) - (a > 1))
    row = np.where(big, q, _INVERSE_ROWS + a - q)
    shift = np.where(big, q - e2 + 124 + _pow5_bits(q), q + 125 - _pow5_bits(a - q))
    low, high = _multipliers()
    twos = (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    return (
        np.where(big, q, q + e2),
        low[row],
        high[row],
        (shift - 64).astype(np.uint64),
        (128 - shift).astype(np.uint64),
        np.where(big, np.uint64(2**64 - 1), twos),
        ~big & (q <= 1),
        np.where(big & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(np.uint64),
    )


_E10, _MUL_LOW, _MUL_HIGH, _RIGHT, _LEFT, _TWOS, _TINY, _FIVES = _exponent_tables()


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
    """Ryu's ``d2d`` over the bit patterns of positive normal doubles.

    Returns ``(digits, exponent)``, ``uint64`` and ``int64``: each value is
    ``digits · 10**exponent`` with the fewest digits that round-trip.
    """
    biased = bits >> 52
    mantissa = bits & np.uint64((1 << 52) - 1)
    mv = (mantissa | np.uint64(1 << 52)) << 2  # 4·m2, the value's scaled mantissa
    even = (mantissa & 1) == 0  # accept the interval's bounds
    mm_shift = (mantissa != 0) | (biased <= 1)  # the lower neighbour is 1 ulp away, not 1/2

    # Step 3: scale mv, mp = mv + 2 and mm = mv - 1 - mm_shift by 10^-e10,
    # from mv·mul in three words w0, w1, w2 shifted right by 64 + right.
    exponent = _E10[biased]
    mul_low, mul_high, right, left = _MUL_LOW[biased], _MUL_HIGH[biased], _RIGHT[biased], _LEFT[biased]
    h0, w0 = _umul(mv, mul_low)
    w2, w1 = _umul(mv, mul_high)
    w1 = w1 + h0
    w2 = w2 + (w1 < h0)

    def shifted(mid: np.ndarray, high: np.ndarray) -> np.ndarray:
        return (high << left) | (mid >> right)

    vr = shifted(w1, w2)
    # vp adds 2·mul; vm subtracts (1 + mm_shift)·mul.  Both multipliers fit in two words.
    two_low, two_high = mul_low << 1, (mul_high << 1) | (mul_low >> 63)
    low = w0 + two_low
    carry = two_high + (low < w0)
    vp = shifted(w1 + carry, w2 + (w1 + carry < w1))
    sub_low, sub_high = np.where(mm_shift, two_low, mul_low), np.where(mm_shift, two_high, mul_high)
    borrow = sub_high + (w0 < sub_low)
    vm = shifted(w1 - borrow, w2 - (w1 < borrow))

    # Whether the digits dropped from vr and vm are all zeros.  For big values
    # that needs mv, mp or mm to be a multiple of 5^q, for small ones of 2^q;
    # mv always has two factors of 2, so q <= 1 makes vr exact.
    vr_zeros = mv & _TWOS[biased] == 0
    tiny = _TINY[biased]
    vm_zeros = tiny & even & mm_shift
    vp -= tiny & ~even
    pow5 = _FIVES[biased]
    fives = pow5 != 0
    if fives.any():
        pow5 = np.maximum(pow5, 1)

        def multiple(v: np.ndarray) -> np.ndarray:
            return v - v // pow5 * pow5 == 0

        mv_five = mv - mv // 5 * 5 == 0
        vr_zeros |= fives & mv_five & multiple(mv)
        vm_zeros |= fives & ~mv_five & even & multiple(mv - 1 - mm_shift)
        vp -= fives & ~mv_five & ~even & multiple(mv + 2)

    # Step 4: drop the digits below the first place where vp and vm differ,
    # found one place at a time; most values drop a few.
    removed = np.zeros(len(vr), np.int64)
    for place in _POW10[1:]:
        more = vp // place > vm // place
        if not more.any():
            break
        removed += more
    exponent += removed
    # vr's dropped digits: the first one dropped is `last`; below it, zeros or not.
    scale = _POW10[np.maximum(removed - 1, 0)]
    kept = vr // scale
    vr_zeros &= vr - kept * scale == 0
    vr, last = _div10(kept)
    vr, last = np.where(removed > 0, vr, kept), last * (removed > 0)
    scale = _POW10[removed]
    vp, kept = vp // scale, vm // scale
    vm_zeros &= vm - kept * scale == 0
    vm = kept
    # An exact lower bound may drop further zeros (rare: values with short binary forms).
    while True:
        vm10, vm_digit = _div10(vm)
        more = vm_zeros & (vm_digit == 0)
        if not more.any():
            break
        vr10, vr_digit = _div10(vr)
        vr_zeros &= ~more | (last == 0)
        last = np.where(more, vr_digit, last)
        vr, vp, vm = np.where(more, vr10, vr), np.where(more, vp // 10, vp), np.where(more, vm10, vm)
        exponent += more
    # Round half to even when the dropped digits are exactly 5000...
    half_even = vr_zeros & (last == 5) & (vr & 1 == 0)
    round_up = ((vr == vm) & (~even | ~vm_zeros)) | ((last >= 5) & ~half_even)
    return vr + round_up, exponent


# The byte places of a cell: '0.000' before the digits; the 17 digits, each
# followed by a place for the decimal point; 15 trailing zeros and '.0';
# then 'e', the sign and three exponent digits.  Each value keeps the bytes
# of its own notation.
_DIGITS, _POINTS = slice(5, 39, 2), slice(6, 40, 2)
_ZEROS, _DOT_ZERO, _EXPONENT = slice(39, 54), slice(54, 56), slice(56, 61)
_TEMPLATE = np.frombuffer(b"0.000" + b"0." * 17 + b"0" * 15 + b".0" + b"e+000", np.uint8)


def _layout(digits: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``digits · 10**exponent`` as ``repr`` writes them, one
    column per value (see ``float_cells``).

    Fixed notation when the decimal point falls after at most 16 digits and
    before at most 3 zeros (``-4 < point <= 16``), with ``.0`` on integral
    values; else ``d.ddde±XX``, with no point after a single digit.
    """
    size = np.searchsorted(_POW10, digits, side="right")
    point = exponent + size  # digits before the decimal point
    fixed = (point > -4) & (point <= 16)
    power = point - 1  # the exponent of scientific notation
    chars = np.repeat(_TEMPLATE[:, None], len(digits), axis=1)
    keep = np.empty(chars.shape, bool)
    places = np.arange(17)[:, None]
    # '0.' and one zero per place the point lies before the first digit.
    lead = np.where(fixed, -point, -1)
    keep[:2] = lead >= 0
    keep[2:5] = places[:3] < lead
    for place in range(16, -1, -1):
        digits, digit = _div10(digits)
        chars[5 + 2 * place] += digit.astype(np.uint8)
    keep[_DIGITS] = places >= 17 - size
    # The point follows digit 16 + exponent in fixed notation when that is a
    # digit but not the last, and the first digit in scientific notation.
    after = np.where(fixed, np.where((point > 0) & (exponent < 0), 16 + exponent, -1), np.where(size > 1, 17 - size, -1))
    keep[_POINTS] = places == after
    keep[_ZEROS] = places[:15] < np.where(fixed, exponent, 0)
    keep[_DOT_ZERO] = fixed & (exponent >= 0)
    chars[57] = np.where(power < 0, ord("-"), ord("+"))
    magnitude = np.abs(power)
    keep[_EXPONENT] = ~fixed
    keep[58] &= magnitude >= 100  # two exponent digits below 100, as repr writes them
    for place in (60, 59, 58):
        magnitude, digit = _div10(magnitude)
        chars[place] += digit.astype(np.uint8)
    return chars, keep


def float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``repr`` of each float64 in a ``uint8`` matrix with one column per
    value and one row per byte place, and the mask of the bytes that make up
    each value's text.  Rows that no value keeps are left out."""
    values = np.ascontiguousarray(values, np.float64)
    bits = values.view(np.uint64)
    biased = bits >> 52  # the sign bit makes it >= 2048
    fast = (biased > 0) & (biased < 2047)
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
