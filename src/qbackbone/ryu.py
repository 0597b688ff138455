"""Shortest round-trip digits of float64 arrays, and their cells as ``repr`` prints them.

A numpy port of Ryu's ``d2d`` (Ulf Adams, "Ryū: fast float-to-string
conversion", PLDI 2018) for doubles in [2^-32, 2^50), about 2.3e-10 to
1.1e15: every time in frames.csv and every nonzero number a shipped
config's linkbudget table prints.  It finds the shortest decimal that reads
back as the same double, the nearest when several are that short: the
digits ``repr`` prints.  The range keeps the kernel small:

- a value's ``mv = 4·m2`` has the binary exponent -a, 5 <= a <= 86, and
  Ryu scales it by 10^(a-q)·2^-a = 5^i·2^-q with q = ⌊a·log10 5⌋ - 1, so
  2 <= q <= 59 and i = a - q <= 27; 2^-32 is the lowest binade whose 5^i
  stays below 2^63, so 5^i and twice it fit in one ``uint64``, every
  product is exact and every shift is below 64;
- with q >= 2 the rounding interval's lower bound is never exact, so the
  digits dropped from it are never all zeros;
- its bounds vp and vm lie 30 to 400 apart: past its hundreds a value drops its
  thousands and a digit per trailing zero of vp // 1000 < 10^16, at most 15.

One exact 64×64-bit product per value, from 32-bit limbs in ``uint64``
lanes, plus carries, and four halving steps that count those zeros: the
bytes cannot depend on numpy's SIMD dispatch.  +0.0 prints as ``0.0``;
other values (NaN, infinities, negatives, -0.0) take ``repr``.  Each value
becomes a column of a ``uint8`` matrix, a row per byte place, NUL in the
places its text does not use, so a caller can stack the cells of a table's
columns and drop every NUL at once.  A float's cell is three bands, its
integer part, a point and its fraction's digits, the digits from
``count_cells``, which writes frames.csv's counts too; below 1e-4 ``repr``
turns to exponent form, whose first digit, point and other digits take the
same bands, followed by ``e-`` and two digits.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFF_FFFF)
_POW10 = np.array([10**k for k in range(20)], np.uint64)  # 10^19 < 2^64
_SUFFIX = np.array([list(b"e-%02d" % k) for k in range(11)], np.uint8)  # exponent form's tail

# Per biased exponent from _LOW (2^-32) to _HIGH (2^50, excluded): a, q,
# 5^i and vr's decimal exponent q - a.
_LOW, _HIGH = 991, 1073
_A = 1077 - np.arange(_LOW, _HIGH)
_Q = np.array([len(str(5**a)) - 2 for a in _A.tolist()])
_FIVE = (5 ** (_A - _Q)).astype(np.uint64)
_E10 = _Q - _A
_RIGHT, _LEFT = _Q.astype(np.uint64), (64 - _Q).astype(np.uint64)


def _div10(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder by 10; numpy's ``uint64 %`` is far slower than ``//``."""
    quotient = v // 10
    return quotient, v - quotient * 10


def shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's ``d2d`` over the bit patterns of doubles in [2^-32, 2^50).

    Returns ``(digits, exponent)``, ``uint64`` and ``int64``: each value is
    ``digits · 10**exponent`` with the fewest digits that round-trip.
    """
    row = (bits >> 52).astype(np.intp) - _LOW
    mantissa = bits & np.uint64((1 << 52) - 1)
    mv = (mantissa | np.uint64(1 << 52)) << 2  # 4·m2, the value's scaled mantissa
    five, right, left = _FIVE[row], _RIGHT[row], _LEFT[row]

    # Step 3: vr, the upper bound vp and the lower bound vm (half as far
    # below a power of two, whose lower neighbour is half an ulp away), as
    # ⌊m·5^i / 2^q⌋ for m = mv, mv + 2 and mv - 1 - mmShift.  Only the
    # product P = mv·5^i < 2^118 is multiplied out, from 32-bit limbs: each
    # sum below is at most (2^32 - 1)^2 + 2·(2^32 - 1) = 2^64 - 1.  The
    # bounds' products are P + 2·5^i and P - (1 + mmShift)·5^i (5^i < 2^63),
    # with a carry or borrow from the low word; each quotient < 2^64.
    m0, m1, f0, f1 = mv & _MASK32, mv >> 32, five & _MASK32, five >> 32
    low, mid = m0 * f0, m1 * f0
    cross = (low >> 32) + (mid & _MASK32) + m0 * f1
    high, low = m1 * f1 + (mid >> 32) + (cross >> 32), (cross << 32) | (low & _MASK32)
    up, down = low + (five << 1), five + five * (mantissa != 0)
    bounds = ((high, low), (high + (up < low), up), (high - (low < down), low - down))
    vr, vp, vm = ((h << left) | (w >> right) for h, w in bounds)
    vr_zeros = mv >> right << right == mv  # 5^i is odd: vr is exact iff 2^q divides mv

    # Step 4: drop the digits below the first place where vp and vm differ.  As
    # 5^i/2^q = 5^a/10^q is in [10, 100), 29 < vp - vm < 401: each value drops its
    # units, and one that drops its thousands (the one multiple of 1000 in (vm, vp])
    # a digit per trailing zero of vp // 1000 < 10^16 too (vr < 2^55·100 < 10^19).
    thousands = vp // 1000
    live = np.flatnonzero(thousands > vm // 1000)
    removed = 1 + (vp // 100 > vm // 100)
    thousands, zeros = thousands[live], 1
    for place in (8, 4, 2, 1):
        quotient = thousands // 10**place
        hit = quotient * 10**place == thousands
        thousands, zeros = np.where(hit, quotient, thousands), zeros + place * hit
    removed[live] += zeros
    # vr's dropped digits: the first one dropped is `last`; below it, zeros or not.
    scale = _POW10[removed - 1]
    kept = vr // scale
    vr_zeros &= vr - kept * scale == 0
    vr, last = _div10(kept)
    # Round half to even when the dropped digits are exactly 5000..., and up
    # when vr fell on vm (vm <= vr, so when vm >= vr·10^removed), which is
    # outside the interval: vm is never exact.
    half_even = vr_zeros & (last == 5) & (vr & 1 == 0)
    round_up = (vm >= vr * scale * 10) | ((last >= 5) & ~half_even)
    return vr + round_up, _E10[row] + removed


def count_cells(values: np.ndarray, places: np.ndarray | None = None) -> np.ndarray:
    """The ``str`` of each non-negative integer below 2^64 as right-aligned
    ASCII digits, NUL in the places before them, laid out as ``float_cells``
    lays out its cells, from ``uint32`` lanes of 9 digits.  With ``places``, each
    value below ``10**places`` prints exactly that many digits (none for 0), its leading zeros too."""
    width = len(str(int(values.max(initial=0)))) if places is None else int(places.max(initial=1))
    chars = np.empty((width, len(values)), np.uint8)
    for end in range(width, 0, -9):
        high = values // 10**9 if end > 9 else 0  # a lower lane keeps a 1 above its digits where more follow
        lane = (values - (high - (high > 0)) * 10**9).astype(np.uint32)
        for place in range(end - 1, max(end - 9, 0) - 1, -1):
            quotient = lane // 10
            digit = lane - quotient * 10
            chars[place] = digit if places is not None else (digit + ord("0")) * (lane != 0)
            lane = quotient
        values = high
    if places is None:
        chars[-1] |= ord("0")  # the units digit, also of 0
    else:
        chars += ord("0")
        chars *= np.arange(width, 0, -1)[:, None] <= places  # NUL before each value's places
    return chars


def float_cells(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 in a ``uint8`` matrix with one column per
    value and one row per byte place, NUL in the places a value's text does
    not use.  Only the places that some value in the call uses are laid
    out, with room for the longest ``repr`` fallback."""
    values = np.ascontiguousarray(values, np.float64)
    bits = values.view(np.uint64)
    # A biased exponent in [_LOW, _HIGH): below _LOW the difference wraps
    # round, and the sign bit makes it >= 2048.
    fast = (bits >> 52) - np.uint64(_LOW) < _HIGH - _LOW
    # The other values are laid out as 1.0 here; +0.0 then takes the integer
    # part 0, the rest their repr.
    kept = np.where(fast, values, 1.0)
    fast |= bits == 0
    digits, exponent = shortest(kept.view(np.uint64))
    # Three bands: the integer part, the point and the fraction's digits.  No
    # integer lies between a double and its shortest decimal (it would be a
    # double nearer that decimal), so the integer part is the floor; a value
    # from 1 up has at most 16 fraction digits.
    floor, length = np.floor(kept).astype(np.uint64) * (bits != 0), np.maximum(-exponent, 1)
    fraction = (digits - floor * _POW10[np.minimum(length, 16)]) * (exponent < 0)  # 0 if integral
    point = np.full((1, len(values)), ord("."), np.uint8)
    suffix = np.zeros((0, len(values)), np.uint8)
    sci = np.flatnonzero(kept < 1e-4)
    if len(sci):
        # Below 1e-4 repr turns to exponent form: the first digit, then the
        # point and the others if any follow, then e- and two digits.
        sig = digits[sci]
        places = np.searchsorted(_POW10, sig, "right") - 1  # the digits after the first
        first = sig // _POW10[places]
        floor[sci], fraction[sci], length[sci] = first, sig - first * _POW10[places], places
        point[0, sci] *= places > 0
        suffix = np.zeros((4, len(values)), np.uint8)
        suffix[:, sci] = _SUFFIX[-exponent[sci] - places].T
    cells = np.vstack([count_cells(floor), point, count_cells(fraction, length), suffix])
    if not fast.all():
        # No repr holds a NUL byte; numpy pads the shorter ones with NUL,
        # and the cells grow to the longest.
        text = np.array([repr(v) for v in values[~fast].tolist()], dtype="S")
        cells = np.pad(cells, ((0, max(text.itemsize - len(cells), 0)), (0, 0)))
        cells[:, ~fast] = 0
        cells[: text.itemsize, ~fast] = text.view(np.uint8).reshape(len(text), -1).T
    return cells
