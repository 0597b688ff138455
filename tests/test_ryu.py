"""The cells of ``qbackbone.ryu`` equal ``repr`` of floats and ``str`` of counts, value by value."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qbackbone import ryu
from qbackbone.ryu import count_cells, float_cells


def assert_repr(values: np.ndarray) -> None:
    """Every cell of ``float_cells(values)`` is the ``repr`` of its value."""
    cells = float_cells(values)
    # One newline place after every cell, then the cells in value order
    # with their NUL places dropped.
    cells = np.vstack([cells, np.full((1, len(values)), ord("\n"), np.uint8)])
    got = cells.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    want = [repr(v) for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def neighbours(values: np.ndarray, steps: int = 1) -> np.ndarray:
    """``values`` and the ``steps`` doubles on each side of each."""
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_random_bit_patterns():
    # Any bit pattern: about 2 % are in [2^-32, 2^50), the kernel's range,
    # and the rest take repr, as do the special values but +0.0.
    bits = np.random.default_rng(18).integers(0, 2**64, 200_000, dtype=np.uint64)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 2.2250738585072014e-308])
    # The kernel's biased exponents, 991-1072.  Half the mantissas keep only
    # their top 12 bits, so exact products, dropped zeros and ties are common.
    rng = np.random.default_rng(19)
    mantissas = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
    mantissas[::2] &= ~np.uint64(2**40 - 1)
    in_range = rng.integers(991, 1073, 200_000, dtype=np.uint64) << np.uint64(52) | mantissas
    assert_repr(np.concatenate([bits.view(np.float64), special, in_range.view(np.float64)]))


def test_powers_of_two_and_their_neighbours():
    # Every value with a zero mantissa: the only ones whose lower neighbour
    # is half as far as the upper (Ryu's mmShift = 0).
    assert_repr(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten():
    assert_repr(np.array([float(f"1e{k}") for k in range(-323, 309)]))


def test_integers():
    rng = np.random.default_rng(5)
    exact = np.concatenate(
        [
            np.arange(1, 100_001),
            rng.integers(0, 2**53, 50_000, endpoint=True),
            2**53 - np.arange(1000),
        ]
    )
    # The doubles 2 ulp either side of each pin the integer band, the floor.
    assert_repr(neighbours(exact.astype(np.float64), steps=2))


def column_text(cells: np.ndarray) -> list[str]:
    return [col.tobytes().translate(None, b"\0").decode("ascii") for col in cells.T]


# The edges of the count kernel's 9-digit uint32 lanes, of uint32 and of
# the widest counts.
LANE_EDGES = [0, 9, 10, 10**8 - 1, 10**8, 10**9 - 1, 10**9, 2**32 - 1, 2**32, 10**16, 2**56, 10**18, 2**63 - 1]


def test_counts_at_lane_edges():
    values = sorted({v + d for v in LANE_EDGES for d in (-1, 0, 1) if 0 <= v + d < 2**63})
    for dtype in (np.int64, np.uint64):
        assert column_text(count_cells(np.array(values, dtype))) == [str(v) for v in values]
    assert column_text(count_cells(np.array([2**64 - 1], np.uint64))) == [str(2**64 - 1)]


def test_places_print_leading_zeros():
    # A fraction band: each value below 10**places, all of its places printed.
    rng = np.random.default_rng(7)
    places = rng.integers(1, 21, 5000)
    values = rng.integers(0, 10 ** np.minimum(places, 18)) // rng.integers(1, 10**9, 5000)
    values = values.astype(np.uint64)
    want = [f"{v:0{p}d}" for v, p in zip(values.tolist(), places.tolist())]
    assert column_text(count_cells(values, places)) == want


def test_three_decimal_values():
    assert_repr(np.arange(100_000) / 1000)


def test_channel_grid_times():
    # The time columns of pass tables: k·step on dyadic and non-dyadic steps.
    k = np.arange(100_001)
    for step in (0.25, 0.1, 1 / 3, 0.7, 2.0):
        assert_repr(k * step)


def dropped_digits(values: np.ndarray) -> np.ndarray:
    """How many of vr's digits ``ryu.shortest`` drops for each value in the
    kernel's range: its exponent less vr's."""
    bits = values.view(np.uint64)
    return ryu.shortest(bits)[1] - ryu._E10[(bits >> 52).astype(np.intp) - ryu._LOW]


def test_short_decimals_and_every_dropped_digit_count():
    # d·10^e with 1 to 17 significant digits, and their neighbours, across
    # [2^-32, 2^50): a value drops up to 18 digits (1e-9 does), each one
    # past the thousands found by the digit search.
    rng = np.random.default_rng(34)
    text = [
        f"{d}e{e - digits + 1}"
        for digits in range(1, 18)
        for e in range(-10, 16)
        for d in rng.integers(10 ** (digits - 1), 10**digits, 40).tolist() + [10 ** (digits - 1)]
    ]
    values = neighbours(np.array([float(t) for t in text]))
    values = values[(values >= 2.0**-32) & (values < 2.0**50)]
    assert_repr(values)
    assert set(dropped_digits(values).tolist()) == set(range(1, 19))
    assert dropped_digits(np.array([1e-9])).tolist() == [18]


def test_notation_switches():
    # repr turns to exponent form below 1e-4 and from 1e16 on.
    switches = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 9.999999999999999e-05, 9999999999999998.0])
    assert_repr(neighbours(switches, steps=20))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats() | st.floats(2.0**-32, 2.0**-13)))
def test_any_float64_array(values):
    assert_repr(values)
