"""The table kernel of `curvint._text` against Python's % formatting:
every float cell must equal "%.17g" % x and every integer cell "%d" % i,
byte for byte, on the uint64 path and on the fallback alike."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvint._text import render


def percent(columns, sep=",", prefix="", blank=None) -> str:
    """render's result by one %-format per cell."""
    rows = []
    for i in range(len(columns[0])):
        cells = ["" if blank is not None and blank[i, j] else
                 ("%.17g" if np.issubdtype(c.dtype, np.floating) else "%d") % c[i]
                 for j, c in enumerate(columns)]
        rows.append(prefix + sep.join(cells) + "\n")
    return "".join(rows)


def assert_floats(values):
    x = np.asarray(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = render([x])
    expected = "".join("%.17g\n" % v for v in x.tolist())
    if got != expected:
        bad = [(v, g, e) for v, g, e in zip(x.tolist(), got.splitlines(), expected.splitlines())
               if g != e]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:5]}")


def neighbours(x, count=3):
    """x and `count` floats on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    assert_floats(np.array(patterns, dtype=np.uint64).view(float))


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_hypothesis_floats(values):
    assert_floats(values)


def test_seeded_draws():
    rng = np.random.default_rng(24)
    assert_floats(rng.standard_normal(50_000))
    assert_floats(rng.uniform(-1, 1, 50_000))
    assert_floats(rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(float))
    assert_floats(10.0 ** rng.uniform(-13, 18, 50_000) * rng.choice([-1, 1], 50_000))


def test_powers_of_ten_and_their_neighbours():
    # the decimal exponent changes at each power of ten; 1e-07 is below 10**-7
    assert render([np.array([1e-07])]) == "9.9999999999999995e-08\n"
    assert_floats([y for k in range(-13, 19) for y in neighbours(10.0 ** k, 5)])


def test_format_switches_and_decade_carries():
    # "%g" turns exponential below 1e-4 and at 1e17 and above
    assert_floats([y for x in (1e-4, 1e-5, 1e16, 1e17, 2.0 ** 52, 2.0 ** -36)
                   for y in neighbours(x, 10)])
    assert_floats([0.99999999999999999, 9.9999999999999999e-5, 0.099999999999999999,
                   99999999999999999.0, 999999999999999.94, 0.99999999999999989])
    # a tie rounds to even, and sixteen trailing zeros are dropped
    assert render([np.array([1234567890123456.75, 2.0, 0.5, 100.0, 1e15])]) == \
        "1234567890123456.8\n2\n0.5\n100\n1000000000000000\n"


def test_powers_of_two_and_integers():
    assert_floats(2.0 ** np.arange(-1074, 1024))
    assert_floats(-(2.0 ** np.arange(-1074, 1024)))
    assert_floats(np.arange(100_000, dtype=float))
    assert_floats(np.random.default_rng(5).integers(0, 2 ** 60, 20_000).astype(float))


def test_values_without_the_uint64_path():
    assert_floats([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                   1.7976931348623157e308, 1e-300, 2.0 ** -37, 2.0 ** 53, 1e300])


def test_integers_at_every_power_of_ten():
    values = sorted({max(v, 0) for k in range(19) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)})
    values += [0, 2 ** 62, 2 ** 63 - 1, -1, -10 ** 8, -2 ** 63]  # beyond the table words
    column = np.array(values, dtype=np.int64)
    assert render([column]) == "".join("%d\n" % v for v in values)


def test_tables_of_mixed_columns_with_blank_cells():
    rng = np.random.default_rng(3)
    n = 10_000  # four blocks
    columns = [np.arange(n), rng.standard_normal(n), rng.integers(0, 2, n).astype(bool),
               10.0 ** rng.uniform(-20, 20, n), np.full(n, 7)]
    blank = rng.random((n, 5)) < 0.2
    for sep, prefix in ((",", ""), (" ", "v "), ("\t", "3 ")):
        assert render(columns, sep, prefix) == percent(columns, sep, prefix)
        assert render(columns, sep, prefix, blank) == percent(columns, sep, prefix, blank)


def test_empty_read_only_and_strided_inputs():
    assert render([np.array([])]) == ""
    assert render([np.zeros(0, np.int64), np.zeros(0)], " ", "f ") == ""
    x = np.random.default_rng(8).standard_normal((500, 3))
    x.flags.writeable = False
    columns = [x[::-2, 2], x[::-2, 0], np.arange(1000)[::-4]]
    assert render(columns) == percent(columns)
    assert render(list(x.T), " ", "v ") == percent(list(x.T), " ", "v ")
