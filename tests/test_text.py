"""The table kernel of `curvint._text` against Python's % formatting:
every float cell must equal "%.17g" % x and every integer cell "%d" % i,
byte for byte, on the uint64 path and on the fallback alike."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import curvint as ci
from curvint import _text
from curvint._text import render
from curvint.cli import run

from conftest import reference_gradcheck_csv


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


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-80, -37), st.integers(0, 2 ** 52 - 1)),
                min_size=1, max_size=64))
def test_bit_patterns_below_the_old_band(fields):
    # 2**-80 <= |x| < 2**-36: the binary exponents that the three-limb power added
    assert_floats(np.array([sign << 63 | (e + 1023) << 52 | m for sign, e, m in fields],
                           dtype=np.uint64).view(float))


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
    assert_floats([y for k in range(-25, -10) for y in neighbours(10.0 ** k, 5)])
    # the float 1e-14 lies 1.2e-18 (relative) below 10**-14, so its 17
    # digits round up into the next decade
    assert Fraction(1e-14) < Fraction(1, 10 ** 14)
    assert render([np.array([1e-14, np.nextafter(1e-14, 0)])]) == "1e-14\n9.9999999999999984e-15\n"


def test_format_switches_and_decade_carries():
    # "%g" turns exponential below 1e-4 and at 1e17 and above
    assert_floats([y for x in (1e-4, 1e-5, 1e16, 1e17, 2.0 ** 52, 2.0 ** -36, 2.0 ** -37,
                               2.0 ** -80, 2.0 ** -81) for y in neighbours(x, 10)])
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
                   1.7976931348623157e308, 1e-300, 2.0 ** -81, 2.0 ** 53, 1e300])


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


def perfbench_jiggled_ico2(seed: int) -> ci.TriMesh:
    """The benchmark's gradcheck input: a level-2 icosphere whose vertices
    move by Gaussian noise of 0.05 mean edge lengths, drawn from `seed`."""
    base = ci.make_icosphere(2, 1.0)
    edges = base.positions[base.faces] - base.positions[np.roll(base.faces, -1, axis=1)]
    sigma = 0.05 * float(np.linalg.norm(edges, axis=2).mean())
    rng = np.random.default_rng(seed)
    return base.with_positions(base.positions + sigma * rng.standard_normal(base.positions.shape))


@pytest.mark.parametrize("seed", [1, 9001])
def test_gradcheck_tables_never_reach_python_formatting(seed, tmp_path, monkeypatch):
    # rel_err is round-off of the complex-step oracle, below the old band's 2**-36
    def refuse(*args):
        raise AssertionError("a cell reached Python formatting")

    path, out = tmp_path / "ico2.off", tmp_path / "grad.csv"
    ci.save_mesh(perfbench_jiggled_ico2(seed), path)
    monkeypatch.setattr(_text, "_fallback", refuse)
    assert run(["gradcheck", "--input", str(path), "--output", str(out)]) == 0
    mesh = ci.load_mesh(path)
    assert out.read_text() == reference_gradcheck_csv(mesh, ci.complex_step_area_gradient(mesh))
    rel = np.array([float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]])
    assert ((rel > 0) & (rel < 2.0 ** -36)).sum() > len(rel) // 2


def test_tables_are_built_on_the_first_render_not_at_import():
    # a fresh interpreter: this process has rendered already
    code = ("import numpy as np, curvint.cli\n"
            "from curvint import _text\n"
            "before = _text._tables.cache_info().currsize\n"
            "text = _text.render([np.array([0.1, 2.0]), np.array([3, 4])])\n"
            "print(before, _text._tables.cache_info().currsize, repr(text))\n")
    src = str(Path(ci.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 1 '0.10000000000000001,3\\n2,4\\n'\n"
