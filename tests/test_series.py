"""TimeSeries CSV form: the block formatter against the per-value f-string."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dressedatom import series
from dressedatom.series import _CSV_BLOCK, TimeSeries


def _fstring_csv(ts: TimeSeries) -> str:
    """One f-string per value, one join per row: the reference formatter."""
    lines = [",".join(ts.columns)]
    for row in ts.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _table(data: np.ndarray) -> TimeSeries:
    cols = [f"c{i}" for i in range(data.shape[1])]
    return TimeSeries(cols, data, monotonic=False)


@pytest.mark.parametrize("n_cols", [1, 8])
@pytest.mark.parametrize("n_rows", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_to_csv_matches_fstring_at_block_edges(n_rows, n_cols):
    rng = np.random.default_rng(n_rows * 10 + n_cols)
    data = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-30, 30, (n_rows, n_cols))
    ts = _table(data)
    assert ts.to_csv() == _fstring_csv(ts)
    assert ts.to_csv().count("\n") == n_rows + 1


def test_to_csv_matches_fstring_on_special_values():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 1e22, 0.1]
    data = np.array(values).reshape(-1, 1)
    for ts in (_table(data), _table(data.reshape(1, -1))):
        assert ts.to_csv() == _fstring_csv(ts)
    fields = ts.to_csv().splitlines()[1].split(",")
    assert fields[:8] == ["0", "-0", "inf", "-inf", "nan", "nan", "4.9406564584124654e-324",
                          "-4.9406564584124654e-324"]
    assert fields[9:13] == ["1.7976931348623157e+308", "-1.7976931348623157e+308",
                            "1", "-3"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(np.float64,
              st.tuples(st.integers(0, 2 * _CSV_BLOCK + 3), st.integers(1, 8)),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_to_csv_matches_fstring_property(data):
    ts = _table(data)
    assert ts.to_csv() == _fstring_csv(ts)


# ------------------------------------------- certification edges of the formatter

def _check(values, n_cols=1):
    data = np.asarray(values, dtype=float)
    data = data[:data.size // n_cols * n_cols].reshape(-1, n_cols)
    ts = _table(data)
    assert ts.to_csv() == _fstring_csv(ts)


def _walk(x, n):
    """x and the n doubles on either side of it."""
    down, up = [x], [x]
    for _ in range(n):
        down.append(np.nextafter(down[-1], 0.0))
        up.append(np.nextafter(up[-1], np.inf))
    return down[::-1] + up[1:]


def test_to_csv_powers_of_ten_and_neighbours():
    # every 10**k a double can approach, and two doubles on either side
    values = []
    for k in range(-323, 309):
        values += _walk(float(f"1e{k}"), 2)
    _check(values + [-x for x in values], n_cols=5)


def test_to_csv_across_the_g_switch_points():
    # %g turns to exponent notation below 1e-4 and from 1e17 on, decided by
    # the exponent after rounding to 17 digits, so values just below a switch
    # point that round up to it change notation
    values = []
    for x in (1e-5, 1e-4, 1e16, 1e17):
        values += _walk(x, 40)
    values += [9.99999999999999999e-5, 99999999999999999.0]  # round up to the switch
    fields = _table(np.array(values).reshape(-1, 1)).to_csv().split()[1:]
    assert {"9.9999999999999991e-05", "0.0001", "99999999999999984", "1e+17",
            "10000000000000000"} <= set(fields)
    _check(values + [-x for x in values], n_cols=3)


def _tie_distance(x: float) -> Fraction:
    """Distance of the fraction of y = |x| * 10**(16 - E) from one half,
    exactly, with E chosen so that 1e16 <= y < 1e17."""
    num, den = abs(x).as_integer_ratio()
    e = math.floor(math.log10(abs(x))) + 1
    while True:
        top, bottom = (num * 10 ** (16 - e), den) if e <= 16 else (num, den * 10 ** (e - 16))
        if top < 10 ** 16 * bottom:
            e -= 1
        elif top >= 10 ** 17 * bottom:
            e += 1
        else:
            return Fraction(abs(2 * (top % bottom) - bottom), 2 * bottom)


def test_to_csv_inside_the_guard_band():
    rng = np.random.default_rng(1990)
    # exact ties: m / 2**k, m odd, whose 18 significant digits end in 5
    ties = []
    for k in range(2, 12):
        lo, hi = 10 ** 17 // 5 ** k + 1, min(2 ** 53, 10 ** 18 // 5 ** k)
        ties += [(int(m) | 1) / 2 ** k for m in rng.integers(lo, hi, 30)]
    assert all(_tie_distance(x) == 0 for x in ties)
    # doubles whose scaled fraction lies within the guard (1/64) of one half;
    # the long double product misses by up to ~0.008, so the closest ones
    # round the wrong way without the guard
    candidates = rng.standard_normal(100_000) * 10.0 ** rng.integers(-300, 300, 100_000)
    near = [x for x in candidates.tolist() if _tie_distance(x) < Fraction(1, 64)]
    assert sum(_tie_distance(x) < Fraction(1, 500) for x in near) >= 200
    _check(ties + near + [-x for x in near], n_cols=4)


def test_to_csv_subnormals():
    rng = np.random.default_rng(4)
    bits = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    bits[:52] = np.uint64(1) << np.arange(52, dtype=np.uint64)
    values = bits.view(np.float64)
    _check(np.concatenate([values, -values, [2.2250738585072009e-308]]), n_cols=3)


def test_to_csv_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 120_000, dtype=np.uint64)
    _check(bits.view(np.float64), n_cols=6)


def test_to_csv_without_extended_long_double(monkeypatch):
    # where long double has fewer than 63 fraction bits, every value falls
    # back to the per-value %.17g
    monkeypatch.setattr(series, "_EXTENDED", False)
    rng = np.random.default_rng(8)
    values = rng.standard_normal(5_000) * 10.0 ** rng.integers(-320, 300, 5_000)
    values[::100] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0, -1e300, 0.1, 1e16] * 5
    _check(values, n_cols=5)


def test_to_csv_scratch_memory_does_not_grow_with_rows():
    # "".join holds the blocks' text and the joined text at once, two copies
    # of the output; beyond them the formatter holds one block of scratch
    # (the 48-byte fields of the whole table at once would be ~46 MiB here)
    rng = np.random.default_rng(3)
    scratch = []
    for n_rows in (20_000, 200_000):
        ts = _table(rng.standard_normal((n_rows, 5)))
        tracemalloc.start()
        try:
            text = ts.to_csv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch.append(peak - 2 * len(text))
    assert scratch[1] < 512 * 1024
    assert scratch[1] < scratch[0] + 64 * 1024
