"""TimeSeries CSV form: the block formatter against the per-value f-string."""

import contextlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dressedatom import series
from dressedatom.errors import ValidationError
from dressedatom.scenario import OUTPUT_KINDS, parse_config, run_scenario
from dressedatom.series import _BLOCK_VALUES, TimeSeries, write_csv


def _fstring_csv(ts: TimeSeries) -> str:
    """One f-string per value, one join per row: the reference formatter."""
    lines = [",".join(ts.columns)]
    for row in ts.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _table(data: np.ndarray) -> TimeSeries:
    cols = [f"c{i}" for i in range(data.shape[1])]
    return TimeSeries(cols, list(data.T), monotonic=False)


def _block_edges(n_cols):
    """Row counts at the edges of the first formatting blocks."""
    rows = _BLOCK_VALUES // n_cols
    return [0, 1, rows - 1, rows, rows + 1]


@pytest.mark.parametrize("n_rows,n_cols", [(n_rows, n_cols) for n_cols in (1, 8)
                                           for n_rows in _block_edges(n_cols)])
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
              st.tuples(st.integers(0, 2 * _BLOCK_VALUES // 8 + 3), st.integers(1, 8)),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_to_csv_matches_fstring_property(data):
    ts = _table(data)
    assert ts.to_csv() == _fstring_csv(ts)


# nan, the infinities, both zeros, subnormals, the extremes and exact ties
# (18 significant digits ending in 5), which go through the per-value path
_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-320,
             2.2250738585072009e-308, 1.7976931348623157e308, 1.0, 0.1,
             1234567890123456.25, -1234567890123456.75, 562949953421312.125]


@st.composite
def _run_tables(draw):
    """1-6 tables over a pool of distinct columns, some shared between
    tables, with a row count at a block edge for the pool's size."""
    picks = draw(st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=6),
                          min_size=1, max_size=6))
    place = {i: k for k, i in enumerate(sorted({i for pick in picks for i in pick}))}
    n_rows = draw(st.sampled_from(_block_edges(len(place))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (len(place), n_rows)
    bits = rng.integers(0, 2 ** 64, shape, dtype=np.uint64).view(np.float64)
    pool = list(np.where(rng.random(shape) < 0.2, rng.choice(_SPECIALS, shape), bits))
    return [TimeSeries([f"c{i}" for i in pick], [pool[place[i]] for i in pick],
                       monotonic=False) for pick in picks]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_run_tables())
def test_write_csv_matches_fstring_property(tables):
    assert all(_tie_distance(x) == 0 for x in _SPECIALS[-3:])
    files = [io.BytesIO() for _ in tables]
    write_csv(tables, files)
    for ts, f in zip(tables, files):
        assert f.getvalue() == _fstring_csv(ts).encode()
        assert f.getvalue().decode() == ts.to_csv()


def test_write_csv_formats_each_distinct_column_once(monkeypatch):
    # a cosine run with all six outputs has 32 columns, of which 24 are
    # distinct: t is in every table, current in two, closed p0_raw is
    # compare closed_p0, and oracle p0_oracle is compare oracle_p0
    doc = {"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0,
           "outputs": ",".join(OUTPUT_KINDS)}
    outputs, _ = run_scenario(parse_config(json.dumps(doc)))
    tables = [outputs[kind] for kind in OUTPUT_KINDS]
    n_rows = len(tables[0].t)
    assert sum(len(ts.columns) for ts in tables) == 32
    formatted = []
    fields = series._fields
    monkeypatch.setattr(series, "_fields", lambda v: formatted.append(v.size) or fields(v))
    write_csv(tables, [io.BytesIO() for _ in tables])
    assert sum(formatted) == 24 * n_rows
    assert len(formatted) == -(-24 * n_rows // (_BLOCK_VALUES // 24 * 24))


def test_write_csv_needs_one_row_count():
    with pytest.raises(ValidationError):
        write_csv([_table(np.zeros((3, 2))), _table(np.zeros((4, 1)))],
                  [io.BytesIO(), io.BytesIO()])


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


def _spy_one_by_one(monkeypatch) -> list:
    """Spy on the per-value path: the list gathers every value it formats."""
    seen = []
    one_by_one = series._one_by_one
    monkeypatch.setattr(series, "_one_by_one",
                        lambda values: seen.extend(values.tolist()) or one_by_one(values))
    return seen


def _near_halves(rng, per_binade=8):
    """Doubles x = m / 2**q in [2**-20, 2**8) whose scaled y (see
    _tie_distance) lies r / 2**s from a tie, 1 <= |r| <= 2**(s - 30): with
    D = 16 - E and s = q - D, y = m * 5**D / 2**s, so m solves
    m * 5**D = 2**(s - 1) + r modulo 2**s."""
    values = []
    for b in range(-20, 8):  # the binade [2**b, 2**(b + 1)), where s >= 30
        q, d = 52 - b, 16 - math.floor(math.log10(1.5 * 2.0 ** b))
        s = q - d
        for u, sign in zip(rng.uniform(0, s - 30, per_binade), rng.choice([-1, 1], per_binade)):
            r = round(2.0 ** u) * int(sign)  # log-uniform
            m = (2 ** (s - 1) + r) * pow(5 ** d, -1, 2 ** s) % 2 ** s
            m += -(-(2 ** 52 - m) // 2 ** s) * 2 ** s  # the least such m >= 2**52
            values.append(m / 2 ** q)
    return [x for x in values if _tie_distance(x) < Fraction(1, 10 ** 9)]


def test_to_csv_inside_the_guard_band(monkeypatch):
    rng = np.random.default_rng(1990)
    # exact ties: m / 2**k, m odd, whose 18 significant digits end in 5
    ties = []
    for k in range(2, 12):
        lo, hi = 10 ** 17 // 5 ** k + 1, min(2 ** 53, 10 ** 18 // 5 ** k)
        ties += [(int(m) | 1) / 2 ** k for m in rng.integers(lo, hi, 30)]
    assert all(_tie_distance(x) == 0 for x in ties)
    # doubles within 1e-9 of a tie, on both sides of the margin: those
    # closer than it go one by one, the rest are certified
    near = _near_halves(rng)
    margin = Fraction(series._MARGIN)
    inside = [x for x in ties + near if _tie_distance(x) < margin]
    assert len(inside) - len(ties) >= 20
    assert sum(_tie_distance(x) > 2 * margin for x in near) >= 20
    seen = _spy_one_by_one(monkeypatch)
    _check(ties + near + [-x for x in near])
    assert {abs(x) for x in seen} >= set(inside)
    assert all(_tie_distance(x) <= margin for x in seen)


def test_to_csv_next_to_powers_of_ten(monkeypatch):
    # next to 10**k, log10 misses E by one and p + floor(err) falls outside
    # [1e16, 1e17), so these values take the second pass with E ± 1
    powers = [y for k in range(-20, 23) for y in _walk(float(f"1e{k}"), 2)]
    calls = []
    scaled = series._scaled
    monkeypatch.setattr(series, "_scaled", lambda a, e: calls.append(a.size) or scaled(a, e))
    _check(powers + [-x for x in powers], n_cols=5)
    assert calls[0] == len(powers) * 2 and len(calls) == 2 and calls[1] >= 40


def test_to_csv_subnormals():
    rng = np.random.default_rng(4)
    bits = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    bits[:52] = np.uint64(1) << np.arange(52, dtype=np.uint64)
    values = bits.view(np.float64)
    _check(np.concatenate([values, -values, [2.2250738585072009e-308]]), n_cols=3)


def test_to_csv_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 120_000, dtype=np.uint64)
    _check(bits.view(np.float64), n_cols=6)


def test_to_csv_certifies_every_finite_double(monkeypatch):
    # the float64 product covers every finite magnitude, subnormals and the
    # largest doubles included: only nan, inf and values within the margin
    # of a tie go one by one (random doubles with few fraction bits are
    # often exact ties)
    rng = np.random.default_rng(8)
    values = rng.standard_normal(5_000) * 10.0 ** rng.integers(-320, 300, 5_000)
    values[::100] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0, -1e300, 0.1, 1e16] * 5
    values = np.concatenate([values, [1.7976931348623157e308, 2.2250738585072014e-308]])
    seen = _spy_one_by_one(monkeypatch)
    _check(values, n_cols=5)
    finite = [x for x in seen if math.isfinite(x)]
    assert len(seen) - len(finite) == 15
    assert all(_tie_distance(x) < Fraction(series._MARGIN) for x in finite)


def test_power_table_is_exact_to_2_to_the_minus_104():
    for i, k in enumerate(range(series._K0, series._K0 + series._HI.size)):
        hi, lo, shift = float(series._HI[i]), float(series._LO[i]), int(series._SHIFT[i])
        assert 1 <= hi < 2
        exact = Fraction(10) ** k / Fraction(2) ** shift
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2 ** 104, k
    assert series._K0 <= 16 - 308 and series._K0 + series._HI.size > 16 + 324


# five report_all-shaped configs (every output kind) and one long oracle run
_REPORT_CONFIGS = [
    {"drive": "cosine", "omega_tilde": 0.0, "j0": 0.8527035992138661,
     "omega": 0.9314865870310914},
    {"drive": "cosine", "omega_tilde": 0.8655948871319976, "j0": 0.9236387234261374,
     "omega": 1.0774665151003764},
    {"drive": "rwa", "omega_tilde": 0.512060398843602, "j0": 0.6598190103434164,
     "omega": 0.8675340776539214},
    {"drive": "constant", "omega_tilde": 0.6406721500895092, "j0": 0.5036440472428464,
     "omega": 0.9796076200886086, "gamma0": 0.2651414808310799},
    {"drive": "cosine", "omega_tilde": 0.4494140798222897, "j0": 1.1249320686565505,
     "omega": 1.1435474409633142, "branch": "positive", "initial_state": "bare1"},
]
_ORACLE_LONG = {"drive": "cosine", "omega_tilde": 1.3830601490268934, "j0": 1.107108090767554,
                "omega": 1.0, "dt": 0.001, "t_end": 64.0, "outputs": "oracle,current"}


def test_to_csv_of_run_outputs_needs_no_per_value_path(monkeypatch):
    # every finite value these runs write is certified by the array path;
    # only the NaN rows of the identities table take the per-value path
    seen = _spy_one_by_one(monkeypatch)
    docs = [dict(c, outputs="frame,closed,oracle,compare,identities,current")
            for c in _REPORT_CONFIGS] + [_ORACLE_LONG]
    values = 0
    for doc in docs:
        outputs, _ = run_scenario(parse_config(json.dumps(doc)))
        assert len(outputs) == len(doc["outputs"].split(","))
        for ts in outputs.values():
            ts.to_csv()
            values += ts.data.size
    assert values > 200_000
    assert [x for x in seen if math.isfinite(x)] == []


def test_to_csv_scratch_memory_does_not_grow_with_rows(tmp_path):
    # six tables of one run, t shared, written to files: the writer holds
    # one block of scratch and no text of a whole table (the 48-byte fields
    # of the 200,000-row tables at once would be ~229 MiB)
    rng = np.random.default_rng(3)
    peaks = []
    for n_rows in (20_000, 200_000):
        t = np.arange(n_rows, dtype=float)
        tables = [TimeSeries(["t"] + [f"c{i}" for i in range(4)],
                             [t, *rng.standard_normal((4, n_rows))]) for _ in range(6)]
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context((tmp_path / f"{k}.csv").open("wb"))
                     for k in range(len(tables))]
            tracemalloc.start()
            try:
                write_csv(tables, files)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        peaks.append(peak)
        assert (tmp_path / "5.csv").read_bytes().count(b"\n") == n_rows + 1
    assert peaks[1] < 512 * 1024
    assert peaks[1] < peaks[0] + 64 * 1024
