"""TimeSeries CSV form: the block formatter against the per-value f-string."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
