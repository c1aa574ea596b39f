"""Column-oriented time series and its CSV form.

CSV contract: first line is the header; floats are written with 17
significant digits so identical runs produce byte-identical files.
Rows are formatted a block at a time: one ``%.17g`` template per row,
repeated for the block and applied to the block's values in a single
``%`` call (the same bytes as ``format(v, ".17g")``, ``-0``, ``nan`` and
``inf`` included).  The block bounds the scratch memory of the value tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_CSV_BLOCK = 512  # rows per format call


@dataclass
class TimeSeries:
    columns: list[str]
    data: np.ndarray        # shape (n_rows, n_columns); data[:, 0] is t
    monotonic: bool = True  # False for summary tables keyed by a sweep axis

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.size == 0:
            self.data = self.data.reshape(0, len(self.columns))
        if self.data.shape[1] != len(self.columns):
            raise ValidationError("column count does not match data width")
        t = self.t
        if self.monotonic and len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("time column must be strictly increasing")

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0] if self.data.size else np.empty(0)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"series has no column {name!r}") from None
        return self.data[:, idx]

    def to_csv(self) -> str:
        row = ",".join(["%.17g"] * len(self.columns)) + "\n"
        parts = [",".join(self.columns) + "\n"]
        for start in range(0, self.data.shape[0], _CSV_BLOCK):
            blk = self.data[start:start + _CSV_BLOCK]
            parts.append((row * len(blk)) % tuple(blk.ravel().tolist()))
        return "".join(parts)
