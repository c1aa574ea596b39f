"""Column-oriented time series and its CSV form.

CSV contract: the first line is the header; every value is written exactly
as ``"%.17g" % v`` (17 significant digits; ``-0``, ``nan`` and ``inf``
included), so identical runs produce byte-identical files.

``%.17g`` on one Python float takes the bignum path of dtoa (its fast path
stops at 14 digits), so the values are formatted as arrays instead, a block
of ``_CSV_BLOCK`` rows (at most ``_BLOCK_VALUES`` values) at a time; the
scratch memory is one block, whatever the row count.

* Scale.  E = floor(log10 |x|), corrected by one where the product falls
  outside [1e16, 1e17), and y = |x| * 10**(16 - E) in long double, from a
  table of correctly rounded powers of ten parsed from strings.
* Certify.  With a 64-bit significand, the power and the product are each
  rounded by at most 2**-64 relative, so y lies within
  2 * 2**-64 * 1e17 ~ 0.0109 of the exact value.  y is rounded to the
  17-digit integer N only where its fraction is at least ``_GUARD`` = 1/64
  away from one half; the rounding is then the correct one.
* Digits and layout.  N is split into 4-digit groups, each looked up in a
  10**4-entry table that spells the digits with a candidate point after
  each.  The ``%g`` rules (fixed notation for -4 <= E < 17, otherwise
  ``d.ddde±XX``; trailing zeros stripped; ``-``, the point and the
  ``0.000`` prefix) become a byte mask per (E, digit count, sign), looked
  up per value.  Separators are written in place, and the masked (zero)
  bytes are compressed out.
* Zeros are exact: N = 0 with E = 0 spells ``0`` (``-0`` for -0.0).
* Fallback.  nan, inf, values inside the guard band (about 3% of the
  nonzero finite values) and, where long double has fewer than 63 fraction
  bits, every value are formatted one by one with ``"%.17g" % v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_CSV_BLOCK = 512       # rows per formatting block,
_BLOCK_VALUES = 2048  # or fewer, so that a block holds at most this many values

# the error bound above needs a 64-bit long double significand
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_GUARD = 1 / 64
_K0 = -300  # _POW10[i] = 10**(_K0 + i), covering 16 - E for every double E
_POW10 = np.array([f"1e{k}" for k in range(_K0, 351)], dtype=np.longdouble)

# the digits of 0..9999; _PAIRS[q] spells the group q as "d.d.d.d."
_DIGITS4 = np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1).reshape(-1, 4)
_PAIRS = np.full((10_000, 8), ord("."), np.uint8)
_PAIRS[:, ::2] = _DIGITS4 + ord("0")
_PAIRS = _PAIRS.view(np.uint64).ravel()
# trailing zero digits of each group (4 for 0000)
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS4[:, ::-1] == 0, axis=1).sum(
    axis=1, dtype=np.int8)
# the first word: sign, the "0.000" prefix, the lead digit and its point
_LEAD = np.tile(np.frombuffer(b"-0.000d.", np.uint8), (10, 1))
_LEAD[:, 6] = np.arange(10) + ord("0")
_LEAD = _LEAD.view(np.uint64).ravel()

# _EXPONENT[E - _E0] spells "e±XX" (or "e±XXX") in the low bytes of a word
_E0 = -400
_E = np.arange(_E0, -_E0 + 1)
_EXPONENT = np.zeros((_E.size, 8), np.uint8)
_EXPONENT[:, 0] = ord("e")
_EXPONENT[:, 1] = np.where(_E < 0, ord("-"), ord("+"))
_EXPONENT[:, 2] = (abs(_E) // 100 + ord("0")) * (abs(_E) >= 100)
_EXPONENT[:, 3] = abs(_E) // 10 % 10 + ord("0")
_EXPONENT[:, 4] = abs(_E) % 10 + ord("0")
_EXPONENT = _EXPONENT.view(np.uint64).ravel()
# the first layout of E's class (34 layouts a class, see _layout_masks)
_CLASS = np.where((_E >= -4) & (_E < 17), _E + 4, 21) * 34


def _layout_masks() -> np.ndarray:
    """Byte masks of the 48-byte field, shape (6 words, 748 layouts).

    Bytes: 0 sign, 1-5 the ``0.000`` prefix, 6-39 the 17 digits each with a
    candidate point after it, 40-44 the exponent, 45 the separator.  A
    layout is (E class, digit count, sign): E class 0-20 is fixed notation
    with E = class - 4, class 21 is exponent notation.
    """
    cls = np.arange(22)[:, None, None, None]
    nd = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    p = np.arange(48)
    e = cls - 4
    fixed = cls < 21
    whole = fixed & (e >= 0)
    k = np.where(whole, e + 1, np.where(fixed, -1, 1))  # digits before the point
    m = np.where(whole, np.maximum(nd, e + 1), nd)       # digits shown
    j = (p - 6) // 2
    body = (p >= 6) & (p < 40)
    keep = ((p == 0) & (neg == 1)
            | (p >= 1) & (p < 2 - e) & fixed & (e < 0)
            | body & (p % 2 == 0) & (j < m)
            | body & (p % 2 == 1) & (j == k - 1) & (m > k)
            | (p >= 40) & (p < 45) & ~fixed
            | (p == 45))
    return np.ascontiguousarray(
        (keep * np.uint8(255)).astype(np.uint8).reshape(-1, 48).view(np.uint64).T)


_MASKS = _layout_masks()


def _significands(v: np.ndarray):
    """N = |v| * 10**(16 - E) rounded to an integer in [1e16, 1e17) (N = E = 0
    for zeros), E, and whether N is certified (never for nan and inf)."""
    a = np.abs(v)
    zero = a == 0
    sure = (a < np.inf) & _EXTENDED
    a[~sure | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble)
    y *= _POW10.take(16 - _K0 - e)
    off = (y >= 1e17).view(np.int8) - (y < 1e16).view(np.int8)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        y[fix] = a[fix].astype(np.longdouble) * _POW10.take(16 - _K0 - e[fix])
    n = y.astype(np.uint64)
    y -= n
    frac = y.astype(np.float64)
    sure &= np.abs(frac - 0.5) >= _GUARD
    n += frac > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[zero] = 0
    e[zero] = 0
    return n, e, sure


def _fields(v: np.ndarray, sepw: np.ndarray) -> np.ndarray:
    """The 48-byte fields of ``v`` as words, shape (6, values), with the
    bytes outside each field zero; ``sepw`` holds each separator."""
    n, e, sure = _significands(v)
    w = np.empty((6, v.size), np.uint64)
    group = np.empty_like(n)
    rest = np.empty_like(n)
    zeros = np.zeros(v.size, np.int8)  # trailing zero digits of N
    run = np.ones(v.size, bool)        # the groups so far are all zeros
    for c in (4, 3, 2, 1):  # 4-digit groups, lowest first; n ends as the lead digit
        np.floor_divide(n, 10 ** 4, out=rest)
        np.subtract(n, rest * 10 ** 4, out=group)
        n, rest = rest, n
        g = group.view(np.int64)
        _PAIRS.take(g, out=w[c])
        zeros += run * _TRAILING_ZEROS.take(g)
        run &= g == 0
    _LEAD.take(n.view(np.int64), out=w[0])
    e -= _E0
    np.bitwise_or(_EXPONENT.take(e), sepw, out=w[5])
    layout = _CLASS.take(e) + (16 - zeros) * 2 + np.signbit(v)
    for word, masks in zip(w, _MASKS):
        word &= masks.take(layout)
    bad = np.flatnonzero(~sure)
    if bad.size:
        text = "".join([("%.17g" % x).ljust(40, "\0") for x in v[bad].tolist()])
        w[:5, bad] = np.frombuffer(text.encode(), np.uint64).reshape(-1, 5).T
        w[5, bad] = sepw[bad]
    return w


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
        parts = [",".join(self.columns) + "\n"]
        if self.data.size == 0:
            return parts[0]
        n_cols = self.data.shape[1]
        rows = max(1, min(_CSV_BLOCK, _BLOCK_VALUES // n_cols))
        sep = np.zeros((rows, n_cols, 8), np.uint8)  # byte 5 of the last word
        sep[:, :, 5] = ord(",")
        sep[:, -1, 5] = ord("\n")
        sepw = sep.view(np.uint64).ravel()
        for start in range(0, self.data.shape[0], rows):
            v = self.data[start:start + rows].ravel()
            # one field after another, the zero bytes dropped
            text = _fields(v, sepw[:v.size]).T.tobytes().translate(None, b"\0")
            parts.append(text.decode("ascii"))
        return "".join(parts)
