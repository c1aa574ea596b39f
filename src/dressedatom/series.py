"""Column-oriented time series and its CSV form.

CSV contract: the first line is the header; every value is written exactly
as ``"%.17g" % v`` (17 significant digits; ``-0``, ``nan`` and ``inf``
included), so identical runs produce byte-identical files.

``%.17g`` on one Python float takes the bignum path of dtoa (its fast path
stops at 14 digits), so the values are formatted as arrays instead, the
tables of a run together (``write_csv``), a block of at most
``_BLOCK_VALUES`` values of their distinct columns at a time; the scratch
memory is one block, whatever the row count.

* Scale.  E = floor(log10 |x|) and y = |x| * 10**(16 - E) = a' * (hi + lo),
  where a' = |x| * 2**shift is exact and hi + lo (1 <= hi < 2) is a double
  pair for 10**(16 - E) / 2**shift from a table accurate to 2**-104.  With
  p = fl(a' * hi), Dekker's exact error of that product (Veltkamp's split
  by 2**27 + 1) plus a' * lo gives y = p + err in plain float64.  The
  integer part p + floor(err) decides E: where it falls outside
  [1e16, 1e17) the value is redone with E ± 1.
* Certify.  err is within 1e-14 of exact, so y is rounded to the 17-digit
  integer N only where frac(y) = frac(err) is at least ``_MARGIN`` = 2**-32
  from one half; the rounding is then the correct one.  The shift keeps
  every operand far from overflow and underflow, so this holds for every
  finite double, subnormals included.
* Digits and layout.  N is split into 4-digit groups, each looked up in a
  10**4-entry table that spells the digits with a candidate point after
  each.  The ``%g`` rules (fixed notation for -4 <= E < 17, otherwise
  ``d.ddde±XX``; trailing zeros stripped; ``-``, the point and the
  ``0.000`` prefix) become a byte mask per (E, digit count, sign), looked
  up per value.  Every field ends in a comma; a table turns its last
  column's into a newline, and the masked (zero) bytes are compressed out.
* Zeros are exact: N = 0 with E = 0 spells ``0`` (``-0`` for -0.0).
* Fallback.  nan, inf and values within ``_MARGIN`` of a rounding tie
  (exact ties such as 1234567890123456.25 among them) are formatted one by
  one with ``"%.17g" % v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import BytesIO
from typing import BinaryIO

import numpy as np

from .errors import ValidationError

_BLOCK_VALUES = 4096  # distinct column values per formatting block

_MARGIN = 2.0 ** -32  # least distance of frac(y) from 1/2 where N is certified


def _split(x):
    """Veltkamp's split of x into halves of 26 bits, x = hi + lo."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _product_error(p, a_halves, b_halves):
    """a * b - p exactly, for p = fl(a * b) (Dekker, Numer. Math. 18 (1971) 224)."""
    (ah, al), (bh, bl) = a_halves, b_halves
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _powers_of_ten(k: np.ndarray):
    """hi, lo and shift with 10**k = (hi + lo) * 2**shift and 1 <= hi < 2.

    10**k = 5**(22 j) * 5**r * 2**k with 0 <= r < 22.  x = 5**(22 j) * 2**t
    is an integer (exact, or 120 bits of it) whose double pair is rounded
    to about 2**-106, 5**r is an exact double, and their product is exact
    but for the rounding of lo * 5**r.
    """
    j, r = np.divmod(k, 22)
    pairs = []
    for i in range(j.min(), j.max() + 1):
        n = 5 ** (22 * abs(i))
        t = 0 if i >= 0 else n.bit_length() + 120
        x = n if i >= 0 else (1 << t) // n
        h = float(x)
        pairs.append((h, float(x - int(h)), t))
    h, lo, t = np.array(pairs).T.take(j - j.min(), axis=1)
    f = (5 ** r).astype(float)
    p = h * f
    lo = _product_error(p, _split(h), _split(f)) + lo * f
    x = np.frexp(p)[1] - 1
    return np.ldexp(p, -x), np.ldexp(lo, -x), (k + x - t).astype(np.int32)


# 16 - E lies in [-292, 340] for every double
_K0 = -300
_HI, _LO, _SHIFT = _powers_of_ten(np.arange(_K0, 351))
_HI_HALVES = _split(_HI)

# the digits of 0..9999; _PAIRS[q] spells the group q as "d.d.d.d."
_DIGITS4 = np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1).reshape(-1, 4)
_PAIRS = np.full((10_000, 8), ord("."), np.uint8)
_PAIRS[:, ::2] = _DIGITS4 + ord("0")
_PAIRS = _PAIRS.view(np.uint64).ravel()
# _ZEROS[c, q]: the trailing zero digits of N where q, its 4-digit group c (3
# the lowest), is its lowest nonzero group, and 16 for q = 0; N's count is
# the least over its groups
_ZEROS = np.array([[12], [8], [4], [0]], np.int8).repeat(10_000, axis=1)
for _i in range(1, 5):
    _ZEROS[:, ::10 ** _i] += 1
_ZEROS[:, 0] = 16
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
# byte 5 of a field's last word: the comma, and what turns it into "\n"
_COMMA, _NEWLINE = np.array([[0] * 5 + [ord(",")] + [0] * 2,
                             [0] * 5 + [ord(",") ^ ord("\n")] + [0] * 2],
                            np.uint8).view(np.uint64).ravel()
# the first layout of E's class (34 layouts a class, see _layout_masks)
_CLASS = np.where((_E >= -4) & (_E < 17), _E + 4, 21) * 34


def _layout_masks() -> np.ndarray:
    """Byte masks of the 48-byte field, shape (748 layouts, 6 words).

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
    return (keep * np.uint8(255)).astype(np.uint8).reshape(-1, 48).view(np.uint64)


_MASKS = _layout_masks()


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(y) and y - floor(y) for y = a * 10**(16 - e), 1e15 < y < 1e18.

    y = a' * (hi + lo) = p + err, a' = a * 2**shift < 1e18.  p = fl(a' * hi)
    is an integer where y >= 2**53 (a smaller y is redone anyway), and err
    is the exact error of that product plus a' * lo.  Where y < 1e17,
    |err| < 64, so err is rounded twice by at most 2**-48 each and the
    table adds y * 2**-104: err is within 1e-14 of exact.
    """
    i = 16 - _K0 - e
    a = np.ldexp(a, _SHIFT.take(i))
    p = a * _HI.take(i)
    err = _product_error(p, _split(a), [h.take(i) for h in _HI_HALVES])
    err += a * _LO.take(i)
    whole = np.floor(err)
    return p.astype(np.uint64) + whole.astype(np.int64).view(np.uint64), err - whole


def _significands(v: np.ndarray):
    """N = |v| * 10**(16 - E) rounded to an integer in [1e16, 1e17) (N = E = 0
    for zeros), E, and whether N is certified (never for nan and inf)."""
    a = np.abs(v)
    zero = a == 0
    sure = a < np.inf
    a[~sure | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e)  # log10 may miss E by one next to a power of ten
    off = (n >= 10 ** 17).view(np.int8) - (n < 10 ** 16).view(np.int8)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        n[fix], frac[fix] = _scaled(a[fix], e[fix])
    sure &= np.abs(frac - 0.5) >= _MARGIN
    n += frac > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[zero] = 0
    e[zero] = 0
    return n, e, sure


def _one_by_one(values: np.ndarray) -> bytes:
    """``"%.17g" % x`` of each value, zero-padded to 40 bytes: the fields of
    the values the array path cannot certify."""
    return "".join([("%.17g" % x).ljust(40, "\0") for x in values.tolist()]).encode()


def _fields(v: np.ndarray) -> np.ndarray:
    """The 48-byte fields of ``v`` as words, shape (values, 6), each ended
    by a comma, with the bytes outside each field zero."""
    n, e, sure = _significands(v)
    w = np.empty((v.size, 6), np.uint64)
    group = np.empty_like(n)
    rest = np.empty_like(n)
    zeros = np.full(v.size, 16, np.int8)  # trailing zero digits of N
    for c in (3, 2, 1, 0):  # 4-digit groups, lowest first; n ends as the lead digit
        np.floor_divide(n, 10 ** 4, out=rest)
        np.subtract(n, rest * 10 ** 4, out=group)
        n, rest = rest, n
        g = group.view(np.int64)
        w[:, c + 1] = _PAIRS.take(g)
        np.minimum(zeros, _ZEROS[c].take(g), out=zeros)
    w[:, 0] = _LEAD.take(n.view(np.int64))
    del n, rest, group, g  # freed before the masks are taken: less peak memory
    e -= _E0
    np.bitwise_or(_EXPONENT.take(e), _COMMA, out=w[:, 5])
    layout = _CLASS.take(e) + (16 - zeros) * 2 + np.signbit(v)
    half = v.size // 2  # the masks of half the fields at a time
    for part in (slice(None, half), slice(half, None)):
        w[part] &= _MASKS.take(layout[part], axis=0)
    bad = np.flatnonzero(~sure)
    if bad.size:
        w[bad, :5] = np.frombuffer(_one_by_one(v[bad]), np.uint64).reshape(-1, 5)
        w[bad, 5] = _COMMA
    return w


@dataclass
class TimeSeries:
    """Named columns, one 1-D float64 array each, t first.  Tables that
    hold the same array as a column share it, and ``write_csv`` formats it once."""
    columns: list[str]
    arrays: list[np.ndarray]
    monotonic: bool = True  # False for summary tables keyed by a sweep axis

    def __post_init__(self):
        self.arrays = [np.asarray(a, dtype=float) for a in self.arrays]
        if len(self.arrays) != len(self.columns):
            raise ValidationError("column count does not match the arrays")
        if any(a.ndim != 1 or a.size != self.arrays[0].size for a in self.arrays):
            raise ValidationError("columns must be 1-D arrays of one length")
        t = self.t
        if self.monotonic and len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("time column must be strictly increasing")

    @property
    def t(self) -> np.ndarray:
        return self.arrays[0]

    @property
    def data(self) -> np.ndarray:
        """The columns stacked, shape (n_rows, n_columns): a copy."""
        return np.column_stack(self.arrays)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"series has no column {name!r}") from None
        return self.arrays[idx]

    def to_csv(self) -> str:
        buf = BytesIO()
        write_csv([self], [buf])
        return buf.getvalue().decode("ascii")


def write_csv(tables: list[TimeSeries], files: list[BinaryIO]) -> None:
    """Write each table as CSV to its binary file, block by block.

    The tables must have one row count.  Each block formats every distinct
    column (by identity) once, in one ``_fields`` call, and writes each
    table's rows of it before the next block is formatted.
    """
    for ts, f in zip(tables, files):
        f.write((",".join(ts.columns) + "\n").encode())
    cols = list({id(a): a for ts in tables for a in ts.arrays}.values())
    place = {id(a): i for i, a in enumerate(cols)}
    picks = [np.array([place[id(a)] for a in ts.arrays]) for ts in tables]
    sizes = {a.size for a in cols}
    if len(sizes) > 1:
        raise ValidationError("tables written together must have one row count")
    rows = max(1, _BLOCK_VALUES // max(1, len(cols)))
    for start in range(0, max(sizes, default=0), rows):
        w = _fields(np.concatenate([a[start:start + rows] for a in cols]))
        w = w.reshape(len(cols), -1, 6)
        for pick, f in zip(picks, files):
            words = w.take(pick, axis=0)  # (columns, rows, 6)
            words[-1, :, 5] ^= _NEWLINE
            # row after row, the zero bytes dropped
            f.write(words.transpose(1, 0, 2).tobytes().translate(None, b"\0"))
        del w, words  # so that two blocks' scratch is never held at once
