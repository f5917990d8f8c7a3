"""CSV rows whose every field is exactly ``"%.12g" % (x + 0.0)``, made in numpy.

A nonzero |x| in [1e-4, 1e3) has a decade X in -4..2, read from the
exponent bits of |x| and one comparison with the power of ten in its
binade, and is scaled by the exact power 10**(11 - X) to y, the exact
product P rounded, so M = rint(y) holds its 12 significant digits.
Rounding is monotone and y < 2**40 keeps each half-integer a double, so y
and P lie on one side of each unless y is one: where |y - M| < 0.5, M is
the correctly rounded digit string that %.12g prints.  Each decade bound
is a double at or above its power of ten, so y >= 1e11; M = 1e12, a carry
into the next decade, is left out.  Divisions by exact powers of ten
(never products with 1e-k) split M into the integer part and ".ddd" and
three "dddd" digit groups, every step an exact integer in float64.  One
``take`` on a table of 4-byte words then spells each value: sign and
integer part, then each group in full, or without its trailing zeros
where every group after it is zero, the two forms side by side in the
table.  The NUL padding goes in one ``bytes.translate``.

Zeros print "0".  Every other value (|x| >= 1e3 or < 1e-4, inf and NaN,
which get a NaN scale, a y on a half-integer, a carry) fails that test,
leaves "%.12g" in the text and is formatted by one ``%`` on the block.
"""
from __future__ import annotations

import functools

import numpy as np

# A value's row of the tables below: 0 for zero, 1 below 1e-4, 2..8 for
# the decades -4..2, 9 from 1e3 on, inf and NaN.  Each binade holds at
# most one _DECADES bound, since 10 > 2, so the biased exponent e of |x|
# gives the row _ROW[e] at the binade's start 2**(e - 1023) (0.0 for
# e = 0) and the bound _NEXT[e] from which the row is one more: NaN,
# which no value reaches, after the last bound.
_DECADES = np.array([5e-324, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])
_ROW = np.searchsorted(_DECADES, (np.arange(2048, dtype=np.uint64) << 52).view(float), "right")
_NEXT = np.append(_DECADES, np.nan)[_ROW]
_POWER = 10.0 ** np.array([0, 0, 15, 14, 13, 12, 11, 10, 9, 0])  # 10**(11 - X)
_SCALE = np.array([1.0, np.nan, *_POWER[2:-1], np.nan])
_FRACTION = 1e15 / _POWER  # the fraction part as 15 digits
# ".ddd" and the three "dddd" groups are the leading 3, 7, 11 and 15
# fraction digits less the digits before them
_GROUPS = np.array([[1e12], [1e8], [1e4], [1.0]])
# The table's words: sign and integer part 0..999 (+1000 when negative),
# then for each ".ddd" and each "dddd" group g the full form at 2g and the
# form without trailing zeros at 2g + 1, counted from the group's base, and:
_GROUP_BASE = np.array([[2000.0], [4000.0], [4000.0], [4000.0]])
_PERCENT_G = [[24000], [24001]]  # "%.12", "g": a value left to "%.12g"
# after each of a row's 11 values: "\x01" (replaced by the text between
# the first two values), "," and "\n"
_SEPARATORS = np.array([24002] + [24003] * 9 + [24004])
BLOCK_ROWS = 256  # keeps each temporary array small


def _digits(width: int):
    """ASCII digits of 0 .. 10**width - 1, and which stay when trailing zeros go."""
    powers = (10 ** np.arange(width - 1, -1, -1)).astype(np.uint16)
    d = (np.arange(10 ** width, dtype=np.uint16)[:, None] // powers % 10).astype(np.uint8)
    kept = np.logical_or.accumulate(d[:, ::-1] != 0, axis=1)[:, ::-1]
    return d + ord("0"), kept


@functools.cache
def _digit_table() -> np.ndarray:
    """The 24005 words, as uint32, built on first use."""
    d3, kept3 = _digits(3)
    d4, kept4 = _digits(4)
    significant = np.logical_or.accumulate(d3 != ord("0"), axis=1)
    significant[:, -1] = True
    whole = np.where(significant, d3, 0)
    dot = np.full((1000, 1), ord("."), np.uint8)
    table = np.concatenate([part.ravel() for part in (
        np.hstack([np.zeros_like(dot), whole]), np.hstack([np.full_like(dot, ord("-")), whole]),
        np.hstack([dot, d3, np.where(kept3[:, :1], dot, 0), np.where(kept3, d3, 0)]),
        np.hstack([d4, np.where(kept4, d4, 0)]),
        np.frombuffer(b"%.12g\0\0\0\1\0\0\0,\0\0\0\n\0\0\0", np.uint8),
    )]).view(np.uint32)
    table.flags.writeable = False
    return table


def _format_block(values: np.ndarray, mid: bytes) -> bytes:
    """The CSV rows of a (rows, 11) block, with ``mid`` between each row's first two fields."""
    x = values.ravel()
    a = np.abs(x)
    e = a.view(np.int64) >> 52  # an intp index, which needs no cast
    decade = _ROW[e] + (a >= _NEXT[e])
    y = a * _SCALE[decade]
    m = np.rint(y)
    off = np.flatnonzero(~((np.abs(y - m) < 0.5) & (m < 1e12)))
    m[off] = 0.0
    power = _POWER[decade]
    whole = np.floor(m / power)
    fraction = (m - whole * power) * _FRACTION[decade]
    lead = np.floor(fraction / _GROUPS)
    lead[1:] -= 1e4 * lead[:-1]  # each group's digits
    last = np.empty(lead.shape, bool)  # no nonzero group after the group
    last[3] = True
    for k in (2, 1, 0):
        np.logical_and(last[k + 1], lead[k + 1] == 0.0, out=last[k])
    lead *= 2.0
    lead += _GROUP_BASE
    index = np.empty((len(x), 6), np.intp)
    words = index.T  # one row per word of a value
    words[0] = whole + 1000.0 * (x < 0)
    np.add(lead, last, out=words[1:5], casting="unsafe")
    words[:2, off] = _PERCENT_G
    words[5].reshape(-1, 11)[:] = _SEPARATORS
    text = _digit_table().take(index).tobytes().translate(None, b"\0")
    return (text % tuple(x[off].tolist())).replace(b"\1", mid)


def format_rows(values: np.ndarray, mid: str) -> list[str]:
    """The CSV rows of the float array ``values`` (rows, 11), one text per ``BLOCK_ROWS``.

    Each field is ``"%.12g" % (v + 0.0)``, and each row ends in a newline;
    ``mid`` goes between the first and second field of a row instead of a comma.
    """
    values = np.asarray(values, dtype=float)
    mid = mid.encode("ascii")
    with np.errstate(invalid="ignore"):  # a signalling NaN prints as "nan" too
        return [_format_block(values[i:i + BLOCK_ROWS], mid).decode("ascii")
                for i in range(0, len(values), BLOCK_ROWS)]
