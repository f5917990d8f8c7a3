"""The closed forms' libm-exact ``log2`` on arrays, and the input gates.

The gates are :func:`scalar` for one integer or real parameter,
:func:`real_array` for arrays of angles and values, and
:func:`raise_first` for per-element checks of a batch.

Every closed form is written once, on 1-d arrays with plain numpy calls;
one state is the batch of one.  Two numpy calls are chosen for their bits:

* powers are ``np.float_power``: its float64 loop calls the C library's
  ``pow``, with no SIMD variant, while ``x*x`` and ``np.power`` differ
  from ``pow`` on about 0.1 % of squares (``np.power`` on a few percent
  of 4th powers);
* ``log2`` here is ``np.log2`` on a reversed view, reversed back.
  numpy's float64 ``np.log2`` runs a SIMD loop, which differs from the C
  library on about 0.2 % of inputs, unless exactly one of input and output
  runs backwards in memory: then it calls the C library's ``log2`` per
  element in C.  numpy allocates the output forwards, so the input is
  reversed (after a copy if it does not run forwards).  The result is a
  reversed view; callers only apply ``+ - * /`` and ``np.where`` to it,
  which are correctly rounded whatever the layout.  The joint entropy and
  the brute-force kernel call ``np.log2`` itself.
"""
from __future__ import annotations

import functools
import operator
import sys

import numpy as np


def log2(x: np.ndarray) -> np.ndarray:
    """log2 of a 1-d array, bit-identical to ``math.log2``, as a reversed view."""
    if x.strides[0] <= 0:   # backwards or broadcast: numpy would take SIMD
        x = x.copy()
    return np.log2(x[::-1])[::-1]


def scalar(x, name: str, kind: type, lower, upper=None, *, open_lower: bool = False):
    """``x`` as a Python ``int`` or ``float`` (``kind``), if it is one in its range.

    An integer is an int or a numpy integer; a real is an int or float of
    Python or numpy within the float range, so finite.  Neither is a bool,
    which the range would take as 0 or 1.  The range is ``x > lower`` if
    ``open_lower``, else ``x >= lower``, and ``x <= upper`` if ``upper`` is
    given.  Anything else raises ``ValueError``, such as "steps must be an
    integer >= 1, got 0" or "r must be a finite real number in [0, 1], got nan".
    """
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(x, types) and not isinstance(x, bool):
        # as a Python number, which compares with any bound without a warning
        v = float(x) if isinstance(x, (float, np.floating)) else int(x)
        if ((kind is int or abs(v) <= sys.float_info.max)
                and (v > lower if open_lower else v >= lower)
                and (upper is None or v <= upper)):
            return kind(v)
    bounds = (f"in [{lower}, {upper}]" if upper is not None
              else f"{'>' if open_lower else '>='} {lower}")
    raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite real number'} "
                     f"{bounds}, got {x!r}")


def real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array, if it holds integers or floats.

    Bools are rejected, not read as 0 and 1, and so are complex, string and
    object values and ragged sequences: each raises a plain ``ValueError``
    naming ``name``.
    """
    try:
        x = np.asarray(x)
    except ValueError:   # numpy's own text for a ragged sequence
        raise ValueError(f"{name} must be a real number, got a ragged sequence") from None
    if x.dtype == bool:
        raise ValueError(f"{name} must be a number, not a bool")
    if x.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def raise_first(checks) -> None:
    """Raise ``ValueError`` for the first failing element, naming its first failing check.

    ``checks`` holds (failed, message) pairs in check order.  ``failed`` is
    a 1-d bool array, one entry per element; ``message(i)`` renders the
    text for element ``i``.
    """
    bad = functools.reduce(operator.or_, [failed for failed, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(next(message(i) for failed, message in checks if failed[i]))
