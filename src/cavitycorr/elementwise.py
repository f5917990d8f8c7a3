"""The closed forms' libm-exact ``log2`` on arrays, and check helpers.

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


def is_real(x) -> bool:
    """Whether ``x`` is one real number: a Python or numpy int or float.

    Bools are not: the float checks would take them as 0 or 1.
    """
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """Whether ``x`` is one real number (:func:`is_real`) within the float range.

    An int too large for a float is not, so a check never reaches the
    ``OverflowError`` of ``math.isfinite`` or ``float`` on it.
    """
    return is_real(x) and abs(x) <= sys.float_info.max


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
