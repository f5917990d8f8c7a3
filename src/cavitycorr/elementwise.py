"""Elementwise math that serves Python floats and numpy arrays alike.

Each closed form of the package is written once, with these functions and
the arithmetic operators, and runs either on floats (one state) or on
1-d arrays (a batch of states, e.g. a whole grid of Rabi angles).  Both
give the same bits:

* on floats they are the ``math`` functions and Python's ``**``, which
  call the C library;
* on arrays ``cos``, ``sin``, ``sqrt`` and ``hypot`` are numpy's, which
  agree with the C library bit for bit (the golden-bytes tests check this);
* ``power`` on arrays is ``np.float_power``: its float64 loop calls the C
  library's ``pow``, with no SIMD variant, while ``x*x`` and ``np.power``
  differ from ``pow`` on about 0.1 % of squares (``np.power`` on a few
  percent of 4th powers);
* ``log2`` on arrays is ``np.log2`` on a reversed view, reversed back.
  numpy's float64 ``np.log2`` runs a SIMD loop, which differs from the C
  library on about 0.2 % of inputs, unless exactly one of input and output
  runs backwards in memory: then it calls the C library's ``log2`` per
  element in C.  numpy allocates the output forwards, so the input is
  reversed (after a copy if it does not run forwards).  The result is a
  reversed view; callers only apply ``+ - * /`` and ``where`` to it, which
  are correctly rounded whatever the layout.
  ``simd_log2`` is ``np.log2`` on floats too: the joint entropy always used it.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


def cos(x):
    return np.cos(x) if _is_array(x) else math.cos(x)


def sin(x):
    return np.sin(x) if _is_array(x) else math.sin(x)


def sqrt(x):
    return np.sqrt(x) if _is_array(x) else math.sqrt(x)


def hypot(x, y):
    """sqrt(x*x + y*y) as the C library's hypot, which ``abs(complex)`` calls."""
    try:
        return np.hypot(x, y) if _is_array(x) else abs(complex(x, y))
    except OverflowError:   # Python's ``abs`` raises where hypot returns inf
        return math.inf


def power(x, y: float):
    """x**y, bit-identical to Python's float ``**`` but inf where ``**`` overflows."""
    try:
        return np.float_power(x, y) if _is_array(x) else x ** y
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.float_power(x, y))


def log2(x):
    """log2, bit-identical to ``math.log2``; a reversed view on a 1-d array."""
    if not _is_array(x):
        return math.log2(x)
    if x.strides[0] <= 0:   # backwards or broadcast: numpy would take SIMD
        x = x.copy()
    return np.log2(x[::-1])[::-1]


def simd_log2(x):
    return np.log2(x) if _is_array(x) else float(np.log2(x))


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``; both are evaluated."""
    return np.where(cond, a, b) if _is_array(cond) else (a if cond else b)


def maximum(a, b):
    return np.maximum(a, b) if _is_array(a) or _is_array(b) else max(a, b)


def minimum(a, b):
    return np.minimum(a, b) if _is_array(a) or _is_array(b) else min(a, b)


def nonfinite(x):
    return ~np.isfinite(x) if _is_array(x) else not math.isfinite(x)


def is_bool(x) -> bool:
    """Whether ``x`` is a Python or numpy bool, which the float checks would take as 0 or 1."""
    return isinstance(x, (bool, np.bool_))


def at(x, i) -> float:
    """Element ``i`` of ``x`` as a float; ``i`` is None for a float ``x``."""
    return float(x) if i is None else float(x[i])


def raise_first(checks) -> None:
    """Raise ``ValueError`` for the first failing element, naming its first failing check.

    ``checks`` holds (failed, message) pairs in check order.  ``failed`` is
    a bool for one state or a bool array for a batch; ``message(i)``
    renders the text for element ``i`` (None for one state).
    """
    bad = functools.reduce(operator.or_, [failed for failed, _ in checks])
    if _is_array(bad):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(next(message(i) for failed, message in checks if failed[i]))
    elif bad:
        raise ValueError(next(message(None) for failed, message in checks if failed))
