"""Elementwise math that serves Python floats and numpy arrays alike.

Each closed form of the package is written once, with these functions and
the arithmetic operators, and runs either on floats (one state) or on
1-d arrays (a batch of states, e.g. a whole grid of Rabi angles).  Both
give the same bits:

* on floats they are the ``math`` functions and Python's ``**``, which
  call the C library;
* on arrays ``cos``, ``sin``, ``sqrt`` and ``hypot`` are numpy's, which
  agree with the C library bit for bit (the golden-bytes tests check this);
* ``power`` and ``log2`` on arrays call the C library element by element,
  because numpy's SIMD ``np.power`` and ``np.log2`` differ from it in the
  last bit on a few percent of inputs.

``simd_log2`` is numpy's ``np.log2`` in both cases: the joint entropy has
always used it.
"""
from __future__ import annotations

import functools
import itertools
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
    return np.hypot(x, y) if _is_array(x) else abs(complex(x, y))


def _libm(fn, x, *args) -> np.ndarray:
    """``fn`` of each element of the 1-d array ``x``, through Python floats."""
    values = map(fn, x.tolist(), *(itertools.repeat(a) for a in args))
    return np.fromiter(values, dtype=float, count=len(x))


def power(x, y: float):
    """x**y, bit-identical to Python's float ``**``."""
    return _libm(math.pow, x, y) if _is_array(x) else x ** y


def log2(x):
    """log2, bit-identical to ``math.log2``."""
    return _libm(math.log2, x) if _is_array(x) else math.log2(x)


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
