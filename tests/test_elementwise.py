"""Array paths of cavitycorr.elementwise give the C library's bits.

``power`` on arrays must reproduce Python's float ``**`` (the C library's
``pow``) bit for bit: numpy's ``np.power`` and ``x*x`` both differ from it
in the last bit on part of these inputs.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import elementwise as ew


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _sample(seed=20261018, k=40_000):
    """About 200 000 seeded inputs of the kinds the closed forms square."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 1e4, k)
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e-300, 1e-160, 1e-80]
    return np.concatenate([
        rng.uniform(0.0, 1.0, k),
        rng.uniform(-1.0, 0.0, k),
        np.cos(angles),
        np.sin(angles),
        rng.uniform(0.0, 1e-5, k // 2),
        10.0 ** rng.uniform(-320.0, 0.0, k // 2),   # tiny, down to subnormal
        special,
    ])


@pytest.mark.parametrize("y", [2, 4])
def test_power_matches_python_float_pow_on_seeded_sample(y):
    x = _sample()
    expected = [v ** y for v in x.tolist()]
    mismatched = np.flatnonzero(_bits(ew.power(x, y)) != _bits(expected))
    assert mismatched.size == 0, f"{mismatched.size} of {x.size} differ, first x = {x[mismatched[0]]!r}"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from([2, 4]))
def test_power_matches_python_float_pow_on_finite_floats(values, y):
    with np.errstate(over="ignore"):
        got = ew.power(np.array(values), y).tolist()
    for v, g in zip(values, got):
        try:
            want = v ** y
        except OverflowError:   # the C library's pow returns inf here
            want = math.inf
        assert _bits(g) == _bits(want), v
        assert _bits(ew.power(v, y)) == _bits(want), v


def test_log2_matches_math_log2():
    x = np.abs(_sample())
    x = x[x > 0.0]
    assert (_bits(ew.log2(x)) == _bits([math.log2(v) for v in x.tolist()])).all()
