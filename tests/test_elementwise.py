"""The closed forms' array math gives the C library's bits.

``np.float_power``, which the closed forms use for every power, must
reproduce Python's float ``**`` (the C library's ``pow``) bit for bit:
numpy's ``np.power`` and ``x*x`` both differ from it in the last bit on
part of these inputs.  ``elementwise.log2`` must reproduce ``math.log2``
(the C library's ``log2``) bit for bit: numpy's forward ``np.log2`` runs a
SIMD loop that differs from it on part of these inputs, and only a reversed
operand steers numpy to its loop over the C library, so the log2 tests
cover every memory layout and the SIMD loop's tail lengths.
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
    mismatched = np.flatnonzero(_bits(np.float_power(x, y)) != _bits(expected))
    assert mismatched.size == 0, f"{mismatched.size} of {x.size} differ, first x = {x[mismatched[0]]!r}"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from([2, 4]))
def test_power_matches_python_float_pow_on_finite_floats(values, y):
    with np.errstate(over="ignore"):
        got = np.float_power(np.array(values), y).tolist()
    for v, g in zip(values, got):
        try:
            want = v ** y
        except OverflowError:   # the C library's pow returns inf here
            want = math.inf
        assert _bits(g) == _bits(want), v


def _log2_sample():
    """Positive seeded inputs: the sample above, huge and tiny powers of two, inf."""
    x = np.abs(_sample())
    return np.concatenate([x[x > 0.0], [2.0 ** 1000, 2.0 ** -1000, 2.0 ** 1023 * 1.5,
                                        1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, math.inf]])


def _simd_differs(x):
    """Indices where numpy's forward np.log2 differs from math.log2 (none without SIMD)."""
    return np.flatnonzero(_bits(np.log2(x)) != _bits([math.log2(v) for v in x.tolist()]))


def _assert_log2_bits(x):
    expected = [math.log2(v) for v in x.tolist()]
    mismatched = np.flatnonzero(_bits(ew.log2(x)) != _bits(expected))
    assert mismatched.size == 0, f"{mismatched.size} of {x.size} differ, first x = {x[mismatched[0]]!r}"


def test_log2_matches_math_log2():
    _assert_log2_bits(_log2_sample())


def test_log2_sample_tells_simd_from_libm():
    if _simd_differs(_log2_sample()).size == 0:
        pytest.skip("numpy's forward np.log2 equals math.log2 on the whole sample on this "
                    "CPU, so the log2 tests cannot tell numpy's SIMD loop from the C library's")


# the tail lengths of a 1024-sample verify chunk and a 4096-point sweep chunk
@pytest.mark.parametrize("length", [*range(1, 18), 1023, 1024, 1025, 4095, 4096, 4097])
def test_log2_matches_math_log2_at_every_tail_length(length):
    x = _log2_sample()
    # spread windows, and windows that start or end at a value the SIMD loop gets wrong
    tricky = [s for i in _simd_differs(x)[:20] for s in (i, i - length + 1)]
    for start in [*range(0, x.size - length, max(length, 997)), *tricky]:
        if 0 <= start <= x.size - length:
            _assert_log2_bits(x[start:start + length])


@pytest.mark.parametrize("layout", ["strided", "reversed", "broadcast", "reversed single"])
def test_log2_matches_math_log2_on_any_layout(layout):
    x = _log2_sample()
    if layout == "strided":
        x = np.repeat(x, 2)[::2]
    elif layout == "reversed":
        x = x[::-1].copy()[::-1]
    if layout in ("broadcast", "reversed single"):
        differs = _simd_differs(x)
        v = x[differs[:1]] if differs.size else x[:1]
        x = np.broadcast_to(v, (17,)) if layout == "broadcast" else v.copy()[::-1]
    assert layout == "strided" or x.strides[0] <= 0
    _assert_log2_bits(x)


@given(st.lists(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_log2_matches_math_log2_on_positive_floats(values):
    got = ew.log2(np.array(values))
    for v, g in zip(values, got.tolist()):
        assert _bits(g) == _bits(math.log2(v)), v
