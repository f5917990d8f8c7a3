"""The closed forms' array math gives the C library's bits.

``np.float_power``, which the closed forms use for every power, must
reproduce Python's float ``**`` (the C library's ``pow``) bit for bit:
numpy's ``np.power`` and ``x*x`` both differ from it in the last bit on
part of these inputs.  ``elementwise.log2`` must reproduce ``math.log2``
(the C library's ``log2``) bit for bit: numpy's forward ``np.log2`` runs a
SIMD loop that differs from it on part of these inputs, and only a reversed
operand steers numpy to its loop over the C library, so the log2 tests
cover every memory layout and the SIMD loop's tail lengths.

``elementwise.scalar``, the one gate of integer and real parameters, must
return a Python int or float for each accepted value and one exact message
for each rejected one, at every kind of range end.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import elementwise as ew
from cavitycorr.sweep import SweepConfig, sweep_batches
from cavitycorr.verify import run_verification


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


# ((args, kwargs) of elementwise.scalar, its message up to the value), per kind of range end
_GATES = {
    "int-lower": ((("k", int, 1), {}), "k must be an integer >= 1, got "),
    "int-range": ((("n", int, 0, 2**53), {}), f"n must be an integer in [0, {2**53}], got "),
    "real-open": ((("g", float, 0), {"open_lower": True}),
                  "g must be a finite real number > 0, got "),
    "real-closed": ((("t", float, 0), {}), "t must be a finite real number >= 0, got "),
    "real-range": ((("r", float, 0, 1), {}), "r must be a finite real number in [0, 1], got "),
}
_NAN, _INF, _HUGE = math.nan, math.inf, 10**400
# values no gate takes: bools, which the range would read as 0 and 1, and non-numbers
_NEVER = [True, False, np.True_, "1", None, 1j, 1 + 0j]
# (value, the value returned or None for a rejection), per gate
_VALUES = {
    "int-lower": [(1, 1), (np.int64(5), 5), (np.uint8(200), 200), (_HUGE, _HUGE),
                  (0, None), (-_HUGE, None), (1.0, None), (np.float16(1), None),
                  (_NAN, None), (_INF, None)],
    "int-range": [(0, 0), (2**53, 2**53), (np.uint8(255), 255), (np.uint64(2**64 - 1), None),
                  (2**53 + 1, None), (-1, None), (_HUGE, None)],
    "real-open": [(5e-324, 5e-324), (10**300, 1e300), (sys.float_info.max, sys.float_info.max),
                  (np.uint8(200), 200.0), (np.float16(1e-3), float(np.float16(1e-3))),
                  (0, None), (0.0, None), (-0.0, None), (np.uint8(0), None),
                  (np.float16(0), None), (_HUGE, None), (-_HUGE, None), (_NAN, None),
                  (_INF, None), (-_INF, None), (np.float16(_INF), None)],
    "real-closed": [(0, 0.0), (np.float16(0), 0.0), (np.uint8(200), 200.0), (-5e-324, None),
                    (_HUGE, None), (-_HUGE, None), (_NAN, None), (_INF, None), (-_INF, None),
                    (np.float16(-_INF), None)],
    "real-range": [(0, 0.0), (1, 1.0), (np.uint8(1), 1.0), (np.float16(0.5), 0.5),
                   (np.uint8(200), None), (np.float16(1.001), None), (1 + 2**-52, None),
                   (_HUGE, None), (-_HUGE, None), (_NAN, None), (_INF, None), (-_INF, None)],
}
_CASES = ([(gate, x, None) for gate in _GATES for x in _NEVER]
          + [(gate, x, want) for gate, pairs in _VALUES.items() for x, want in pairs])


def _id(x):
    text = repr(x)   # a power of ten too long to read is named by its exponent
    return text if len(text) <= 40 else f"{'-' if x < 0 else ''}10**{len(str(abs(x))) - 1}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gate, x, want", _CASES,
                         ids=[f"{gate}-{_id(x)}" for gate, x, _ in _CASES])
def test_scalar(gate, x, want):
    (args, kwargs), message = _GATES[gate]
    if want is None:
        with pytest.raises(ValueError) as err:
            ew.scalar(x, *args, **kwargs)
        assert str(err.value) == message + repr(x)
    else:
        got = ew.scalar(x, *args, **kwargs)
        assert type(got) is type(want) and got == want


@pytest.mark.filterwarnings("error")
def test_narrow_numpy_scalars_reach_their_callers_as_python_numbers():
    # np.uint8 chunk + start once overflowed, and an np.float16 tolerance
    # once warned in the finiteness check
    cfg = SweepConfig(n=1, r=0.2, gt_max=20.0, steps=600)
    assert [len(b) for b in sweep_batches(cfg, np.uint8(255))] == [255, 255, 91]
    tol = np.float16(1e-3)
    assert (run_verification(3, 1, 2, tol_evolve=tol).render()
            == run_verification(3, 1, 2, tol_evolve=float(tol)).render())
