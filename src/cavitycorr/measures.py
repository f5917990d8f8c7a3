"""Entanglement and discord measures for X states.

All entropies are base 2 with the convention 0*log(0) = 0.  Quantum
discord comes in two routes that cross-validate each other:

* a closed form that takes the minimum of the two candidate measured
  conditional entropies (measurement of atom B along z, or in the
  equatorial plane).  It can exceed the true discord.  Huang, PRA 88,
  014302 (2013) gives 0.0021 at worst, bits or nats unchecked; in bits
  the error is at least 0.00294 (0.00204 nats), at (p11, p22, p33, p44,
  |c23|) = (2.07e-4, 0.02674, 0.94597, 0.02708, 0.14056), scaled to trace 1;
* a brute-force minimization of the measured conditional entropy over all
  rank-1 projective measurements on atom B.  For X states that entropy
  depends only on the polar angle theta of B's basis, and it is
  mirror-symmetric, H(theta) = H(pi/2 - theta): the basis at pi/2 - theta
  is the one at theta with its outcomes swapped and phi = pi, and phi drops
  out.  So the search is one-dimensional on [0, ``THETA_MAX``] = [0, pi/4]:
  a fixed ``GRID_POINTS``-point theta grid, then one golden-section round
  around the best grid point.  The search reports the polar angle alone,
  in [0, pi/4]; its mirror angle gives the same entropy.  The kernel is
  checked against a dense model built from B's projectors, a test oracle
  (``conditional_entropy_measured`` in ``tests/conftest.py``).

Both routes turn their minimum m into discord with the one formula
:func:`discord_from`, D = S_B - S_AB + m.  The brute force is the ground
truth; verification fails where the closed form is further from it than
the discord tolerance.

Every closed form is written once, on arrays: it takes an :class:`XBatch`
and returns one value per state, and given one :class:`XState` it is the
batch of one and returns a float (:func:`~cavitycorr.xstate.one_or_batch`).
The brute-force search takes an :class:`XBatch` too;
:func:`discord_bruteforce` and :func:`classical_correlation_bruteforce`
are its batch of one, and the latter also returns the minimizing angle.
It runs in lockstep over a batch of states: the grid is one (states x
grid points) array with a row-wise argmin, and each golden-section step
updates every state's bracket as the one-state search would and
evaluates one new point per state.  A state whose bracket is
already narrower than ``ANGLE_TOL`` stops moving, so its result is
bit-identical alone and inside any batch.  Each call reads the states'
populations and |c23| once and computes the grid's trig once; one kernel
serves the grid and the golden-section steps.
"""
from __future__ import annotations

import math

import numpy as np

from . import elementwise as ew
from .xstate import XBatch, XState, one_or_batch, spectrum

# Outcomes rarer than this contribute nothing to the conditional entropy.
PROB_FLOOR = 1e-14
# Angular tolerance of the golden-section refinement stage.
ANGLE_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Upper end of the brute-force theta range; H(theta) = H(pi/2 - theta).
THETA_MAX = math.pi / 4
# Points of the brute-force theta grid on [0, THETA_MAX].
GRID_POINTS = 64
# Grid values evaluated per call in the brute-force grid stage: 64 states of
# a 64-point grid, so each of its (2, 64, 64) temporaries takes 64 KiB and a
# block's working set stays under 0.5 MiB whatever the batch.
_GRID_VALUES = 64 * 64


def binary_entropy(x: np.ndarray) -> np.ndarray:
    """-x*log2(x) - (1-x)*log2(1-x) of each element of a 1-d array.

    Tolerates round-off of 1e-12 outside [0, 1].
    """
    ew.raise_first([((x != x) | (x < -1e-12) | (x > 1.0 + 1e-12), lambda i:
                     f"binary entropy argument must lie in [0, 1], got {float(x[i])!r}")])
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    return 0.0 - _xlog2x(x) - _xlog2x(1.0 - x)


def _xlog2x(v, log2=ew.log2):
    """v*log2(v), with 0*log2(0) = 0."""
    live = v > 0.0
    return np.where(live, v * log2(np.where(live, v, 1.0)), 0.0)


def _h(x):
    """Vectorized binary entropy, inputs assumed in [0, 1] up to round-off.

    The operations of ``_xlog2x`` on ``[x, 1 - x]`` in their order, done in
    place in two arrays of its own; ``x`` is not written.
    """
    t = np.empty((2,) + x.shape)
    x.clip(0.0, 1.0, out=t[0])
    np.subtract(1.0, t[0], out=t[1])
    live = t > 0.0
    terms = np.where(live, t, 1.0)
    np.log2(terms, out=terms)
    np.multiply(t, terms, out=terms)
    np.copyto(terms, 0.0, where=np.logical_not(live, out=live))
    out = np.subtract(0.0, terms[0], out=terms[0])
    out -= terms[1]
    return out


# Every closed form below is written on an XBatch and returns an array with
# one element per state; given one XState it returns a float.

@one_or_batch
def concurrence(state: XState | XBatch) -> float | np.ndarray:
    """Entanglement monotone; for X states 2*max(0, |c23| - sqrt(p11*p44))."""
    return 2.0 * np.maximum(0.0, state.abs_c23() - np.sqrt(state.p11 * state.p44))


@one_or_batch
def entropy_joint(state: XState | XBatch) -> float | np.ndarray:
    """von Neumann entropy of the two-atom state, from the closed-form spectrum."""
    terms = [_xlog2x(lam, np.log2) for lam in spectrum(state)]
    # left to right, as numpy sums a short array; zero terms drop out exactly
    return -(((terms[0] + terms[1]) + terms[2]) + terms[3])


@one_or_batch
def entropy_a(state: XState | XBatch) -> float | np.ndarray:
    """Entropy of atom A's marginal (its excited-state weight is p11 + p22)."""
    return binary_entropy(state.p11 + state.p22)


@one_or_batch
def entropy_b(state: XState | XBatch) -> float | np.ndarray:
    """Entropy of atom B's marginal (its excited-state weight is p11 + p33)."""
    return binary_entropy(state.p11 + state.p33)


def mutual_information_from(s_a, s_b, s_ab):
    """Mutual information from the marginal and joint entropies."""
    return s_a + s_b - s_ab


@one_or_batch
def mutual_information(state: XState | XBatch) -> float | np.ndarray:
    return mutual_information_from(entropy_a(state), entropy_b(state), entropy_joint(state))


@one_or_batch
def closed_min_conditional_entropy(state: XState | XBatch) -> float | np.ndarray:
    """Closed-form candidate minimum of the measured conditional entropy.

    Minimum of the equatorial-measurement value and the z-measurement
    value.  For X states it can exceed the true minimum, by at least
    0.00294 bits at worst (the state is in the module docstring).
    """
    p11, p22, p33, p44 = state.p11, state.p22, state.p33, state.p44
    pol = np.sqrt(np.float_power(2.0 * p11 + 2.0 * p22 - 1.0, 2) + 4.0 * state.abs2_c23())
    equatorial = binary_entropy(np.minimum((1.0 + pol) / 2.0, 1.0))

    def z_branch(weight, gap):
        # weight * h((1 + gap/weight) / 2); outcomes below the floor add 0
        live = weight > PROB_FLOOR
        w = np.where(live, weight, 1.0)
        return np.where(live, w * binary_entropy(np.minimum((1.0 + gap / w) / 2.0, 1.0)), 0.0)

    z_value = (0.0 + z_branch(p22 + p44, abs(p22 - p44))
               + z_branch(p11 + p33, abs(p11 - p33)))
    return np.minimum(equatorial, z_value)


def discord_from(s_b, s_ab, m):
    """Discord S_B - S_AB + m from a minimized conditional entropy m.

    Round-off in [-1e-9, 0) becomes 0; nothing else is clamped, so a real
    fault still shows to the callers' checks.
    """
    d = s_b - s_ab + m
    return np.where((d >= -1e-9) & (d < 0.0), 0.0, d)


@one_or_batch
def discord_closed(state: XState | XBatch) -> float | np.ndarray:
    """Closed-form quantum discord for X states."""
    return discord_from(entropy_b(state), entropy_joint(state),
                        closed_min_conditional_entropy(state))


def _constants(states: XBatch) -> tuple[np.ndarray, np.ndarray]:
    """Each state's populations ``[[p11, p33], [p22, p44]]`` and its |c23|.

    Shaped to broadcast against one angle per state: the populations as
    (2, 2, 1, states), |c23| as (states,).
    """
    pops = np.array([[states.p11, states.p33], [states.p22, states.p44]], dtype=float)
    return pops[:, :, None], states.abs_c23()


def _trig(theta) -> tuple[np.ndarray, np.ndarray]:
    """``[sin^2, cos^2]`` of the angles ``theta``, stacked along a new first axis, and sin*cos."""
    sin_cos = np.array([np.sin(theta), np.cos(theta)])
    return np.square(sin_cos), sin_cos[0] * sin_cos[1]


def _entropy(pops, abs_c23, sin2_cos2, sin_cos) -> np.ndarray:
    """Measured conditional entropy from :func:`_constants` and :func:`_trig`.

    The one kernel of every evaluation; the result has the broadcast shape
    of the states' and the angles' arrays.  The azimuth phi of B's basis
    drops out: the only coherence links |10> and |01>, so the measurement
    phase enters the conditional states of A only through the magnitude
    sin(theta)cos(theta)|c23|.

    It works in place, in arrays of its own, with the operations and
    operand order of the out-of-place formulas, and never writes its
    inputs: every grid block shares one set of trig arrays.  A grid
    block's temporaries then peak near 7 of its (2, states, angles) arrays
    instead of 13, few enough that glibc keeps the memory between calls
    rather than returning it and faulting it back in.
    """
    off = sin_cos * abs_c23
    np.multiply(4.0, np.square(off, out=off), out=off)
    # diagonal of A's conditional state, for both outcomes along the first
    # axis: B found excited, then ground
    s = sin2_cos2 * pops[0]
    s += sin2_cos2[::-1] * pops[1]
    s11, s00 = s
    p_k = s11 + s00
    # gap = sqrt((s11 - s00)^2 + 4 off^2), then top, overwrite s11; s00
    # takes the denominator
    gap = np.subtract(s11, s00, out=s11)
    np.square(gap, out=gap)
    gap += off
    del off
    np.sqrt(gap, out=gap)
    top = np.add(p_k, gap, out=gap)
    top /= np.maximum(np.multiply(2.0, p_k, out=s00), PROB_FLOOR, out=s00)
    # outcomes below the floor contribute nothing, whatever ``top`` is there
    out = _h(top)
    np.multiply(p_k, out, out=out)
    dead = p_k > PROB_FLOOR
    np.copyto(out, 0.0, where=np.logical_not(dead, out=dead))
    return out[0] + out[1]


def _golden_min(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic golden-section minima of ``fun`` on [lo, hi], elementwise.

    ``fun`` maps an array of points to the values there.  Every element
    takes the steps the one-element search would take; an element whose
    bracket has shrunk below ``ANGLE_TOL`` stops moving while the others go on.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    live = b - a > ANGLE_TOL
    while live.any():
        lower = fc <= fd
        left, right = live & lower, live & ~lower
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        step = _INVPHI * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fun(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live = b - a > ANGLE_TOL
    left = fc <= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def _grid_min(pops, abs_c23, thetas, trig) -> tuple[np.ndarray, np.ndarray]:
    """Each state's grid angle of least measured entropy, and that entropy.

    ``pops`` and ``abs_c23`` are a block of rows of :func:`_constants`,
    with a trailing axis for the angles; ``trig`` is ``_trig(thetas[None])``.
    Ties go to the smallest angle.
    """
    vals = _entropy(pops, abs_c23, *trig)
    i = np.argmin(vals, axis=1)
    return thetas[i], vals[np.arange(len(i)), i]


def _min_conditional_entropy(states: XBatch) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of the measured conditional entropy over B's measurement angle.

    Returns ``(minimum, theta)``, arrays with one element per state, theta
    in [0, ``THETA_MAX``].  Each state's ``GRID_POINTS``-point theta grid is
    one row of a 2-d array, evaluated a block of rows at a time; the
    row-wise argmin (ties to the smallest theta) is then refined by one
    golden-section round over the grid intervals beside it, run in lockstep
    over the batch.  The states' populations and |c23| are read, and the
    grid's trig computed, once per call.  A state's result does not depend
    on the batch it is in.
    """
    pops, abs_c23 = _constants(states)
    thetas = np.linspace(0.0, THETA_MAX, GRID_POINTS)
    trig = _trig(thetas[None])   # one row of angles, shared by every row of states
    rows = max(1, _GRID_VALUES // GRID_POINTS)
    theta, best = (np.concatenate(parts) for parts in zip(*(
        _grid_min(pops[..., r:r + rows, None], abs_c23[r:r + rows, None], thetas, trig)
        for r in range(0, len(states), rows))))

    dth = THETA_MAX / (GRID_POINTS - 1)
    t, ft = _golden_min(lambda t: _entropy(pops, abs_c23, *_trig(t)),
                        np.maximum(0.0, theta - dth), np.minimum(THETA_MAX, theta + dth))
    better = ft < best
    return np.where(better, ft, best), np.where(better, t, theta)


def classical_correlation_bruteforce(state: XState) -> tuple[float, float]:
    """Marginal entropy of A minus the minimized measured conditional entropy, and its angle.

    Returns ``(C, theta)``: theta in [0, ``THETA_MAX``] is the polar angle
    of B's basis that attains the minimum; the azimuth drops out.
    """
    one = XBatch.of(state)
    m, theta = _min_conditional_entropy(one)
    return float((entropy_a(one) - m)[0]), float(theta[0])


def discord_bruteforce(state: XState) -> float:
    """Quantum discord from the brute-force measurement minimization."""
    one = XBatch.of(state)
    m, _ = _min_conditional_entropy(one)
    return float(discord_from(entropy_b(one), entropy_joint(one), m)[0])
