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
  out.  So the search is one-dimensional on [0, ``THETA_MAX``] = [0, pi/4],
  or z = cos(2 theta) in [0, 1], where H is even in z and H'(0) = 0.  It
  takes H at both end points, theta = 0 and pi/4, the closed form's two
  candidates; H has at most one stationary point on (0, 1), except where it
  is flat to round-off or an outcome is nearly pure at theta = 0, so the
  signs of H''(0) and H'(1) show which states can have an interior
  minimum, and a bracketed, safeguarded Newton solve of H'(z) = 0 finds it
  (the shape of Yurischev's piecewise analytical-numerical discord, Quantum
  Inf. Process. 14, 3399 (2015)).  H, H' and H'' all come from one
  function of z, each outcome's eigenvalues taken from its determinant.
  The search reports the polar angle alone, in [0, pi/4]; its mirror
  angle gives the same entropy.  The z form is checked against a dense
  model built from B's projectors and against the theta form it replaced,
  and the route against the grid and golden-section search before it, all
  test oracles in ``tests/conftest.py``.

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
It runs in lockstep over a batch of states: one call in z gives H, H'
and H'' at both end points for every state, the probe of H' takes blocks
of states, and each Newton step updates every solving state's bracket as
the one-state solve would.  A state whose step is small enough stops
moving, so its result is bit-identical alone and inside any batch.
"""
from __future__ import annotations

import math

import numpy as np

from . import elementwise as ew
from .xstate import XBatch, XState, one_or_batch, spectrum

# Outcomes rarer than this contribute nothing to the conditional entropy.
PROB_FLOOR = 1e-14
# Upper end of the brute-force theta range; H(theta) = H(pi/2 - theta).
THETA_MAX = math.pi / 4
# The interior solve works in y = 1 - z, which keeps its digits where a
# minimum lies next to z = 1 (theta = 0).  It stops a state once its step
# is below this fraction of y, far below where the entropy's error from y
# shows, or after this many steps.
_Y_TOL = 1e-8
_SOLVE_STEPS = 60
# An outcome is nearly pure at theta = 0 where the smaller eigenvalue of A's
# conditional state there is below this fraction of the outcome's weight
# (for B's ground outcome, min(p22, p44) < NEAR_PURE * (p22 + p44)).  Then
# -lambda*log(lambda) can turn H down just before z = 1 and hide an interior
# minimum behind H'(1) < 0; on 400 000 such states no hidden minimum had a
# fraction above 1.4e-4.
NEAR_PURE = 1e-2
# Where H' is probed for the rise that brackets an interior root:
# y = 1 - z = 4**-k / 2, k = 0..25, in order of rising z.  Every hidden
# minimum seen rose over a span of y wider than a factor of 6; a root
# beyond the last probe lies within 2**-51 of z = 1, where H cannot dip
# below H(1) by more than round-off.
_PROBES = 2.0 ** -np.arange(1.0, 53.0, 2.0)
# States probed per call: each (probes, 2, states) temporary of the probe
# takes at most 64 KiB, so the probe's working set stays under 1 MiB
# whatever the batch and however many of its states are probed.
_PROBE_ROWS = 64 * 64 // (2 * len(_PROBES))
# H' or H'' (nats) within this of zero carries no sign: against a 40-digit
# evaluation, H' at the probes of 300 sampler and nearly pure states was
# off by at most 5e-15.
_NOISE = 1e-13


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
    # The z measurement's two outcomes, B's ground state first, take one
    # binary_entropy call: each adds weight * h((1 + gap/weight) / 2), or 0
    # below the floor.  The equatorial value keeps its own call: with it in
    # the same call, the larger temporaries of a 4096-point sweep chunk were
    # given back to the system and faulted in again on every chunk, and
    # `envelope --measure discord` ran 2-5 % slower.
    weight = np.concatenate([p22 + p44, p11 + p33])
    gap = np.concatenate([abs(p22 - p44), abs(p11 - p33)])
    live = weight > PROB_FLOOR
    w = np.where(live, weight, 1.0)
    z_terms = np.where(live, w * binary_entropy(np.minimum((1.0 + gap / w) / 2.0, 1.0)), 0.0)
    n = len(p11)
    return np.minimum(equatorial, (0.0 + z_terms[:n]) + z_terms[n:])


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


# B's first outcome, whose sin^2 theta is (1 - z)/2 (at theta = 0: B found
# in its ground state), then its second, which is the first at -z.
_OUTCOMES = np.array([[1.0], [-1.0]])
# y = 1 - z at the end points theta = 0 and THETA_MAX, one row each.
_ENDS = np.array([[0.0], [1.0]])


def _z_coefficients(states: XBatch) -> tuple:
    """What H(z) needs of each state, computed once per call: its
    populations, |c23|^2, the three nonnegative terms of the conditional
    states' determinants, p11*p33, p22*p44 and p11*p44 + p22*p33 - |c23|^2,
    and, per outcome (on a first axis), p' = dp/dz, d' = dd/dz and
    d'^2 - |c23|^2."""
    p11, p22, p33, p44, c2 = states.p11, states.p22, states.p33, states.p44, states.abs2_c23()
    dp = _OUTCOMES * (((p22 + p44) - (p11 + p33)) / 2.0)
    dd = _OUTCOMES * (((p22 - p44) - (p11 - p33)) / 2.0)
    return (p11, p22, p33, p44, c2, p11 * p33, p22 * p44,
            np.maximum(p11 * p44 + p22 * p33 - c2, 0.0), dp, dd, dd * dd - c2)


def _slopes(coefficients, y, curvature: bool = True) -> tuple:
    """H(z) in bits and H'(z), H''(z) in nats at z = 1 - ``y``, from :func:`_z_coefficients`.

    In z = cos(2 theta), sin^2 theta = (1 - z)/2 = y/2 and cos^2 theta =
    (1 + z)/2, so each outcome's diagonal s11, s00 of A's conditional
    state is linear in z.  With p = s11 + s00, d = s11 - s00,
    g = sqrt(d^2 + (1 - z^2)|c23|^2) and the eigenvalues l+ = (p + g)/2
    and l- = det/l+, an outcome adds
        F = p log2 p - l+ log2 l+ - l- log2 l-   (0 where p <= PROB_FLOOR),
        F' = -(p'/2) ln(det/p^2) - (w/2) L,
        F'' = -(p' l- - p l-')^2 / (p l+ l-) - ((d'^2 - |c23|^2 - g'^2)/2) L,
    where w = g g' = d d' - z|c23|^2 and L = ln(l+/l-)/g = log1p(g/l-)/g
    (1/l- at g = 0); H is the sum of the two outcomes.  The determinant is
    a sum of nonnegative terms and l- is det/l+, so a nearly pure outcome
    keeps its small eigenvalue's digits.  Where an outcome counts, p and
    l+ are positive, so only l- needs 0*log2(0) = 0.  Of H' and H'' only
    signs and their ratio are used, so their factor 1/ln 2 of bits is left
    out.  A pure or empty outcome, or g = 0, makes a derivative infinite or
    NaN, and an empty outcome a masked term of F too; callers silence
    numpy's warnings.  ``y`` broadcasts against the states; the outcomes
    take a new second-to-last axis, which the sum removes.  Without
    ``curvature`` H'' is None.
    """
    p11, p22, p33, p44, c2, e1, e2, e3, dp, dd, dd2_c2 = coefficients
    y = y[..., None, :]
    half = y / 2.0
    rest = 1.0 - half
    z = 1.0 - y
    sin2 = np.concatenate([half, rest], axis=-2)
    cos2 = sin2[..., ::-1, :]   # the second outcome swaps sin^2 and cos^2
    quarter = half * rest   # sin^2 cos^2 = (1 - z^2)/4
    s11, s00 = sin2 * p11 + cos2 * p22, sin2 * p33 + cos2 * p44
    p, d = s11 + s00, s11 - s00
    det = sin2 * sin2 * e1 + cos2 * cos2 * e2 + quarter * e3
    g = np.sqrt(d * d + 4.0 * quarter * c2)
    w = d * dd - z * c2
    top = (p + g) / 2.0
    low = det / top
    value = p * np.log2(p) - top * np.log2(top) - _xlog2x(low, np.log2)
    value = np.where(p > PROB_FLOOR, value, 0.0).sum(axis=-2)
    ell = np.where(g > 0.0, np.log1p(g / low) / g, 1.0 / low)
    first = (-0.5 * (dp * np.log(det / (p * p)) + w * ell)).sum(axis=-2)
    if not curvature:
        return value, first, None
    ddet = _OUTCOMES * (cos2 * e2 - sin2 * e1) - z / 2.0 * e3
    dg = w / g
    dlow = (ddet - low * (dp + dg) / 2.0) / top
    second = -np.square(dp * low - p * dlow) / (p * top * low) - 0.5 * (dd2_c2 - dg * dg) * ell
    return value, first, second.sum(axis=-2)


def _interior_root(coefficients, lo, hi) -> np.ndarray:
    """The root of H'(z) between y = 1 - z = ``lo``, where H' > 0, and ``hi``, where H' < 0.

    Each step is Newton's on G(z) = H'(z)/z, taken in ln y so that it
    never leaves y > 0, unless it leaves the bracket or does not halve the
    step before last; then it bisects.  (Dividing by z removes the root
    H'(0) = 0 that H's evenness puts at z = 0.)  The first point is the
    bracket's geometric middle.  A state stops once its step is within
    ``_Y_TOL`` of y, or after ``_SOLVE_STEPS`` steps; every operation is
    elementwise, so a state's root does not depend on the batch it is in.
    """
    y = np.sqrt(lo * hi)
    step = older = hi - lo
    live = np.ones(len(y), dtype=bool)
    for _ in range(_SOLVE_STEPS):
        _, h1, h2 = _slopes(coefficients, y)
        z = 1.0 - y
        gz = h1 / z
        rises = gz > 0.0
        lo, hi = np.where(rises, y, lo), np.where(rises, hi, y)
        newton = y * np.exp(gz / (y * (h2 - gz) / z))   # dG/dy = (G - H'')/z
        bisect = ~((lo <= newton) & (newton <= hi)) | (abs(2.0 * (y - newton)) > abs(older))
        older = np.where(live, step, older)
        step = np.where(live, np.where(bisect, 0.5 * (hi - lo), y - newton), step)
        y = np.where(live, np.where(bisect, 0.5 * (lo + hi), newton), y)
        live &= abs(step) > _Y_TOL * y
        if not live.any():
            break
    return y


def _min_conditional_entropy(states: XBatch) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of the measured conditional entropy over B's measurement angle.

    Returns ``(minimum, theta)``, arrays with one element per state, theta
    in [0, ``THETA_MAX``].  One :func:`_slopes` call at y = 1 - z = 0 and
    1 (theta = 0 and ``THETA_MAX``) gives H at both ends, of which the
    lower wins, theta = 0 on a tie, and H'(1) and H''(0).  Under the claim
    that H has at most one stationary point on (0, 1), H has an interior
    minimum only where H''(0) < 0 (or within ``_NOISE`` of 0) and
    H'(1) > 0.  The claim fails only where an outcome is nearly pure at
    theta = 0 (``NEAR_PURE``): there H''(0) < 0 and H'(1) <= 0 may still
    hide an interior minimum before H turns down at z = 1.  Each state of
    either kind has H' probed at ``_PROBES``, ``_PROBE_ROWS`` states at a
    time; the first probe where H' > ``_NOISE`` and the probe before it
    bracket the root for :func:`_interior_root`, and the root wins if H
    there is strictly below the end; only then is its angle computed.  A
    state's result does not depend on the batch it is in.
    """
    coefficients = _z_coefficients(states)
    p11, p22, p33, p44 = coefficients[:4]
    near_pure = ((np.minimum(p11, p33) < NEAR_PURE * (p11 + p33))
                 | (np.minimum(p22, p44) < NEAR_PURE * (p22 + p44)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends, slope, curv = _slopes(coefficients, _ENDS)
        at_zero = ends[0] <= ends[1]
        best = np.where(at_zero, ends[0], ends[1])
        theta = np.where(at_zero, 0.0, THETA_MAX)
        # H''(0) at y = 1, H'(1) at y = 0
        i = np.flatnonzero((curv[1] < _NOISE) & ((slope[0] > 0.0) | near_pure))
        if len(i):
            rises = np.concatenate([
                _slopes(tuple(c[..., i[r:r + _PROBE_ROWS]] for c in coefficients),
                        _PROBES[:, None], curvature=False)[1] > _NOISE
                for r in range(0, len(i), _PROBE_ROWS)], axis=1)
            found = rises.any(axis=0)
            i, k = i[found], rises.argmax(axis=0)[found]
        if len(i):
            solving = tuple(c[..., i] for c in coefficients)
            y = _interior_root(solving, _PROBES[k], np.where(k > 0, _PROBES[k - 1], 1.0))
            value = _slopes(solving, y, curvature=False)[0]
            better = value < best[i]
            i, y = i[better], y[better]
            best[i] = value[better]
            theta[i] = np.arcsin(np.sqrt(y / 2.0))   # sin^2 theta = y/2
    return best, theta


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
