"""Entanglement and discord measures for X states.

All entropies are base 2 with the convention 0*log(0) = 0.  Quantum
discord comes in two routes that cross-validate each other:

* a closed form that takes the minimum of the two candidate measured
  conditional entropies (measurement of atom B along z, or in the
  equatorial plane).  For X states this is known to be exact up to a
  worst-case absolute error of 0.0021;
* a brute-force minimization of the measured conditional entropy over all
  rank-1 projective measurements on atom B, on a deterministic angular
  grid followed by coordinate-wise golden-section refinement.

The brute force is the ground truth; the closed form must stay within the
bound above (plus grid slack) or verification fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elementwise as ew
from .xstate import XBatch, XState, spectrum

# Outcomes rarer than this contribute nothing to the conditional entropy.
PROB_FLOOR = 1e-14
# Angular tolerance of the golden-section refinement stage.
ANGLE_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def binary_entropy(x, atol: float = 1e-12) -> float | np.ndarray:
    """-x*log2(x) - (1-x)*log2(1-x), tolerating round-off just outside [0, 1].

    Elementwise for an array ``x``.
    """
    if not isinstance(x, np.ndarray):
        x = float(x)
    ew.raise_first([((x != x) | (x < -atol) | (x > 1.0 + atol), lambda i:
                     f"binary entropy argument must lie in [0, 1], got {ew.at(x, i)!r}")])
    x = ew.minimum(ew.maximum(x, 0.0), 1.0)
    return 0.0 - _xlog2x(x) - _xlog2x(1.0 - x)


def _xlog2x(v, log2=ew.log2):
    """v*log2(v), with 0*log2(0) = 0."""
    live = v > 0.0
    return ew.where(live, v * log2(ew.where(live, v, 1.0)), 0.0)


def _h(x):
    """Vectorized binary entropy, inputs assumed in [0, 1] up to round-off."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    for v in (x, 1.0 - x):
        out -= np.where(v > 0.0, v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)
    return out


# Every closed form below takes an XState and returns a float, or an
# XBatch and returns an array with one element per state.

def concurrence(state: XState | XBatch) -> float | np.ndarray:
    """Entanglement monotone; for X states 2*max(0, |c23| - sqrt(p11*p44))."""
    return 2.0 * ew.maximum(0.0, state.abs_c23() - ew.sqrt(state.p11 * state.p44))


def entropy_joint(state: XState | XBatch) -> float | np.ndarray:
    """von Neumann entropy of the two-atom state, from the closed-form spectrum."""
    terms = [_xlog2x(lam, ew.simd_log2) for lam in spectrum(state)]
    # left to right, as numpy sums a short array; zero terms drop out exactly
    return -(((terms[0] + terms[1]) + terms[2]) + terms[3])


def entropy_a(state: XState | XBatch) -> float | np.ndarray:
    """Entropy of atom A's marginal (its excited-state weight is p11 + p22)."""
    return binary_entropy(state.p11 + state.p22)


def entropy_b(state: XState | XBatch) -> float | np.ndarray:
    """Entropy of atom B's marginal (its excited-state weight is p11 + p33)."""
    return binary_entropy(state.p11 + state.p33)


def mutual_information_from(s_a, s_b, s_ab):
    """Mutual information from the marginal and joint entropies."""
    return s_a + s_b - s_ab


def mutual_information(state: XState | XBatch) -> float | np.ndarray:
    return mutual_information_from(entropy_a(state), entropy_b(state), entropy_joint(state))


def closed_min_conditional_entropy(state: XState | XBatch) -> float | np.ndarray:
    """Closed-form candidate minimum of the measured conditional entropy.

    Minimum of the equatorial-measurement value and the z-measurement
    value; for X states one of the two is optimal up to the 0.0021
    worst-case error.
    """
    p11, p22, p33, p44 = state.p11, state.p22, state.p33, state.p44
    pol = ew.sqrt(ew.power(2.0 * p11 + 2.0 * p22 - 1.0, 2)
                  + 4.0 * ew.power(state.abs_c23(), 2))
    equatorial = binary_entropy(ew.minimum((1.0 + pol) / 2.0, 1.0))

    def z_branch(weight, gap):
        # weight * h((1 + gap/weight) / 2); outcomes below the floor add 0
        live = weight > PROB_FLOOR
        w = ew.where(live, weight, 1.0)
        return ew.where(live, w * binary_entropy(ew.minimum((1.0 + gap / w) / 2.0, 1.0)), 0.0)

    z_value = (0.0 + z_branch(p22 + p44, abs(p22 - p44))
               + z_branch(p11 + p33, abs(p11 - p33)))
    return ew.minimum(equatorial, z_value)


def discord_closed_from(s_b, s_ab, m):
    """Closed-form discord S_B - S_AB + m, clamped to [0, 1 + 1e-9]."""
    return ew.minimum(ew.maximum(s_b - s_ab + m, 0.0), 1.0 + 1e-9)


def discord_brute_from(s_b, s_ab, m):
    """Brute-force discord S_B - S_AB + m, with round-off in [-1e-9, 0) set to 0."""
    d = s_b - s_ab + m
    return ew.where((d >= -1e-9) & (d < 0.0), 0.0, d)


def discord_closed(state: XState | XBatch) -> float | np.ndarray:
    """Closed-form quantum discord for X states."""
    return discord_closed_from(entropy_b(state), entropy_joint(state),
                               closed_min_conditional_entropy(state))


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement of atom B.

    The first projector is onto cos(theta)|0> + e^(i*phi) sin(theta)|1>,
    the second onto its orthocomplement.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")

    def kets(self) -> tuple[np.ndarray, np.ndarray]:
        """Both outcome kets as (|1>, |0>) component pairs."""
        ph = np.exp(1j * self.phi)
        b0 = np.array([ph * math.sin(self.theta), math.cos(self.theta)])
        b1 = np.array([-ph * math.cos(self.theta), math.sin(self.theta)])
        return b0, b1


def conditional_entropy_measured(state: XState, basis: MeasurementBasis) -> float:
    """Average entropy of atom A conditioned on measuring atom B.

    Built directly from the projectors: for each outcome k, the projected
    matrix P_k rho P_k is traced over B and normalized by the outcome
    probability; outcomes below the probability floor contribute nothing.
    """
    rho = state.as_matrix()
    total = 0.0
    for ket in basis.kets():
        proj = np.kron(np.eye(2), np.outer(ket, ket.conj()))
        sub = proj @ rho @ proj
        p_k = np.trace(sub).real
        if p_k < PROB_FLOOR:
            continue
        rho_k = np.einsum("abcb->ac", sub.reshape(2, 2, 2, 2)) / p_k
        lams = np.linalg.eigvalsh(rho_k)
        lams = lams[lams > 0.0]
        total += p_k * float(-(lams * np.log2(lams)).sum())
    return total


def _measured_entropy(state: XState, theta):
    """Vectorized conditional entropy over theta.

    For X states the measured conditional entropy does not depend on phi:
    the only coherence is between |10> and |01>, so the measurement phase
    enters the conditional states of A only through the magnitude
    sin(theta)cos(theta)|c23|.  The phi argument of the public minimizer
    is therefore inert here but kept on the grid for the general contract.
    """
    theta = np.asarray(theta, dtype=float)
    p11, p22, p33, p44 = state.populations()
    sin2 = np.sin(theta) ** 2
    cos2 = np.cos(theta) ** 2
    off = np.sin(theta) * np.cos(theta) * abs(state.c23)

    def branch(w_exc, w_gnd):
        s11 = w_exc * p11 + w_gnd * p22
        s00 = w_exc * p33 + w_gnd * p44
        p_k = s11 + s00
        gap = np.sqrt((s11 - s00) ** 2 + 4.0 * off ** 2)
        top = np.where(p_k > PROB_FLOOR, (p_k + gap) / np.maximum(2.0 * p_k, PROB_FLOOR), 0.0)
        return np.where(p_k > PROB_FLOOR, p_k * _h(top), 0.0)

    return branch(sin2, cos2) + branch(cos2, sin2)


def _golden_min(fun, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic golden-section minimum of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > ANGLE_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _min_conditional_entropy(state: XState, grid_points: int = 128) -> tuple[float, MeasurementBasis]:
    """Grid search plus re-centered golden-section refinement in theta.

    The phi axis is exactly flat for these states (see _measured_entropy),
    so refining it would be a no-op; the grid still spans both angles and
    ties break deterministically toward the smallest theta, then the
    smallest phi, so the result does not depend on evaluation order.
    """
    if grid_points < 64:
        raise ValueError(f"need at least 64 grid points per angle, got {grid_points}")
    thetas = np.linspace(0.0, math.pi / 2, grid_points)
    phis = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    vals = np.broadcast_to(_measured_entropy(state, thetas)[:, None],
                           (grid_points, grid_points))
    flat = int(np.argmin(vals))  # row-major: smallest theta wins ties, then phi
    i, j = divmod(flat, grid_points)
    theta, phi = float(thetas[i]), float(phis[j])
    best = float(vals[i, j])

    dth = (math.pi / 2) / (grid_points - 1)
    for _ in range(3):
        t, ft = _golden_min(lambda t: float(_measured_entropy(state, t)),
                            max(0.0, theta - dth), min(math.pi / 2, theta + dth))
        if ft < best:
            theta, best = t, ft
    return best, MeasurementBasis(theta, phi)


def classical_correlation_bruteforce(state: XState, grid_points: int = 128
                                     ) -> tuple[float, MeasurementBasis]:
    """Marginal entropy of A minus the minimized measured conditional entropy."""
    m, basis = _min_conditional_entropy(state, grid_points)
    return entropy_a(state) - m, basis


def discord_bruteforce(state: XState, grid_points: int = 128) -> float:
    """Quantum discord from the brute-force measurement minimization."""
    m, _ = _min_conditional_entropy(state, grid_points)
    return discord_brute_from(entropy_b(state), entropy_joint(state), m)
