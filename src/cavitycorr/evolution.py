"""Closed-form update of an X state after both atoms have crossed the cavity.

Each matrix element of the two-atom state after the two sequential
passes is a trig polynomial in the Rabi angle, with coefficients indexed
by the initial photon number.  The coefficient set is the one derived from
the exact sequential model (see ``docs/evolution_coefficients.md``); it
preserves trace and positivity and matches the Fock-space oracle to
machine precision.  A legacy published variant differs in two
coefficients; :func:`published_form_report` evaluates it and reports how
it breaks the state invariants.

The update is written once, on arrays.  :func:`evolve_batch` evaluates
it either for one state at every angle of a grid or for each state of a
batch at its own photon number and angle; :func:`evolve` is its batch of
one.  :func:`check_params` is the one check of photon numbers and angles
for both and for the Fock oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elementwise as ew
from .xstate import XBatch, XState, make_xbatch

# Drift beyond this marks the published coefficient set as inconsistent
# for a given input; well above round-off, well below the defect size.
DIAGNOSTIC_TOL = 1e-9
# Above this, float64 no longer resolves n, n + 1 and n + 2 apart, so the
# square-root frequencies of the update would coincide.
MAX_PHOTONS = 2**53


def check_photon_number(n) -> None:
    """Reject anything but an integer photon number in [0, 2**53]."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"photon number n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"photon number n must be nonnegative, got {n}")
    if n > MAX_PHOTONS:
        raise ValueError(f"photon number n must be at most 2**53, got {n}")


def check_params(n, gt, size: int | None = None):
    """``n`` and ``gt`` after checking them for the update, ``gt`` as a float array.

    ``gt`` must be a finite 1-d array, of length ``size`` if given, and
    ``n`` an integer or an integer array of ``gt``'s length (returned as
    int64), each in [0, 2**53].  sqrt(n + 2) * |gt|, the largest Rabi
    angle that the closed form or the oracle computes, must be finite:
    beyond that, cos and sin give NaN.  Angles must have an integer or
    float dtype (:func:`~cavitycorr.elementwise.real_array`).
    """
    gt = ew.real_array(gt, "Rabi angle gt")
    if gt.ndim != 1 or size not in (None, len(gt)):
        raise ValueError(f"Rabi angles gt must be a 1-d array"
                         f"{'' if size is None else f' of length {size}'}, got shape {gt.shape}")
    if not np.isfinite(gt).all():
        raise ValueError(f"Rabi angle gt must be finite, got {float(gt[~np.isfinite(gt)][0])!r}")
    if np.ndim(n) == 0:
        check_photon_number(n)
    else:
        n = np.asarray(n)
        if n.dtype.kind not in "iu" or n.shape != gt.shape:
            raise ValueError(f"need {len(gt)} integer photon numbers and Rabi angles, "
                             f"got {n.dtype} shape {n.shape} and shape {gt.shape}")
        for bad in n[(n < 0) | (n > MAX_PHOTONS)][:1].tolist():
            check_photon_number(bad)
        n = n.astype(np.int64)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.sqrt(n + 2) * gt)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"Rabi angle sqrt(n + 2) * gt overflows at "
                         f"n = {int(np.broadcast_to(n, gt.shape)[i])}, gt = {float(gt[i])!r}")
    return n, gt


@dataclass(frozen=True)
class EvolutionParams:
    """Initial photon number and Rabi angle of one double passage."""

    n: int
    gt: float

    def __post_init__(self):
        check_params(self.n, [self.gt])


def _trig(m, gt):
    """(cos(sqrt(m)*gt), sin(sqrt(m)*gt)) for m >= 0, and (1, ±0) for m = -1.

    ``m`` is an integer or an integer array derived from a checked photon
    number, ``gt`` a float or an array of its length.  m = -1 only ever
    appears multiplied by sin(sqrt(0)*gt)^2 = 0, so reading it as m = 0
    keeps the formula total.
    """
    angle = np.sqrt(np.maximum(m, 0)) * gt
    return np.cos(angle), np.sin(angle)


def _update(states: XBatch, n, gt):
    """Raw elements (p11, p22, p33, p44, re c23, im c23) after both passes.

    ``gt`` is a 1-d array of angles, ``states`` a batch of its length or
    of one state, and ``n`` an integer or an integer array of its length.
    Powers are ``np.float_power``, which calls the C library's ``pow`` per
    element (see :mod:`cavitycorr.elementwise`), so each element does not
    depend on the batch around it.
    """
    cm, sm = _trig(n - 1, gt)
    c0, s0 = _trig(n, gt)
    c1, s1 = _trig(n + 1, gt)
    c2, s2 = _trig(n + 2, gt)
    pw = np.float_power
    c1_2, c1_4 = pw(c1, 2), pw(c1, 4)
    c0_2, c0_4 = pw(c0, 2), pw(c0, 4)
    s0_2, s0_4 = pw(s0, 2), pw(s0, 4)
    s1_2, s1_4 = pw(s1, 2), pw(s1, 4)
    cm_2, sm_2 = pw(cm, 2), pw(sm, 2)
    c2_2, s2_2 = pw(c2, 2), pw(s2, 2)
    p11, p22, p33, p44 = states.p11, states.p22, states.p33, states.p44
    re, im = states.re_c23, states.im_c23
    x = 2.0 * re  # c23 + conj(c23)

    q11 = (p11 * c1_4 + p22 * s0_2 * c1_2 + p33 * s0_2 * c0_2
           + p44 * s0_2 * sm_2 + x * s0_2 * c1 * c0)
    q22 = (p11 * s1_2 * c1_2 + p22 * c0_2 * c1_2 + p33 * s0_4
           + p44 * s0_2 * cm_2 - x * s0_2 * c1 * c0)
    q33 = (p11 * s1_2 * c2_2 + p22 * s1_4 + p33 * c1_2 * c0_2
           + p44 * s0_2 * c0_2 - x * s1_2 * c1 * c0)
    q44 = (p11 * s1_2 * s2_2 + p22 * s1_2 * c1_2 + p33 * s1_2 * c0_2
           + p44 * c0_4 + x * s1_2 * c1 * c0)
    # q23 = real part + c23 * c1^2 c0^2 + conj(c23) * s1^2 s0^2, split
    # into real and imaginary parts
    q23 = (p11 * s1_2 * c1 * c2 - p22 * s1_2 * c1 * c0 - p33 * s0_2 * c1 * c0
           + p44 * s0_2 * c0 * cm)
    re_q23 = q23 + re * c1_2 * c0_2 + re * s1_2 * s0_2
    im_q23 = im * c1_2 * c0_2 - im * s1_2 * s0_2
    return q11, q22, q33, q44, re_q23, im_q23


def evolve_batch(states: XState | XBatch, n, gt) -> XBatch:
    """The states after both passes at every Rabi angle of the 1-d ``gt``.

    ``states`` is one state, evolved at every angle with the integer
    photon number ``n``, or a batch of ``gt``'s length, whose state ``i``
    is evolved at ``n[i]`` and ``gt[i]``.  Element ``i`` is bit-identical
    to :func:`evolve` of its state, photon number and angle, and to any
    other batch holding it.
    """
    one = isinstance(states, XState)
    n, gt = check_params(n, gt, None if one else len(states))
    return make_xbatch(*_update(XBatch.of(states) if one else states, n, gt))


def evolve(state: XState, params: EvolutionParams) -> XState:
    """X state after both passes: the batch of one of :func:`evolve_batch`."""
    return evolve_batch(state, params.n, [params.gt])[0]


@dataclass(frozen=True)
class PublishedFormReport:
    """Raw output of the published coefficient set and its invariant violations."""

    state: XState            # unchecked; upper coherence taken from the c23 row
    trace_drift: float       # |trace - 1|
    hermiticity_drift: float  # |c32 row - conj(c23 row)|
    min_population: float
    coherence_excess: float  # max(0, |c23|^2 - p22*p33)

    @property
    def flag(self) -> bool:
        """True when any invariant is violated beyond the diagnostic tolerance."""
        return (self.trace_drift > DIAGNOSTIC_TOL
                or self.hermiticity_drift > DIAGNOSTIC_TOL
                or self.min_population < -DIAGNOSTIC_TOL
                or self.coherence_excess > DIAGNOSTIC_TOL)


def published_form_report(state: XState, params: EvolutionParams) -> PublishedFormReport:
    """Evaluate the legacy published coefficient set and report its inconsistencies.

    The published set differs from the corrected one in two coefficients:
    it carries s0^2 instead of s1^2 on the coherence term of the p44 row,
    which breaks trace preservation whenever Re(c23) != 0, and s2^2
    instead of s1^2 on the p22 term of the lower-coherence row, so that
    row is not the conjugate of the upper one.
    """
    n, gt = params.n, np.array([params.gt])
    q11, q22, q33, q44, re_q23, im_q23 = _update(XBatch.of(state), n, gt)
    c0, s0 = _trig(n, gt)
    c1, s1 = _trig(n + 1, gt)
    _, s2 = _trig(n + 2, gt)
    pw = np.float_power
    q44 = q44 + 2.0 * state.c23.real * (pw(s0, 2) - pw(s1, 2)) * c1 * c0
    pops = [float(q[0]) for q in (q11, q22, q33, q44)]
    q23 = complex(re_q23[0], im_q23[0])
    return PublishedFormReport(
        state=XState(*pops, q23),
        trace_drift=abs(sum(pops) - 1.0),
        hermiticity_drift=float(abs(state.p22 * (pw(s1, 2) - pw(s2, 2)) * c1 * c0)[0]),
        min_population=min(pops),
        coherence_excess=max(0.0, abs(q23) ** 2 - pops[1] * pops[2]),
    )
