"""Two-qubit X-form density matrices and canonical initial states.

The states handled throughout this package are two-qubit density matrices
whose only nonzero elements are the four populations and the single
coherence between |10> and |01>.  The basis order is |11>, |10>, |01>,
|00>, with atom A occupying the first tensor slot.  Only the upper
coherence ``c23`` is stored; the lower one is always its complex
conjugate, so Hermiticity holds by construction.

States are validated on arrays only: :func:`make_xbatch` checks every
state of a batch at once, and :func:`make_xstate` is its batch of one.
"""
from __future__ import annotations

import functools

import numpy as np

from . import elementwise as ew

# Round-off budget for the trace / positivity checks.  The closed-form
# updates are short trig polynomials, so double precision keeps violations
# far below this.
ATOL = 1e-12


class Frozen:
    """Base of the value classes: ``__init__`` sets each field once, in
    ``vars(self)``, and rebinding or deleting one raises ``AttributeError``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class XState(Frozen):
    """Validated X-form two-qubit state.

    Use :func:`make_xstate` to construct one; direct construction skips
    every invariant check (the published-coefficient diagnostics rely on
    this to represent their known-inconsistent output).  Two states are
    equal when their fields are.
    """

    def __init__(self, p11: float, p22: float, p33: float, p44: float, c23: complex):
        vars(self).update(p11=p11, p22=p22, p33=p33, p44=p44, c23=c23)

    def __eq__(self, other):
        if type(other) is not XState:
            return NotImplemented
        return (*self.populations(), self.c23) == (*other.populations(), other.c23)

    def __repr__(self):
        return (f"XState(p11={self.p11!r}, p22={self.p22!r}, p33={self.p33!r}, "
                f"p44={self.p44!r}, c23={self.c23!r})")

    def populations(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p22, self.p33, self.p44)

    def trace(self) -> float:
        return self.p11 + self.p22 + self.p33 + self.p44


class XBatch(Frozen):
    """X states as parallel 1-d arrays (struct of arrays), one index per state.

    Use :func:`make_xbatch` to build a validated batch, or
    :meth:`XBatch.of` to wrap one already-built :class:`XState`.  The
    closed forms accept an :class:`XBatch` wherever they accept an
    :class:`XState`, and then return arrays.  A batch is never written to
    after construction: its |c23| and |c23|^2 are computed once, on first
    use (in :func:`make_xbatch`, by its check), and kept as read-only arrays.
    """

    def __init__(self, p11: np.ndarray, p22: np.ndarray, p33: np.ndarray,
                 p44: np.ndarray, re_c23: np.ndarray, im_c23: np.ndarray):
        vars(self).update(p11=p11, p22=p22, p33=p33, p44=p44, re_c23=re_c23, im_c23=im_c23)

    @classmethod
    def of(cls, state: XState) -> "XBatch":
        """One-element batch holding ``state`` as it is, without re-validation."""
        return cls.stack([state])

    @classmethod
    def stack(cls, states) -> "XBatch":
        """Batch holding the already-built ``states`` in order, without re-validation."""
        rows = [(s.p11, s.p22, s.p33, s.p44, complex(s.c23).real, complex(s.c23).imag)
                for s in states]
        return cls(*(np.array(col, dtype=float) for col in zip(*rows)))

    def __len__(self) -> int:
        return len(self.p11)

    def __getitem__(self, i: int | slice) -> "XState | XBatch":
        """State ``i``, or the sub-batch of the states in slice ``i``."""
        if isinstance(i, slice):
            return XBatch(self.p11[i], self.p22[i], self.p33[i], self.p44[i],
                          self.re_c23[i], self.im_c23[i])
        return XState(float(self.p11[i]), float(self.p22[i]), float(self.p33[i]),
                      float(self.p44[i]), complex(self.re_c23[i], self.im_c23[i]))

    @functools.cached_property
    def _moduli(self) -> tuple[np.ndarray, np.ndarray]:
        abs_c23 = np.hypot(self.re_c23, self.im_c23)
        abs2 = np.float_power(abs_c23, 2)
        abs_c23.flags.writeable = abs2.flags.writeable = False
        return abs_c23, abs2

    def abs_c23(self) -> np.ndarray:
        """|c23| of each state, read-only."""
        return self._moduli[0]

    def abs2_c23(self) -> np.ndarray:
        """|c23|^2 of each state, the libm square of :meth:`abs_c23`, read-only."""
        return self._moduli[1]


def one_or_batch(closed_form):
    """``closed_form``, written on an :class:`XBatch`, made to take one :class:`XState` too.

    A batch goes through unchanged.  One state is evaluated as the batch
    of one, and element 0 of the result comes back as a float.
    """
    @functools.wraps(closed_form)
    def one_or_many(state):
        if isinstance(state, XState):
            return float(closed_form(XBatch.of(state))[0])
        return closed_form(state)
    return one_or_many


def make_xstate(p11: float, p22: float, p33: float, p44: float, c23: complex) -> XState:
    """Validate and build an :class:`XState`: the batch of one of :func:`make_xbatch`.

    Each argument, ``c23`` split into its parts, becomes a one-element
    column there, so a bool, a string or a sequence raises its ``ValueError``.
    """
    c23 = np.asarray(c23)
    return make_xbatch(*([v] for v in (p11, p22, p33, p44, np.real(c23), np.imag(c23))))[0]


def make_xbatch(p11, p22, p33, p44, re_c23, im_c23) -> XBatch:
    """Validate and build an :class:`XBatch`: the one state gate.

    The six columns must be 1-d arrays of equal length holding integers or
    floats (:func:`elementwise.real_array`): bool, complex, string and
    object columns, ragged sequences and scalars raise ``ValueError``.
    Populations within ``-ATOL`` of zero are clamped to exactly zero; the
    trace is never renormalized.  If any state fails a check, the
    ``ValueError`` names the first failing check of the first failing state.
    """
    names = ("p11", "p22", "p33", "p44", "c23", "c23")
    cols = [ew.real_array(x, name)
            for x, name in zip((p11, p22, p33, p44, re_c23, im_c23), names)]
    if cols[0].ndim != 1 or any(x.shape != cols[0].shape for x in cols):
        raise ValueError("p11..p44, re_c23 and im_c23 must be 1-d arrays of equal length, "
                         f"got shapes {', '.join(str(x.shape) for x in cols)}")
    *pops, re_c23, im_c23 = cols
    with np.errstate(invalid="ignore", over="ignore"):
        trace = ((pops[0] + pops[1]) + pops[2]) + pops[3]
        batch = XBatch(*(np.where(p < 0.0, 0.0, p) for p in pops), re_c23, im_c23)
        abs2 = batch.abs2_c23()   # fills the batch's cache
        inner = batch.p22 * batch.p33
        # One pass that rejects exactly the states the checks below reject,
        # which are built only then, for the first failure's text.  A NaN
        # fails every comparison, a population that is not finite makes the
        # trace so, and a c23 that is not finite makes |c23|^2 so.
        floor = np.minimum(np.minimum(pops[0], pops[1]), np.minimum(pops[2], pops[3]))
        if ((abs(trace - 1.0) <= ATOL) & (floor >= -ATOL) & (abs2 - inner <= ATOL)).all():
            return batch
        checks = [(~np.isfinite(p), lambda i, name=name, p=p:
                   f"{name} must be finite, got {float(p[i])!r}")
                  for name, p in zip(names, pops)]
        checks.append((~np.isfinite(re_c23) | ~np.isfinite(im_c23), lambda i:
                       f"c23 must be finite, got {complex(re_c23[i], im_c23[i])!r}"))
        checks.append((abs(trace - 1.0) > ATOL, lambda i:
                       f"trace must be 1 within {ATOL:g}, got trace = {float(trace[i])!r}"))
        checks += [(p < -ATOL, lambda i, name=name, p=p:
                    f"{name} must be nonnegative within {ATOL:g}, got {float(p[i])!r}")
                   for name, p in zip(names, pops)]
        # Positivity of the central 2x2 block; the outer block is diagonal
        # because the |11><00| coherence is identically zero here.
        checks.append((abs2 - inner > ATOL, lambda i: (
            f"|c23|^2 must not exceed p22*p33 within {ATOL:g}: "
            f"|c23|^2 = {float(abs2[i])!r}, p22*p33 = {float(inner[i])!r}")))
    ew.raise_first(checks)
    return batch


def werner_state(r: float) -> XState:
    """Werner mixture of the |psi+> Bell state with the maximally mixed state.

    ``r = 0`` gives the maximally mixed state, ``r = 1`` the Bell state.
    The elements are computed in affine form so that
    ``werner_state(r) == r*werner_state(1) + (1-r)*werner_state(0)``
    holds exactly in floating point, element by element.
    """
    r = ew.scalar(r, "r", float, 0, 1)
    outer = (1.0 - r) * 0.25
    inner = r * 0.5 + (1.0 - r) * 0.25
    return make_xstate(outer, inner, inner, outer, r * 0.5)


def spectrum(states: XBatch) -> list:
    """Eigenvalues ``[l0, l1, l2, l3]`` of each state of a batch, as arrays.

    The first pair comes from the diagonal outer block and the second from
    the central 2x2 block, each ordered larger first.  Tiny negatives from
    round-off are clamped to 0.
    """
    p11, p22, p33, p44 = states.p11, states.p22, states.p33, states.p44
    outer_sum = p11 + p44
    outer_gap = abs(p11 - p44)
    inner_sum = p22 + p33
    inner_gap = np.sqrt(np.float_power(p22 - p33, 2) + 4.0 * states.abs2_c23())
    lams = [0.5 * (outer_sum + outer_gap), 0.5 * (outer_sum - outer_gap),
            0.5 * (inner_sum + inner_gap), 0.5 * (inner_sum - inner_gap)]
    return [np.where((lam < 0.0) & (lam >= -ATOL), 0.0, lam) for lam in lams]

