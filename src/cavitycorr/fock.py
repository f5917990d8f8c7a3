"""Exact sequential Jaynes-Cummings dynamics on a five-photon window.

This is the ground-truth model: each atom in turn interacts with the
field, and the field is traced out at the end.  At exact resonance the
interaction turns each pair {|e,m>, |g,m+1>} by the angle sqrt(m+1)*gt,
so it is applied pair by pair, with no matrix exponential and no
truncation error.  Two passages starting from |n> keep the photon number
within n-2 .. n+2, so each of the four atom basis kets |ab, n> is carried
as five amplitudes per atom configuration, and the two-atom state is
rho = sum_ij rho_ij tr_field(U|i><j|U^dagger).  Nothing here grows with n
or uses the closed-form coefficient table.

Complex amplitudes are kept as real and imaginary float arrays with one
element per state, and every sum has a fixed operand order, so a state's
result is bit-identical alone and inside any batch.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .evolution import EvolutionParams, check_params
from .xstate import XBatch, XState, make_xbatch

# Above this the X form is not preserved and something is wrong with the
# implementation, not the input; the X form is closed under the dynamics.
OFF_X_TOL = 1e-12
# Photon numbers n-2 .. n+2; window index j holds photon number n - 2 + j.
_WINDOW = 5
# Where an X state may be nonzero: the diagonal and the |10>,|01> coherences.
_X_FORM = np.eye(4, dtype=bool)
_X_FORM[1, 2] = _X_FORM[2, 1] = True


class PassOrder(Enum):
    A_FIRST = "A-first"
    B_FIRST = "B-first"


def _rotate(re, im, n, gt):
    """The interaction of the atom on axis 2 of kets shaped (field, ket, atom, atom, state).

    Level index 0 is excited.  The pair {|e, n-2+j>, |g, n-1+j>} turns by
    sqrt(n-1+j)*gt for j = 0..3, where n-1+j <= 0 turns by zero.  |g, n-2>
    and |e, n+2>, whose partners lie outside the window, are left as they
    are: two passages never populate them.
    """
    angle = np.sqrt(np.maximum(n - 1 + np.arange(_WINDOW - 1)[:, None], 0)) * gt
    c, s = np.cos(angle)[:, None, None], np.sin(angle)[:, None, None]
    e_re, e_im, g_re, g_im = re[:-1, :, 0], im[:-1, :, 0], re[1:, :, 1], im[1:, :, 1]
    re, im = re.copy(), im.copy()
    # (e, g) -> (c e - i s g, -i s e + c g)
    re[:-1, :, 0], im[:-1, :, 0] = c * e_re + s * g_im, c * e_im - s * g_re
    re[1:, :, 1], im[1:, :, 1] = c * g_re + s * e_im, c * g_im - s * e_re
    return re, im


def sequential_pass_batch(states: XBatch, n, gt,
                          order: PassOrder = PassOrder.A_FIRST) -> XBatch:
    """Exact state ``i`` after both atoms have crossed the cavity at ``n[i]``, ``gt[i]``.

    Atom A occupies the first tensor slot; ``order`` selects which atom
    flies first.  Raises ``RuntimeError`` if a reduced matrix leaks out of
    the X form, which would signal an implementation bug.
    """
    n, gt = check_params(n, gt, len(states))
    # ket 2a + b starts as |ab> with n photons, at window index 2
    re = np.zeros((_WINDOW, 4, 2, 2, len(states)))
    re[2, range(4), [0, 0, 1, 1], [0, 1, 0, 1]] = 1.0
    im = np.zeros_like(re)
    # the flying atom's axis is swapped into slot 2, where _rotate acts
    for axis in ((2, 3) if order is PassOrder.A_FIRST else (3, 2)):
        re, im = (x.swapaxes(2, axis) for x in
                  _rotate(re.swapaxes(2, axis), im.swapaxes(2, axis), n, gt))
    re, im = re.reshape(_WINDOW, 4, 4, -1), im.reshape(_WINDOW, 4, 4, -1)

    def traced(i, j):
        """tr_field(U|i><j|U^dagger) as (re, im), each shaped (4, 4, state)."""
        a_re, a_im, b_re, b_im = re[:, i, :, None], im[:, i, :, None], re[:, j, None], im[:, j, None]
        return sum(a_re * b_re + a_im * b_im), sum(a_im * b_re - a_re * b_im)

    rho_re, rho_im = 0.0, 0.0
    for i, j, w_re, w_im in ((0, 0, states.p11, 0.0), (1, 1, states.p22, 0.0),
                             (2, 2, states.p33, 0.0), (3, 3, states.p44, 0.0),
                             (1, 2, states.re_c23, states.im_c23),
                             (2, 1, states.re_c23, -states.im_c23)):
        o_re, o_im = traced(i, j)
        rho_re = rho_re + (w_re * o_re - w_im * o_im)
        rho_im = rho_im + (w_re * o_im + w_im * o_re)

    off_x = np.max([*np.hypot(rho_re, rho_im)[~_X_FORM],
                    np.hypot(rho_re[1, 2] - rho_re[2, 1], rho_im[1, 2] + rho_im[2, 1]),
                    *np.abs(rho_im[range(4), range(4)])], axis=0)
    leaking = off_x >= OFF_X_TOL
    if leaking.any():
        raise RuntimeError(
            f"off-X leakage {off_x[leaking][0]:g} exceeds {OFF_X_TOL:g}; "
            "the X form is preserved analytically, so this is a bug"
        )
    return make_xbatch(*(rho_re[range(4), range(4)]), rho_re[1, 2], rho_im[1, 2])


def sequential_pass(state: XState, params: EvolutionParams,
                    order: PassOrder = PassOrder.A_FIRST) -> XState:
    """Exact two-atom state after both atoms have crossed the cavity.

    The batch of one of :func:`sequential_pass_batch`.
    """
    return sequential_pass_batch(XBatch.of(state), [params.n], [params.gt], order)[0]
