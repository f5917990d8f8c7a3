"""Exact sequential Jaynes-Cummings dynamics, four amplitudes per ket.

This is the ground-truth model: each atom in turn interacts with the
field, and the field is traced out at the end.  At exact resonance the
interaction turns each pair {|e,m>, |g,m+1>} by the angle sqrt(m+1)*gt,
so it is applied pair by pair, with no matrix exponential and no
truncation error.  Over the atom basis kets |ab, n> the two-atom state is
rho = sum_ij rho_ij tr_field(U|i><j|U^dagger).  Nothing here grows with n
or uses the closed-form coefficient table.

The interaction conserves excitations (excited atoms plus photons), so a
ket with e excited atoms holds in atom configuration a'b', with e' excited
atoms, only the photon number n + e - e'.  Each ket is therefore carried
as four amplitudes, one per configuration, and the field trace pairs two
configurations only where their photon numbers are equal.  Only the pairs
(i, i) and (1, 2) are traced: tr_field(U|2><1|U^dagger) is the adjoint of
tr_field(U|1><2|U^dagger), its atom axes swapped and its imaginary part
negated.  The populations weight their kets as reals.  Both shortcuts
give the bits of the six-pair trace with complex weights: the terms they
drop are exact zeros, and every sum starts from +0.0, so a dropped zero
cannot change even a zero's sign.

Complex amplitudes are kept as real and imaginary float arrays with one
element per state, and every sum has a fixed operand order, so a state's
result is bit-identical alone and inside any batch.
"""
from __future__ import annotations

import numpy as np

from .evolution import EvolutionParams, check_params
from .xstate import XBatch, XState, make_xbatch

# Above this the X form is not preserved and something is wrong with the
# implementation, not the input; the X form is closed under the dynamics.
OFF_X_TOL = 1e-12
# Where an X state may be nonzero: the diagonal and the |10>,|01> coherences.
_X_FORM = np.eye(4, dtype=bool)
_X_FORM[1, 2] = _X_FORM[2, 1] = True
# Excited atoms in ket or configuration 2a + b: |ee>, |eg>, |ge>, |gg>.
_EXCITED = np.array([2, 1, 1, 0])
# The traced kets have equal excitations, so two configurations hold
# equal photon numbers where their own excitations are equal.
_SAME_PHOTONS = np.equal.outer(_EXCITED, _EXCITED)[..., None]
# _SHIFT[k, b] = e_k - e_b: the photon number of |g b> in ket k, less n.
_SHIFT = np.subtract.outer(_EXCITED, [1, 0])[..., None]


def _rotate(re, im, n, gt):
    """The interaction of the atom on axis 1 of kets shaped (ket, atom, atom, state).

    Level index 0 is excited.  In ket k, |g b> holds m = n + e_k - e_b
    photons, so the pair {|e b>, |g b>} turns by sqrt(m)*gt, where m <= 0
    turns by zero.
    """
    angle = np.sqrt(np.maximum(n + _SHIFT, 0)) * gt
    c, s = np.cos(angle), np.sin(angle)
    e_re, e_im, g_re, g_im = re[:, 0], im[:, 0], re[:, 1], im[:, 1]
    # (e, g) -> (c e - i s g, -i s e + c g)
    return (np.stack([c * e_re + s * g_im, c * g_re + s * e_im], axis=1),
            np.stack([c * e_im - s * g_re, c * g_im - s * e_re], axis=1))


def sequential_pass_batch(states: XBatch, n, gt) -> XBatch:
    """Exact state ``i`` after both atoms have crossed the cavity at ``n[i]``, ``gt[i]``.

    Atom A occupies the first tensor slot and flies first.  The other order
    is the same physics with the atoms relabelled: swap p22 with p33 and
    conjugate c23 on the way in and out.  Raises ``RuntimeError`` if a
    reduced matrix leaks out of the X form, which would signal an
    implementation bug.
    """
    n, gt = check_params(n, gt, len(states))
    # ket 2a + b starts as |ab> with n photons
    re = np.zeros((4, 2, 2, len(states)))
    re[range(4), [0, 0, 1, 1], [0, 1, 0, 1]] = 1.0
    im = np.zeros_like(re)
    # the flying atom's axis is swapped into slot 1, where _rotate acts
    for axis in (1, 2):
        re, im = (x.swapaxes(1, axis) for x in
                  _rotate(re.swapaxes(1, axis), im.swapaxes(1, axis), n, gt))
    re, im = re.reshape(4, 4, -1), im.reshape(4, 4, -1)

    def traced(i, j):
        """tr_field(U|i><j|U^dagger) as (re, im), each shaped (4, 4, state)."""
        a_re, a_im, b_re, b_im = re[i, :, None], im[i, :, None], re[j, None], im[j, None]
        return (np.where(_SAME_PHOTONS, a_re * b_re + a_im * b_im, 0.0),
                np.where(_SAME_PHOTONS, a_im * b_re - a_re * b_im, 0.0))

    rho_re, rho_im = 0.0, 0.0
    for i, p in enumerate((states.p11, states.p22, states.p33, states.p44)):
        o_re, o_im = traced(i, i)
        rho_re = rho_re + p * o_re
        rho_im = rho_im + p * o_im
    # tr(U|2><1|U^dagger) is the adjoint of tr(U|1><2|U^dagger)
    c_re, c_im = traced(1, 2)
    for o_re, o_im, w_im in ((c_re, c_im, states.im_c23),
                             (c_re.swapaxes(0, 1), -c_im.swapaxes(0, 1), -states.im_c23)):
        rho_re = rho_re + (states.re_c23 * o_re - w_im * o_im)
        rho_im = rho_im + (states.re_c23 * o_im + w_im * o_re)

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


def sequential_pass(state: XState, params: EvolutionParams) -> XState:
    """Exact two-atom state after both atoms have crossed the cavity.

    The batch of one of :func:`sequential_pass_batch`.
    """
    return sequential_pass_batch(XBatch.of(state), [params.n], [params.gt])[0]
