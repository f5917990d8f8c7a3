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
configurations only where their photon numbers are equal: at the X form's
entries, the diagonal, (1, 2) and (2, 1).  Only these six are formed, and
only for the pairs (i, i) and (1, 2): tr_field(U|2><1|U^dagger) is the
adjoint of tr_field(U|1><2|U^dagger).  The populations weight their kets
as reals.  These shortcuts give the bits of the full trace of all six
pairs with complex weights: the terms they drop are exact zeros, and every
sum starts from +0.0, so a dropped zero cannot change even a zero's sign.
The leakage check covers what is formed: (2, 1) must be the adjoint of
(1, 2), and the diagonal real.

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
# Excited atoms in ket or configuration 2a + b: |ee>, |eg>, |ge>, |gg>.
_EXCITED = np.array([2, 1, 1, 0])
# The traced kets have equal excitations, so two configurations hold equal
# photon numbers where their own excitations are equal, at entries (_A, _B).
_A, _B = [0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]
_TRANSPOSED = [0, 1, 2, 3, 5, 4]  # the entry (b, a) of each entry (a, b)
# entry a of ket i and b of ket j for the traced pairs (i, j): the
# populations' (i, i), then (1, 2)
_I_A, _J_B = np.ix_([0, 1, 2, 3, 1], _A), np.ix_([0, 1, 2, 3, 2], _B)
# _SHIFT[k, b] = e_k - e_b: the photon number of |g b> in ket k, less n.
_SHIFT = np.subtract.outer(_EXCITED, [1, 0])[..., None]


def _rotate(re, im, c, s):
    """The interaction of the atom on axis 1 of kets shaped (ket, atom, atom, state).

    Level index 0 is excited.  The pair {|e b>, |g b>} of ket k turns by
    the angle whose cosine and sine are ``c[k, b]`` and ``s[k, b]``.
    """
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
    # in ket k, |g b> holds m = n + e_k - e_b photons: each atom turns the
    # pair {|e b>, |g b>} by sqrt(m)*gt, where m <= 0 turns by zero
    angle = np.sqrt(np.maximum(n + _SHIFT, 0)) * gt
    c, s = np.cos(angle), np.sin(angle)
    # the flying atom's axis is swapped into slot 1, where _rotate acts
    for axis in (1, 2):
        re, im = (x.swapaxes(1, axis) for x in
                  _rotate(re.swapaxes(1, axis), im.swapaxes(1, axis), c, s))
    re, im = re.reshape(4, 4, -1), im.reshape(4, 4, -1)
    # tr_field(U|i><j|U^dagger) at each entry (a, b), shaped (pair, entry, state)
    a_re, a_im, b_re, b_im = re[_I_A], im[_I_A], re[_J_B], im[_J_B]
    o_re, o_im = a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im
    p = np.stack([states.p11, states.p22, states.p33, states.p44])[:, None]
    # reduced over the pairs in their order, from +0.0
    rho_re = np.add.reduce(p * o_re[:4], axis=0, initial=0.0)
    rho_im = np.add.reduce(p * o_im[:4], axis=0, initial=0.0)
    # tr(U|2><1|U^dagger) is the adjoint of tr(U|1><2|U^dagger)
    c_re, c_im = o_re[4], o_im[4]
    for t_re, t_im, w_im in ((c_re, c_im, states.im_c23),
                             (c_re[_TRANSPOSED], -c_im[_TRANSPOSED], -states.im_c23)):
        rho_re = rho_re + (states.re_c23 * t_re - w_im * t_im)
        rho_im = rho_im + (states.re_c23 * t_im + w_im * t_re)

    off_x = np.max([np.hypot(rho_re[4] - rho_re[5], rho_im[4] + rho_im[5]),
                    *np.abs(rho_im[:4])], axis=0)
    leaking = off_x >= OFF_X_TOL
    if leaking.any():
        raise RuntimeError(
            f"off-X leakage {off_x[leaking][0]:g} exceeds {OFF_X_TOL:g}; "
            "the X form is preserved analytically, so this is a bug"
        )
    return make_xbatch(*rho_re[:4], rho_re[4], rho_im[4])


def sequential_pass(state: XState, params: EvolutionParams) -> XState:
    """Exact two-atom state after both atoms have crossed the cavity.

    The batch of one of :func:`sequential_pass_batch`.
    """
    return sequential_pass_batch(XBatch.of(state), [params.n], [params.gt])[0]
