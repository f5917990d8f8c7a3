import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from cavitycorr import make_xstate, measures
from cavitycorr.evolution import check_params
from cavitycorr.measures import PROB_FLOOR
from cavitycorr.xstate import make_xbatch

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def xstates(draw):
    """Valid X states, including boundary (pure / rank-deficient) cases."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(weights)
    if total <= 0.0:
        pops = [1.0, 0.0, 0.0, 0.0]
    else:
        pops = [w / total for w in weights]
    pops[3] = 1.0 - pops[0] - pops[1] - pops[2]
    if pops[3] < 0.0:  # round-off from the normalization
        pops[3] = 0.0
        pops[0] = 1.0 - pops[1] - pops[2]
    frac = draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    radius = math.sqrt(pops[1] * pops[2] * frac)
    c23 = radius * complex(math.cos(phase), math.sin(phase))
    return make_xstate(*pops, c23)


# States at the edges of the oracles' arithmetic: pure, rank-deficient,
# zero coherence, and a measurement outcome rarer than PROB_FLOOR.
DEGENERATE_STATES = {
    "|gg>": make_xstate(0, 0, 0, 1, 0),
    "|ee>": make_xstate(1, 0, 0, 0, 0),
    "Bell psi+": make_xstate(0, 0.5, 0.5, 0, 0.5),
    "maximally mixed": make_xstate(0.25, 0.25, 0.25, 0.25, 0),
    "zero coherence": make_xstate(0.1, 0.2, 0.3, 0.4, 0),
    "outcome below the floor": make_xstate(0.6, 0, 0.4 - 1e-15, 1e-15, 0),
}


def seeded_rng(seed: int = 20240817) -> np.random.Generator:
    return np.random.default_rng(seed)


def csv_fields(line: str) -> list[float]:
    """The 13 fields of a CSV data row as floats, checked to form a valid state.

    The 12-digit rounding can move the trace, the populations and
    |c23|^2 - p22*p33 by far less than 1e-9, so they are checked at 1e-9.
    """
    fields = [float(f) for f in line.split(",")]
    assert len(fields) == 13
    p11, p22, p33, p44, re_c23, im_c23 = fields[3:9]
    assert abs((((p11 + p22) + p33) + p44) - 1.0) <= 1e-9
    assert min(p11, p22, p33, p44) >= -1e-9
    assert abs(complex(re_c23, im_c23)) ** 2 <= p22 * p33 + 1e-9
    return fields


# The dense projector oracle of the brute-force kernel: the state as a 4x4
# matrix, and the measured conditional entropy built from B's projectors.

def as_matrix(state) -> np.ndarray:
    """Dense 4x4 complex matrix of an X state in the |11>,|10>,|01>,|00> basis."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = state.p11
    rho[1, 1] = state.p22
    rho[2, 2] = state.p33
    rho[3, 3] = state.p44
    rho[1, 2] = state.c23
    rho[2, 1] = np.conj(state.c23)
    return rho


def conditional_entropy_measured(state, theta: float, phi: float) -> float:
    """Average entropy of atom A conditioned on a projective measurement of atom B.

    B's first outcome is cos(theta)|0> + e^(i*phi) sin(theta)|1>, the second
    its orthocomplement.  For each outcome k the projected matrix
    P_k rho P_k is traced over B and normalized by the outcome probability;
    an outcome of probability 0 contributes nothing.  The oracle has no
    floor of its own, so it counts the rare outcomes that the package's
    ``PROB_FLOOR`` must keep.
    """
    ph = np.exp(1j * phi)
    kets = (np.array([ph * math.sin(theta), math.cos(theta)]),   # (|1>, |0>) components
            np.array([-ph * math.cos(theta), math.sin(theta)]))
    rho = as_matrix(state)
    total = 0.0
    for ket in kets:
        proj = np.kron(np.eye(2), np.outer(ket, ket.conj()))
        sub = proj @ rho @ proj
        p_k = np.trace(sub).real
        if p_k <= 0.0:
            continue
        rho_k = np.einsum("abcb->ac", sub.reshape(2, 2, 2, 2)) / p_k
        lams = np.linalg.eigvalsh(rho_k)
        lams = lams[lams > 0.0]
        total += p_k * float(-(lams * np.log2(lams)).sum())
    return total


# References of the oracles: the brute-force kernel as it was before it
# computed in place, and the Fock oracle on the five-photon window, with
# its own rotation.  Tests require the package to give the same bits,
# signed zeros included.

def _xlog2x_reference(v):
    live = v > 0.0
    return np.where(live, v * np.log2(np.where(live, v, 1.0)), 0.0)


def h_reference(x):
    """Binary entropy of each element, one new array per operation."""
    x = x.clip(0.0, 1.0)
    terms = _xlog2x_reference(np.array([x, 1.0 - x]))
    return 0.0 - terms[0] - terms[1]


def entropy_reference(pops, abs_c23, sin2_cos2, sin_cos):
    """``measures._entropy`` with one new array per operation."""
    off = sin_cos * abs_c23
    s11, s00 = sin2_cos2 * pops[0] + sin2_cos2[::-1] * pops[1]
    p_k = s11 + s00
    gap = np.sqrt(np.square(s11 - s00) + 4.0 * np.square(off))
    top = (p_k + gap) / np.maximum(2.0 * p_k, PROB_FLOOR)
    out = np.where(p_k > PROB_FLOOR, p_k * h_reference(top), 0.0)
    return out[0] + out[1]


def measured_entropy(states, theta):
    """The package's measured conditional entropy at the polar angles ``theta`` of B's basis.

    ``theta`` is 1-d, one angle per state, or 2-d, a row of angles per state.
    """
    theta = np.asarray(theta, dtype=float)
    pops, abs_c23 = measures._constants(states)
    if theta.ndim == 2:
        pops, abs_c23 = pops[..., None], abs_c23[:, None]
    return measures._entropy(pops, abs_c23, *measures._trig(theta))


# The reference carries every ket on the five photon numbers n-2 .. n+2;
# window index j holds photon number n - 2 + j.
_WINDOW = 5


def _rotate_window(re, im, n, gt):
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


def sequential_pass_reference(states, n, gt):
    """``fock.sequential_pass_batch`` on a five-photon window, traced over all of it.

    Each ket is carried on all five photon numbers that two passages can
    reach, with its own rotation, and each of the six ket pairs, (2, 1)
    included, is traced on its own and weighted by its complex weight, the
    populations as p + 0i.
    """
    n, gt = check_params(n, gt, len(states))
    re = np.zeros((_WINDOW, 4, 2, 2, len(states)))
    re[2, range(4), [0, 0, 1, 1], [0, 1, 0, 1]] = 1.0
    im = np.zeros_like(re)
    for axis in (2, 3):
        re, im = (x.swapaxes(2, axis) for x in
                  _rotate_window(re.swapaxes(2, axis), im.swapaxes(2, axis), n, gt))
    re, im = re.reshape(_WINDOW, 4, 4, -1), im.reshape(_WINDOW, 4, 4, -1)

    def traced(i, j):
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
    return make_xbatch(*(rho_re[range(4), range(4)]), rho_re[1, 2], rho_im[1, 2])
