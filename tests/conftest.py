import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from cavitycorr import make_xstate

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
