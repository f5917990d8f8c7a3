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


# References of the oracles: the measured conditional entropy in the theta
# form that the brute force used before it worked in z alone, and the Fock
# oracle on the five-photon window, with its own rotation.  The theta form
# is the grid oracle's kernel and the finite-difference tests' function, so
# neither checks the package's z form against itself.

def _xlog2x_reference(v):
    live = v > 0.0
    return np.where(live, v * np.log2(np.where(live, v, 1.0)), 0.0)


def h_reference(x):
    """Binary entropy of each element, one new array per operation."""
    x = x.clip(0.0, 1.0)
    terms = _xlog2x_reference(np.array([x, 1.0 - x]))
    return 0.0 - terms[0] - terms[1]


def kernel_constants(states):
    """Each state's populations ``[[p11, p33], [p22, p44]]`` and its |c23|.

    Shaped to broadcast against one angle per state: the populations as
    (2, 2, 1, states), |c23| as (states,).
    """
    pops = np.array([[states.p11, states.p33], [states.p22, states.p44]], dtype=float)
    return pops[:, :, None], states.abs_c23()


def kernel_trig(theta):
    """``[sin^2, cos^2]`` of the angles ``theta``, stacked along a new first axis, and sin*cos."""
    sin_cos = np.array([np.sin(theta), np.cos(theta)])
    return np.square(sin_cos), sin_cos[0] * sin_cos[1]


def entropy_reference(pops, abs_c23, sin2_cos2, sin_cos):
    """Measured conditional entropy from :func:`kernel_constants` and :func:`kernel_trig`.

    The result has the broadcast shape of the states' and the angles'
    arrays.  Each outcome's conditional state of A has the diagonal
    sin^2 * pops[0] + cos^2 * pops[1] (at theta = 0: B found in its ground
    state, then excited) and the off-diagonal magnitude sin*cos*|c23|;
    an outcome below ``PROB_FLOOR`` adds nothing.
    """
    off = sin_cos * abs_c23
    s11, s00 = sin2_cos2 * pops[0] + sin2_cos2[::-1] * pops[1]
    p_k = s11 + s00
    gap = np.sqrt(np.square(s11 - s00) + 4.0 * np.square(off))
    top = (p_k + gap) / np.maximum(2.0 * p_k, PROB_FLOOR)
    out = np.where(p_k > PROB_FLOOR, p_k * h_reference(top), 0.0)
    return out[0] + out[1]


def measured_entropy(states, theta):
    """The theta-form measured conditional entropy at the polar angles ``theta`` of B's basis.

    ``theta`` is 1-d, one angle per state, or 2-d, a row of angles per state.
    """
    theta = np.asarray(theta, dtype=float)
    pops, abs_c23 = kernel_constants(states)
    if theta.ndim == 2:
        pops, abs_c23 = pops[..., None], abs_c23[:, None]
    return entropy_reference(pops, abs_c23, *kernel_trig(theta))


def entropy_at_z(states, z):
    """The theta-form measured conditional entropy at z = cos(2 theta), a row of points per state.

    The trig comes from z itself: sin^2 = (1 - z)/2, cos^2 = (1 + z)/2 and
    sin*cos = sqrt((1 - z)(1 + z))/2, so the points are exact in z.
    """
    z = np.asarray(z, dtype=float)
    pops, abs_c23 = kernel_constants(states)
    trig = np.array([(1.0 - z) / 2.0, (1.0 + z) / 2.0]), np.sqrt((1.0 - z) * (1.0 + z)) / 2.0
    return entropy_reference(pops[..., None], abs_c23[:, None], *trig)


# The grid-and-golden-section search that the brute force used before its
# route from the end points: a GRID_POINTS-point theta grid on [0, THETA_MAX],
# then one golden-section round around the best grid point, in lockstep over
# the batch.  It is the route's oracle: its minimum is a value of the kernel
# at a point it found, so the route may lie below it but not above it by more
# than round-off.

# Angular tolerance of the golden-section refinement stage.
ANGLE_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the oracle's theta grid on [0, THETA_MAX].
GRID_POINTS = 64
# Grid values evaluated per kernel call in the grid stage: 64 states of a
# 64-point grid, so each of its (2, 64, 64) temporaries takes 64 KiB.
_GRID_VALUES = 64 * 64


def golden_min(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def grid_min(pops, abs_c23, thetas, trig) -> tuple[np.ndarray, np.ndarray]:
    """Each state's grid angle of least measured entropy, and that entropy.

    ``pops`` and ``abs_c23`` are a block of rows of :func:`kernel_constants`,
    with a trailing axis for the angles; ``trig`` is
    ``kernel_trig(thetas[None])``.  Ties go to the smallest angle.
    """
    vals = entropy_reference(pops, abs_c23, *trig)
    i = np.argmin(vals, axis=1)
    return thetas[i], vals[np.arange(len(i)), i]


def grid_oracle_min(states, grid_points: int = GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """``(minimum, theta)`` per state from the grid and one golden-section round.

    Each state's ``grid_points``-point grid is one row of a 2-d array,
    evaluated a block of rows at a time; the row-wise argmin is refined by
    one golden-section round over the grid intervals beside it.
    """
    pops, abs_c23 = kernel_constants(states)
    thetas = np.linspace(0.0, measures.THETA_MAX, grid_points)
    trig = kernel_trig(thetas[None])   # one row of angles, shared by every row of states
    rows = max(1, _GRID_VALUES // grid_points)
    theta, best = (np.concatenate(parts) for parts in zip(*(
        grid_min(pops[..., r:r + rows, None], abs_c23[r:r + rows, None], thetas, trig)
        for r in range(0, len(states), rows))))
    dth = measures.THETA_MAX / (grid_points - 1)
    t, ft = golden_min(lambda t: entropy_reference(pops, abs_c23, *kernel_trig(t)),
                       np.maximum(0.0, theta - dth), np.minimum(measures.THETA_MAX, theta + dth))
    better = ft < best
    return np.where(better, ft, best), np.where(better, t, theta)


# The minimum of H(z) on [0, 1] at 50 digits, from a state's six elements.
# It does not lean on the route's claim: H' is evaluated on a scan of
# (0, 1), 2**-1 .. 2**-19 near 0, 1/16 .. 15/16, and 1 - 2**-2 .. 1 - 2**-52
# near 1, and a bracketing findroot refines every rise of its sign.  Tests
# call it after ``pytest.importorskip("mpmath")``.

def mp_min_conditional_entropy(state, digits: int = 50) -> tuple[float, float]:
    """``(minimum of H in bits, z where it is)`` of one state, at ``digits`` digits."""
    import mpmath

    with mpmath.workdps(digits):
        p11, p22, p33, p44 = (mpmath.mpf(float(x)) for x in (state.p11, state.p22,
                                                             state.p33, state.p44))
        c2 = mpmath.mpf(state.c23.real) ** 2 + mpmath.mpf(state.c23.imag) ** 2
        u, v, x, y = p22 + p44, p11 + p33, p11 - p33, p22 - p44

        def outcomes(z):
            # each outcome's weight p, its eigenvalues l+ and l-, and the
            # z-derivatives of p and of g = l+ - l-
            for sign in (1, -1):
                p = ((u + v) + sign * (u - v) * z) / 2
                d = ((x + y) + sign * (y - x) * z) / 2
                g = mpmath.sqrt(d * d + (1 - z * z) * c2)
                dg = (d * sign * (y - x) / 2 - z * c2) / g if g > 0 else None
                yield p, (p + g) / 2, (p - g) / 2, sign * (u - v) / 2, dg

        def eta(t):
            return -t * mpmath.log(t) if t > 0 else mpmath.mpf(0)

        def h(z):
            return sum(eta(lp) + eta(lm) - eta(p) for p, lp, lm, _, _ in outcomes(z)) \
                / mpmath.log(2)

        def slope(z):
            # H'(z) in nats; None where an eigenvalue or g vanishes
            total = mpmath.mpf(0)
            for p, lp, lm, dp, dg in outcomes(z):
                if dg is None or lm <= 0 or p <= 0:
                    return None
                total -= ((dp + dg) * mpmath.log(lp) + (dp - dg) * mpmath.log(lm)) / 2 \
                    - dp * mpmath.log(p)
            return total

        scan = sorted({*(mpmath.mpf(2) ** -k for k in range(1, 20, 2)),
                       *(mpmath.mpf(j) / 16 for j in range(1, 16)),
                       *(1 - mpmath.mpf(2) ** -k for k in range(2, 53, 2))})
        with mpmath.workdps(30):   # the signs need fewer digits
            signs = [(z, slope(z)) for z in scan]
        candidates = [(h(mpmath.mpf(0)), 0.0), (h(mpmath.mpf(1)), 1.0)]
        for (a, fa), (b, fb) in zip(signs, signs[1:]):
            if fa is not None and fb is not None and fa < 0 < fb:
                root = mpmath.findroot(slope, (a, b), solver="anderson")
                candidates.append((h(root), float(root)))
        value, z = min(candidates, key=lambda c: c[0])
        return float(value), z


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
