import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycorr import (
    binary_entropy,
    classical_correlation_bruteforce,
    concurrence,
    discord_bruteforce,
    discord_closed,
    entropy_a,
    entropy_b,
    entropy_joint,
    make_xstate,
    mutual_information,
    SweepConfig,
    time_series,
    werner_state,
)
from cavitycorr import measures
from cavitycorr.xstate import XBatch, XState, make_xbatch
from cavitycorr.measures import _min_conditional_entropy
from cavitycorr.sweep import SWEEP_CHUNK
from cavitycorr.verify import _sampled_states, sample_xstate

import conftest
from conftest import (
    DEGENERATE_STATES,
    as_matrix,
    conditional_entropy_measured,
    entropy_at_z,
    entropy_reference,
    golden_min,
    grid_oracle_min,
    kernel_constants,
    kernel_trig,
    measured_entropy,
    mp_min_conditional_entropy,
    seeded_rng,
    xstates,
)

MIXED = make_xstate(0.25, 0.25, 0.25, 0.25, 0)
BELL = make_xstate(0, 0.5, 0.5, 0, 0.5)
CLASSICAL = make_xstate(0.5, 0, 0, 0.5, 0)  # perfectly correlated diagonal


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(np.array([0.5]))[0] == 1.0

    def test_degenerate_endpoints(self):
        assert (binary_entropy(np.array([0.0, 1.0])) == 0.0).all()

    def test_quarter(self):
        # -0.25 log2 0.25 - 0.75 log2 0.75, evaluated independently
        assert binary_entropy(np.array([0.25]))[0] == pytest.approx(0.811278, abs=1e-6)

    def test_roundoff_tolerated(self):
        assert binary_entropy(np.array([1.0 + 5e-13]))[0] == 0.0

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(np.array([x]))


class TestConcurrence:
    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_bell(self):
        assert concurrence(BELL) == 1.0

    @pytest.mark.parametrize("r", [0.0, 0.2, 1 / 3, 0.8, 1.0])
    def test_werner_formula(self, r):
        assert concurrence(werner_state(r)) == pytest.approx(
            max(0.0, (3 * r - 1) / 2), abs=1e-12)

    def test_matches_general_definition(self):
        # spin-flip construction on the dense matrix as the oracle
        sy = np.array([[0, -1j], [1j, 0]])
        yy = np.kron(sy, sy)
        rng = seeded_rng(21)
        for _ in range(50):
            s = sample_xstate(rng)
            rho = as_matrix(s)
            lams = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
            roots = np.sqrt(np.abs(np.sort(lams.real)[::-1]))
            expected = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
            assert concurrence(s) == pytest.approx(expected, abs=1e-10)


class TestEntropies:
    def test_joint_pure_and_mixed(self):
        assert entropy_joint(BELL) == pytest.approx(0.0, abs=1e-10)
        assert entropy_joint(MIXED) == pytest.approx(2.0, abs=1e-12)

    def test_joint_werner(self):
        expected = -(0.4 * math.log2(0.4) + 3 * 0.2 * math.log2(0.2))
        assert entropy_joint(werner_state(0.2)) == pytest.approx(expected, abs=1e-12)

    @given(xstates())
    def test_joint_range(self, s):
        assert -1e-12 <= entropy_joint(s) <= 2.0 + 1e-12

    def test_marginals(self):
        assert entropy_b(MIXED) == 1.0
        assert entropy_b(BELL) == 1.0
        assert entropy_b(make_xstate(1, 0, 0, 0, 0)) == 0.0
        for r in (0.0, 0.37, 1.0):
            assert entropy_b(werner_state(r)) == pytest.approx(1.0, abs=1e-12)
            assert entropy_a(werner_state(r)) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_asymmetry(self):
        s = make_xstate(0.5, 0.2, 0.2, 0.1, 0)
        h = binary_entropy(np.array([0.7]))[0]
        assert entropy_a(s) == pytest.approx(h, abs=1e-14)
        assert entropy_b(s) == pytest.approx(h, abs=1e-14)
        s = make_xstate(0.5, 0.3, 0.1, 0.1, 0)
        assert entropy_a(s) != entropy_b(s)


class TestMutualInformation:
    def test_known_values(self):
        assert mutual_information(MIXED) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(make_xstate(1, 0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-10)
        assert mutual_information(CLASSICAL) == pytest.approx(1.0, abs=1e-12)

    @given(xstates())
    def test_nonnegative(self, s):
        assert mutual_information(s) >= -1e-9


class TestConditionalEntropy:
    def test_maximally_mixed_any_basis(self):
        for theta, phi in ((0.0, 0.0), (0.7, 1.1), (math.pi / 2, 4.0)):
            value = conditional_entropy_measured(MIXED, theta, phi)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_bell_z_measurement(self):
        value = conditional_entropy_measured(BELL, 0.0, 0.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_pure_product(self):
        value = conditional_entropy_measured(make_xstate(1, 0, 0, 0, 0), 0.42, 2.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_fast_path_matches_projector_path(self):
        rng = seeded_rng(22)
        for _ in range(60):
            s = sample_xstate(rng)
            theta = float(rng.uniform(0, math.pi / 2))
            phi = float(rng.uniform(0, 2 * math.pi))
            general = conditional_entropy_measured(s, theta, phi)
            fast = float(measured_entropy(XBatch.of(s), [theta])[0])
            assert general == pytest.approx(fast, abs=1e-12)

    def test_outcome_relabeling_symmetry(self):
        # (theta, phi) -> (pi/2 - theta, phi + pi) swaps the two outcomes
        rng = seeded_rng(23)
        for _ in range(30):
            s = sample_xstate(rng)
            theta = float(rng.uniform(0, math.pi / 2))
            phi = float(rng.uniform(0, math.pi))
            direct = conditional_entropy_measured(s, theta, phi)
            swapped = conditional_entropy_measured(s, math.pi / 2 - theta, phi + math.pi)
            assert direct == pytest.approx(swapped, abs=1e-10)

    def test_phi_independence(self):
        # the only coherence links |10> and |01>, so the measurement phase
        # cancels; 2*pi periodicity in phi follows a fortiori
        s = sample_xstate(seeded_rng(24))
        ref = conditional_entropy_measured(s, 0.9, 0.0)
        for phi in (0.3, 2.2, 4.9, 2 * math.pi - 1e-9):
            value = conditional_entropy_measured(s, 0.9, phi)
            assert value == pytest.approx(ref, abs=1e-12)


class TestBruteForce:
    def test_classical_correlation_values(self):
        assert classical_correlation_bruteforce(MIXED)[0] == pytest.approx(0.0, abs=1e-9)
        assert classical_correlation_bruteforce(BELL)[0] == pytest.approx(1.0, abs=1e-9)
        assert classical_correlation_bruteforce(CLASSICAL)[0] == pytest.approx(1.0, abs=1e-9)

    def test_classical_argmin_deterministic(self):
        value1, theta1 = classical_correlation_bruteforce(werner_state(0.6))
        value2, theta2 = classical_correlation_bruteforce(werner_state(0.6))
        assert value1 == value2
        assert theta1 == theta2

    def test_discord_values(self):
        assert discord_bruteforce(MIXED) == pytest.approx(0.0, abs=1e-9)
        assert discord_bruteforce(CLASSICAL) == pytest.approx(0.0, abs=1e-9)
        assert discord_bruteforce(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_refinement_grid_insensitive(self):
        # the grid oracle at 128 and at 256 points may only move the minimum
        # marginally, and the route is never above either by more than
        # round-off
        rng = seeded_rng(25)
        states = XBatch.stack([sample_xstate(rng) for _ in range(100)])
        m, _ = _min_conditional_entropy(states)
        coarse, _ = grid_oracle_min(states, 128)
        fine, _ = grid_oracle_min(states, 256)
        assert (abs(coarse - fine) < 1e-5).all()
        assert (m <= np.minimum(coarse, fine) + TestHalfRange.REFERENCE_TOL).all()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


GRID_EDGE_STATES = {
    "pure |11>": make_xstate(1, 0, 0, 0, 0),
    "Bell psi+": BELL,
    "outcome below the floor at theta = 0 and pi/2": make_xstate(0.6, 0, 0.4 - 1e-15, 1e-15, 0),
    "|c23|^2 = p22*p33": make_xstate(0.1, 0.3, 0.2, 0.4,
                                     math.sqrt(0.3 * 0.2) * complex(math.cos(0.7), math.sin(0.7))),
}


def _interior_minima(states: XBatch) -> list[XState]:
    """The states whose grid-oracle minimum is below both end values by more than 1e-12."""
    m, _ = grid_oracle_min(states)
    ends = measured_entropy(states, np.broadcast_to([0.0, measures.THETA_MAX], (len(states), 2)))
    return [states[i] for i in np.flatnonzero(m < ends.min(axis=1) - 1e-12)]


# Sampler states with an interior minimum: 25 of these 30 000.
INTERIOR_STATES = _interior_minima(_sampled_states(seeded_rng(35).random((6, 30000))))[:12]


# A state with p11 = 1.1e-10 whose H falls from z = 0 to an interior
# minimum 0.0023 bits below both ends, rises, and turns down again just
# before z = 1, so H'(1) < 0.
HIDDEN_MINIMUM = make_xstate(1.1036876892572183e-10, 0.04337893140642684, 0.9258901390676622,
                             0.030730929415542275,
                             complex(-0.18086821902623995, 0.0034231610214954023))
# A state whose H is flat to round-off near z = 0 (H''(0) = -6e-18) and
# has its minimum 7.8e-13 bits below H(1) at z = 1 - 4.7e-11.
FLAT_NEAR_THETA_PI_4 = XState(4.70917549458481e-07, 3.950342721096804e-12, 0.99999952907455,
                              3.9500624993138445e-12,
                              complex(1.7700089590108573e-06, 2.110015105893208e-13))
# A state with p11 = 0: H'(1) is infinite and the closed form gives NaN
# there, while H rises towards z = 1 at every z a float can hold.
PURE_AT_THETA_ZERO = make_xstate(0.0, 0.01703078495794127, 0.9659384300841176,
                                 0.01703078495794108,
                                 complex(0.07469243130850013, -0.08976237715007578))


class TestBatchedMinimizer:
    @settings(max_examples=40)
    @given(states=st.lists(st.one_of(xstates(), st.sampled_from(
                               [*INTERIOR_STATES, HIDDEN_MINIMUM, PURE_AT_THETA_ZERO,
                                FLAT_NEAR_THETA_PI_4])),
                           min_size=1, max_size=9),
           chunk=st.integers(1, 10))
    def test_each_state_bit_identical_alone_and_in_any_batch(self, states, chunk):
        # batches mix states that take the interior solve, which stop after
        # different numbers of steps, states whose bracket comes from the
        # probes, and states that take an end point
        batch = XBatch.stack(states)
        whole = _min_conditional_entropy(batch)
        parts = [_min_conditional_entropy(batch[r:r + chunk])
                 for r in range(0, len(batch), chunk)]
        alone = [_min_conditional_entropy(XBatch.of(s)) for s in states]
        for pieces in (parts, alone):
            values = [np.concatenate(column) for column in zip(*pieces)]
            assert (_bits(values[0]) == _bits(whole[0])).all()
            assert (_bits(values[1]) == _bits(whole[1])).all()

    def test_interior_states_take_the_solve(self):
        # the pool the batches above draw from holds interior minima, found
        # at different numbers of solve steps
        states = XBatch.stack(INTERIOR_STATES)
        _, theta = _min_conditional_entropy(states)
        assert ((0.0 < theta) & (theta < measures.THETA_MAX)).all()
        slopes, steps = measures._slopes, set()
        for s in INTERIOR_STATES:
            calls = []
            with mock.patch.object(measures, "_slopes",
                                   lambda *args, **kw: calls.append(1) or slopes(*args, **kw)):
                _min_conditional_entropy(XBatch.of(s))
            steps.add(len(calls))
        assert len(steps) > 1

    def test_working_set_when_every_state_is_probed(self):
        # The route computes in arrays of one or two floats per state, of B =
        # 16 bytes a state: the slopes with curvature hold about 21B, the
        # coefficients and their copy for the solved states about 13B.  The
        # probe takes _PROBE_ROWS states at a time, each temporary under 64
        # KiB; on this chunk, probed all at once, its 26 probes held about
        # 330B.  The bound allows 64B.
        pool = [*INTERIOR_STATES, HIDDEN_MINIMUM]
        states = XBatch.stack([pool[i % len(pool)] for i in range(SWEEP_CHUNK)])
        _, theta = _min_conditional_entropy(states)
        # an interior angle comes only from a probed bracket
        assert ((0.0 < theta) & (theta < measures.THETA_MAX)).all()
        tracemalloc.start()
        try:
            _min_conditional_entropy(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 16 * SWEEP_CHUNK

    def test_golden_elements_stop_independently(self):
        # the oracle runs in lockstep too: brackets of different widths need
        # different step counts, and no element's result depends on the others
        lo = np.array([0.0, 0.0, 0.3, 1.0])
        hi = np.array([1e-3, 0.5, 0.31, 1.0 + 1e-7])
        centers = np.array([3e-4, 0.2, 0.3051, 1.0])

        def fun_for(c):
            return lambda t: (t - c) ** 2 + np.cos(t)

        t, ft = golden_min(fun_for(centers), lo, hi)
        for i in range(len(lo)):
            ti, fi = golden_min(fun_for(centers[i:i + 1]), lo[i:i + 1], hi[i:i + 1])
            assert _bits(ti) == _bits(t[i]) and _bits(fi) == _bits(ft[i])

    def test_scalar_entry_points_use_the_batch_result(self):
        s = sample_xstate(seeded_rng(29))
        m, theta = _min_conditional_entropy(XBatch.of(s))
        value, angle = classical_correlation_bruteforce(s)
        assert isinstance(value, float) and isinstance(angle, float)
        assert angle == theta[0]
        assert value == entropy_a(s) - m[0]
        discord = discord_bruteforce(s)
        assert isinstance(discord, float)
        assert discord == measures.discord_from(entropy_b(s), entropy_joint(s), m)[0]

    @pytest.mark.parametrize("grid_points", [64, 128, 4096])
    @pytest.mark.parametrize("name", sorted(GRID_EDGE_STATES))
    def test_grid_values_equal_one_angle_evaluations(self, name, grid_points):
        # the oracle's grid shares one set of trig values among all states;
        # each value must still be the one-state, one-angle evaluation
        state = GRID_EDGE_STATES[name]
        kernel, calls = conftest.entropy_reference, []

        def recording(*args):
            calls.append(kernel(*args))
            return calls[-1]

        with mock.patch.object(conftest, "entropy_reference", recording):
            grid_oracle_min(XBatch.of(state), grid_points)
        grid = calls[0]
        assert grid.shape == (1, grid_points)
        alone = [measured_entropy(XBatch.of(state), [theta])[0]
                 for theta in np.linspace(0.0, measures.THETA_MAX, grid_points)]
        assert (_bits(alone) == _bits(grid[0])).all()

    def test_grid_edge_states_are_edge_cases(self):
        floor = GRID_EDGE_STATES["outcome below the floor at theta = 0 and pi/2"]
        # B's outcome weights at theta = 0: p22 + p44 and p11 + p33
        assert 0.0 < floor.p22 + floor.p44 < measures.PROB_FLOOR
        for s in (GRID_EDGE_STATES["|c23|^2 = p22*p33"], GRID_EDGE_STATES["Bell psi+"]):
            assert abs(s.c23) ** 2 == pytest.approx(s.p22 * s.p33, rel=1e-15)

    def test_minimum_matches_projector_path_at_returned_basis(self):
        rng = seeded_rng(30)
        states = [sample_xstate(rng) for _ in range(200)]
        minima, thetas = _min_conditional_entropy(XBatch.stack(states))
        for s, m, theta in zip(states, minima, thetas):
            direct = conditional_entropy_measured(s, float(theta), 0.0)
            assert abs(direct - m) <= 1e-12


def full_range_min_conditional_entropy(states: XBatch) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the search on the full range [0, pi/2] that the half range replaced.

    A 128-point theta grid, then three re-centred golden-section rounds,
    on the theta-form reference kernel; returns ``(minimum, theta)`` per state.
    """
    pops, abs_c23 = kernel_constants(states)
    thetas = np.linspace(0.0, math.pi / 2, 128)
    vals = entropy_reference(pops[..., None], abs_c23[:, None], *kernel_trig(thetas[None]))
    i = np.argmin(vals, axis=1)
    theta, best = thetas[i], vals[np.arange(len(i)), i]
    dth = (math.pi / 2) / 127
    for _ in range(3):
        t, ft = golden_min(lambda t: entropy_reference(pops, abs_c23, *kernel_trig(t)),
                           np.maximum(0.0, theta - dth), np.minimum(math.pi / 2, theta + dth))
        better = ft < best
        theta, best = np.where(better, t, theta), np.where(better, ft, best)
    return best, theta


# The documented worst case of the closed form (TestDiscordClosed), before
# scaling to trace 1.
WORST_CASE = (2.07e-4, 0.02674, 0.94597, 0.02708, 0.14056)


def _near_worst_case(count: int) -> XBatch:
    """The documented worst case, each of its five values moved by up to 2 %, at trace 1."""
    v = np.array(WORST_CASE)[:, None] * (1.0 + 0.04 * (seeded_rng(33).random((5, count)) - 0.5))
    v /= v[:4].sum(axis=0)
    return make_xbatch(*v, np.zeros(count))


class TestHalfRange:
    # The measured entropy is mirror-symmetric, H(theta) = H(pi/2 - theta),
    # so the search covers [0, pi/4].  Bound fixed before measuring: 16 ulp
    # at 2 bits, 16 * 2**-51 = 7.1e-15, for two evaluations' round-off and
    # the rounding of pi/2 - theta.
    MIRROR_TOL = 16 * 2.0 ** -51
    # The half-range minimum against the full-range reference: two
    # evaluations' round-off plus the curvature term of ANGLE_TOL.
    REFERENCE_TOL = 1e-14

    def test_mirror_symmetry(self):
        rng = seeded_rng(32)
        states = _sampled_states(rng.random((6, 2000)))
        theta = rng.uniform(0.0, math.pi / 2, (2000, 16))
        gap = abs(measured_entropy(states, theta) - measured_entropy(states, math.pi / 2 - theta))
        assert gap.max() <= self.MIRROR_TOL

    @pytest.mark.parametrize("states", [
        _sampled_states(seeded_rng(34).random((6, 2000))),
        XBatch.stack(list(GRID_EDGE_STATES.values())),
        _near_worst_case(2000),
    ], ids=["seeded", "grid edge", "near the worst case"])
    def test_minimum_matches_full_range_reference(self, states):
        m, theta = _min_conditional_entropy(states)
        reference, _ = full_range_min_conditional_entropy(states)
        assert (abs(m - reference) <= self.REFERENCE_TOL).all()
        assert ((0.0 <= theta) & (theta <= measures.THETA_MAX)).all()


def _sign_changes(values: np.ndarray, band: float) -> np.ndarray:
    """Sign changes along each row of ``values``' differences; a difference
    no larger than ``band`` carries no sign."""
    diff = np.diff(values, axis=1)
    sign = np.where(abs(diff) > band, np.sign(diff), 0.0)
    # each position holds the last sign seen up to it, 0 before the first
    last = np.where(sign != 0.0, np.arange(sign.shape[1]), 0)
    held = np.take_along_axis(sign, np.maximum.accumulate(last, axis=1), axis=1)
    return ((held[:, 1:] != held[:, :-1]) & (held[:, :-1] != 0.0)).sum(axis=1)


# The theta-form kernel's error bound in bits (``entropy_reference`` in
# tests/conftest.py, the brute force's kernel before its z form), derived
# before it was measured.  Per
# outcome, 1 - top carries the rounding of top, at most 3 ulp of 1
# (3.3e-16), and x*log2(x) turns that into |log2 x + 1/ln 2| <= 55 times as
# much for x >= 2**-53: 1.8e-14, and 3.6e-14 for both outcomes.  An outcome
# below PROB_FLOOR is dropped, at most 1e-14 bits, and at most one of the two
# can be (they sum to 1).  The trig of THETA_MAX adds about 1e-15.  Total
# 4.7e-14, rounded up.
KERNEL_TOL = 5e-14
# The z form's error bound in bits (``measures._slopes``), derived before
# it was measured, for states whose |c23|^2 is at most 0.85 p22*p33
# (HIDDEN_MINIMUM's is 0.81): the determinant's last term p11*p44 +
# p22*p33 - |c23|^2 then carries at most 40u after its cancellation,
# u = 2**-53.  Per outcome H_k = t(p) - t(l+) - t(l-), t(x) = x*log2(x).
# A relative error delta of x moves t(x) by at most x*(|log2 x| + 1/ln 2)
# *delta, and t's own log2 and product add at most 2u|t(x)|.  Over both
# outcomes the two p sum to 1, the two l+ to at most 1 and the two l- to
# at most 1/2; the p add at most 1 to the sum of x*|log2 x|, and each
# eigenvalue at most 1/(e ln 2) = 0.53.  p (two products and a sum) and l+
# (through g's square root of a sum) carry delta <= 20u: (1 + 1.06 + 2/ln 2)
# *20u = 99u.  l- = det/l+ (three products, two sums and a quotient after
# the term above) carries delta <= 50u: (1.06 + 0.5/ln 2)*50u = 89u.  The six
# terms' own error is at most 2u*3 = 6u, and the five subtractions and
# sums of values at most 2 add 10u: 204u = 2.3e-14.  A solved interior root
# adds only the second order of its last step.  Rounded up.
Z_FORM_TOL = 2.5e-14

# The six sweeps at gt <= 60 on which the claim below was first counted.
CLAIM_SWEEPS = [(10, 0.2), (5, 0.0), (10, 0.5), (50, 0.8), (2, 0.5), (0, 1.0)]


def _near_pure_states(count: int, seed: int) -> XBatch:
    """Sampler states whose p11 (first half) or p44 (second half) is scaled
    by 10**-U(0, 18), one in five to 0, at trace 1: one outcome's
    conditional state at theta = 0 is nearly pure."""
    rng = seeded_rng(seed)
    u = rng.random((6, count))
    w = -np.log(u[:4])
    scale = 10.0 ** -rng.uniform(0.0, 18.0, count) * (rng.random(count) >= 0.2)
    half = count // 2
    w[0, :half] *= scale[:half]
    w[3, half:] *= scale[half:]
    w /= w.sum(axis=0)
    c23 = np.sqrt(w[1] * w[2] * u[4]) * np.exp(2j * math.pi * u[5])
    return make_xbatch(*w, c23.real.copy(), c23.imag.copy())


def _purity_ratio(states: XBatch) -> np.ndarray:
    """The smaller of the two outcomes' min(eigenvalue)/weight at theta = 0."""
    return np.minimum(np.minimum(states.p11, states.p33) / (states.p11 + states.p33),
                      np.minimum(states.p22, states.p44) / (states.p22 + states.p44))


def _purer_outcomes() -> XBatch:
    """Two sampler-like states per k = 2 .. 14 whose p11 is 10**-k of p33,
    then two per k whose p44 is 10**-k of p22, with |c23|^2 at most
    0.85 p22*p33: one outcome's conditional state at theta = 0 is nearly
    pure, and its small eigenvalue near 10**-k of its weight."""
    rng = seeded_rng(45)
    k = np.repeat(np.arange(2.0, 15.0), 2)
    u = rng.random((6, 2 * len(k)))
    w = -np.log(u[:4])
    w[0, :len(k)] = w[2, :len(k)] * 10.0 ** -k
    w[3, len(k):] = w[1, len(k):] * 10.0 ** -k
    w /= w.sum(axis=0)
    c23 = np.sqrt(w[1] * w[2] * 0.85 * u[4]) * np.exp(2j * math.pi * u[5])
    return make_xbatch(*w, c23.real.copy(), c23.imag.copy())


class TestOneStationaryPoint:
    """The claim the brute force rests on: write the measured conditional
    entropy H as a function of z = cos(2 theta) on [0, 1]; on (0, 1) it has
    at most one stationary point, except where H is flat to round-off, and
    except where an outcome's conditional state at theta = 0 is nearly pure
    (``measures.NEAR_PURE``).  There -lambda*log(lambda) of its small
    eigenvalue can turn H down just before z = 1, after an interior
    minimum and maximum; the route probes those states.

    H is counted on a 401-point z grid and on 1 - 10**-3 .. 1 - 10**-15
    near z = 1.  A difference of two neighbouring values no larger than
    ``DEAD_BAND`` carries no sign: that is twice the kernel's own error
    bound ``KERNEL_TOL``.  So "flat to round-off" is a difference inside
    the dead band, and at most one sign change of the differences means at
    most one interior extremum.
    """
    DEAD_BAND = 2 * KERNEL_TOL
    Z = np.union1d(np.linspace(0.0, 1.0, 401), 1.0 - np.logspace(-3.0, -15.0, 37))

    def _changes(self, states):
        return np.concatenate([
            _sign_changes(entropy_at_z(block, np.broadcast_to(self.Z, (len(block), len(self.Z)))),
                          self.DEAD_BAND)
            for block in (states[r:r + 1024] for r in range(0, len(states), 1024))])

    def _assert_claim(self, states):
        changes = self._changes(states)
        assert changes.max() <= 1, states[int(np.argmax(changes))]

    def test_sampler_states(self):
        self._assert_claim(_sampled_states(seeded_rng(40).random((6, 20000))))

    @pytest.mark.parametrize("n, r", CLAIM_SWEEPS)
    def test_sweep_states(self, n, r):
        self._assert_claim(time_series(SweepConfig(n=n, r=r, gt_max=60.0, steps=6000)).states)

    def test_near_pure_states_outside_the_exception(self):
        states = _near_pure_states(20000, 42)
        keep = np.flatnonzero(_purity_ratio(states) >= measures.NEAR_PURE)
        assert len(keep) > 1000
        self._assert_claim(make_xbatch(*(getattr(states, f)[keep] for f in
                                         ("p11", "p22", "p33", "p44", "re_c23", "im_c23"))))

    def test_the_exception_exists(self):
        # two sign changes, and the route still finds the interior minimum
        state = XBatch.of(HIDDEN_MINIMUM)
        assert self._changes(state).tolist() == [2]
        assert _purity_ratio(state)[0] < measures.NEAR_PURE
        for state in (HIDDEN_MINIMUM, PURE_AT_THETA_ZERO):
            (m,), (theta,) = _min_conditional_entropy(XBatch.of(state))
            (oracle,), _ = grid_oracle_min(XBatch.of(state))
            ends = measured_entropy(XBatch.of(state), [[0.0, measures.THETA_MAX]])[0]
            assert 0.0 < theta < measures.THETA_MAX and m < ends.min() - 1e-5
            assert m <= oracle + TestHalfRange.REFERENCE_TOL

    def test_counter_sees_two_extrema(self):
        # a row that falls, rises and falls again changes sign twice; steps
        # inside the dead band change nothing
        rows = np.array([[3.0, 2.0, 1.0, 2.0, 0.5], [1.0, 1.0 + 5e-14, 1.0, 1.0 - 5e-14, 1.0]])
        assert _sign_changes(rows, self.DEAD_BAND).tolist() == [2, 0]


def _readme_sweep_states(every: int = 25) -> XBatch:
    """Every ``every``-th state of the README's evolve and envelope sweeps."""
    return XBatch.stack([
        s for n, r, gt_max, steps in ((10, 0.2, 50.0, 5000), (5, 0.0, 60.0, 6000))
        for s in time_series(SweepConfig(n=n, r=r, gt_max=gt_max, steps=steps)).states[::every]])


class TestEndPointRoute:
    """The route: H at both end points, and a root of H' only where the
    signs of H''(0) and H'(1) show an interior minimum."""

    # Second-order differences of the kernel, with step 1e-6 for H' and
    # 1e-4 for H'': round-off about KERNEL_TOL/1e-6 and KERNEL_TOL/1e-8,
    # truncation about 1e-12 times the third derivative and 1e-9 times the
    # fourth.  Near a nearly pure outcome those grow like inverse powers of
    # its small eigenvalue, so H' takes the smaller step.  The bound is
    # 1e-5 relative to 1 + |value|.
    STEPS = 1e-6, 1e-4
    FD_TOL = 1e-5

    def _kernel_slopes(self, states, z):
        # H' and H'' in nats from the kernel's values about z
        (h1, h2), ln2 = self.STEPS, math.log(2.0)
        v = entropy_at_z(states, np.stack([z - h1, z + h1, z - h2, z, z + h2], axis=1)) * ln2
        return (v[:, 1] - v[:, 0]) / (2 * h1), (v[:, 4] - 2 * v[:, 3] + v[:, 2]) / h2**2

    def test_slopes_match_finite_differences(self):
        rng = seeded_rng(36)
        states = _sampled_states(rng.random((6, 500)))
        z = rng.uniform(0.05, 0.95, len(states))
        _, first, second = measures._slopes(measures._z_coefficients(states), 1.0 - z)
        fd_first, fd_second = self._kernel_slopes(states, z)
        assert (abs(first - fd_first) <= self.FD_TOL * (1.0 + abs(first))).all()
        assert (abs(second - fd_second) <= self.FD_TOL * (1.0 + abs(second))).all()

    def test_gate_slopes_match_finite_differences(self):
        # H''(0) by the central difference (z = -h is the mirror angle), and
        # H'(1) by the one-sided second-order difference
        states = XBatch.stack([*_sampled_states(seeded_rng(37).random((6, 500))),
                               *INTERIOR_STATES])
        coefficients = measures._z_coefficients(states)
        _, _, curv0 = measures._slopes(coefficients, np.ones(len(states)))
        _, slope1, _ = measures._slopes(coefficients, np.zeros(len(states)))
        _, fd_curv0 = self._kernel_slopes(states, np.zeros(len(states)))
        h = self.STEPS[0]
        v = entropy_at_z(states, np.broadcast_to([1.0 - 2 * h, 1.0 - h, 1.0], (len(states), 3)))
        fd_slope1 = (3 * v[:, 2] - 4 * v[:, 1] + v[:, 0]) / (2 * h) * math.log(2.0)
        assert (abs(curv0 - fd_curv0) <= self.FD_TOL * (1.0 + abs(curv0))).all()
        assert (abs(slope1 - fd_slope1) <= self.FD_TOL * (1.0 + abs(slope1))).all()

    def test_value_matches_the_theta_form(self):
        # H of the z form against the theta form at the same z, exact in
        # both, at the end points and inside; each form within its bound
        rng = seeded_rng(46)
        u = rng.random((6, 2000))
        u[4] *= 0.85   # |c23|^2 <= 0.85 p22*p33, as Z_FORM_TOL assumes
        states = _sampled_states(u)
        z = np.concatenate([np.broadcast_to([0.0, 1.0], (len(states), 2)),
                            rng.uniform(0.0, 1.0, (len(states), 6))], axis=1)
        value, _, _ = measures._slopes(measures._z_coefficients(states), (1.0 - z).T)
        assert (abs(value.T - entropy_at_z(states, z)) <= KERNEL_TOL + Z_FORM_TOL).all()

    def test_end_point_ties_go_to_theta_zero(self):
        # these states have the same kernel value, to the bit, at both ends
        states = XBatch.stack([DEGENERATE_STATES[k] for k in
                               ("|gg>", "|ee>", "Bell psi+", "maximally mixed")])
        ends = measured_entropy(states, np.broadcast_to([0.0, measures.THETA_MAX], (4, 2)))
        assert (ends[:, 0] == ends[:, 1]).all()
        m, theta = _min_conditional_entropy(states)
        assert (theta == 0.0).all() and (_bits(m) == _bits(ends[:, 0])).all()

    @pytest.mark.parametrize("states", [
        lambda: _sampled_states(seeded_rng(38).random((6, 3000))),
        _readme_sweep_states,
        lambda: XBatch.stack([*GRID_EDGE_STATES.values(), *DEGENERATE_STATES.values(),
                              HIDDEN_MINIMUM, PURE_AT_THETA_ZERO, FLAT_NEAR_THETA_PI_4]),
        lambda: _near_worst_case(500),
        lambda: _near_pure_states(4000, 43),
        *(lambda n=n, r=r: time_series(SweepConfig(n=n, r=r, gt_max=60.0, steps=6000)).states
          for n, r in CLAIM_SWEEPS),
    ], ids=["seeded", "README sweeps", "edge states", "near the worst case", "nearly pure",
            *(f"sweep n={n} r={r}" for n, r in CLAIM_SWEEPS)])
    def test_never_above_the_grid_oracle(self, states):
        states = states()
        m, theta = _min_conditional_entropy(states)
        oracle, _ = grid_oracle_min(states)
        assert (m <= oracle + TestHalfRange.REFERENCE_TOL).all()
        assert ((0.0 <= theta) & (theta <= measures.THETA_MAX)).all()

    @given(xstates())
    def test_never_above_the_grid_oracle_on_any_state(self, s):
        # pure, rank-deficient and boundary states included; where H is of
        # order 1e-13 the oracle's many points find the kernel's own
        # round-off, so the bound is the kernel's, KERNEL_TOL
        (m,), _ = _min_conditional_entropy(XBatch.of(s))
        (oracle,), _ = grid_oracle_min(XBatch.of(s))
        assert m <= oracle + KERNEL_TOL


class TestMpmathMinimum:
    """The route against the minimum of H at 50 digits
    (``mp_min_conditional_entropy`` in ``tests/conftest.py``), to
    ``KERNEL_TOL``, the kernel's own error bound, fixed before measuring."""

    @pytest.mark.parametrize("states", [
        lambda: _sampled_states(seeded_rng(39).random((6, 100))),
        lambda: XBatch.stack(INTERIOR_STATES),
        lambda: _readme_sweep_states(100),
        lambda: XBatch.stack([*GRID_EDGE_STATES.values(), *DEGENERATE_STATES.values(),
                              HIDDEN_MINIMUM, PURE_AT_THETA_ZERO, FLAT_NEAR_THETA_PI_4]),
        lambda: _near_worst_case(40),
        lambda: _near_pure_states(40, 44),
    ], ids=["seeded", "seeded interior minima", "README sweeps", "edge states",
            "near the worst case", "nearly pure"])
    def test_route_matches_the_mpmath_minimum(self, states):
        pytest.importorskip("mpmath")
        states = states()
        m, _ = _min_conditional_entropy(states)
        want = np.array([mp_min_conditional_entropy(s)[0] for s in states])
        assert (abs(m - want) <= KERNEL_TOL).all()

    def test_nearly_pure_outcomes_within_the_z_form_bound(self):
        # p11 or p44 from 1e-2 down to 1e-14 of its partner, and the state
        # whose minimum hides behind H'(1) < 0
        pytest.importorskip("mpmath")
        states = XBatch.stack([*_purer_outcomes(), HIDDEN_MINIMUM])
        assert (states.abs2_c23() <= 0.85 * states.p22 * states.p33).all()
        m, _ = _min_conditional_entropy(states)
        want = np.array([mp_min_conditional_entropy(s)[0] for s in states])
        assert (abs(m - want) <= Z_FORM_TOL).all()


def test_rare_outcome_counts():
    # B is found in its ground state with probability 1e-12 at theta = 0, and
    # that outcome adds 1e-12 bits: the 12th digit of a CSV field of order 1.
    # Below PROB_FLOOR = 1e-14 an outcome may add at most 1e-14 bits, so
    # both routes must count it, as the dense oracle does: the brute force's
    # z form at y = 1 - z = 0, and the closed form.
    s = make_xstate(0.5, 5e-13, 0.5 - 1e-12, 5e-13, 0)
    want = conditional_entropy_measured(s, 0.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):   # H' and H'' there are not finite
        value, _, _ = measures._slopes(measures._z_coefficients(XBatch.of(s)), np.zeros(1))
    assert abs(value[0] - want) <= 1e-14
    assert abs(measures.closed_min_conditional_entropy(s) - want) <= 1e-14


def test_discord_from_sets_only_roundoff_to_zero():
    # [-1e-9, 0) is round-off and becomes exactly +0.0; a larger deficit
    # stays, so a real fault shows to the callers' checks
    assert _bits(measures.discord_from(0.0, 5e-10, 0.0)) == _bits(0.0)
    assert measures.discord_from(0.0, 2e-9, 0.0) == -2e-9
    assert measures.discord_from(0.0, 1e-4, 0.0) == -1e-4


class TestDiscordClosed:
    def test_known_values(self):
        assert discord_closed(MIXED) == pytest.approx(0.0, abs=1e-9)
        assert discord_closed(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_states_have_zero_discord(self):
        rng = seeded_rng(26)
        for _ in range(50):
            w = -np.log(rng.random(4))
            w /= w.sum()
            assert discord_closed(make_xstate(*w, 0)) <= 1e-9

    def test_conjugation_invariance(self):
        rng = seeded_rng(27)
        for _ in range(50):
            s = sample_xstate(rng)
            t = make_xstate(s.p11, s.p22, s.p33, s.p44, np.conj(s.c23))
            assert abs(discord_closed(s) - discord_closed(t)) < 1e-12
            assert abs(concurrence(s) - concurrence(t)) < 1e-12

    def test_against_bruteforce_bulk(self):
        # closed form must stay within the known worst-case bound of the
        # two-candidate minimum, plus grid slack; the 300 states are the
        # ones 300 sample_xstate calls would draw
        states = _sampled_states(seeded_rng(28).random((300, 6)).T)
        m, _ = _min_conditional_entropy(states)
        brute = measures.discord_from(entropy_b(states), entropy_joint(states), m)
        mi = mutual_information(states)
        assert (brute <= mi + 1e-9).all()
        assert (entropy_a(states) - m <= mi + 1e-9).all()
        assert (abs(discord_closed(states) - brute) <= 0.0021 + 5e-4).all()

    def test_documented_worst_case(self):
        # the state of the module docstring, populations and |c23| scaled
        # to trace 1: the closed form's error there is the stated bound,
        # and the brute-force angle really attains the brute-force minimum;
        # the search returns the mirror, in [0, pi/4], of the angle 1.2673
        v = WORST_CASE
        total = sum(v[:4])
        s = make_xstate(*(x / total for x in v))
        assert discord_closed(s) - discord_bruteforce(s) >= 0.00294
        (m,), (theta,) = _min_conditional_entropy(XBatch.of(s))
        assert theta == pytest.approx(math.pi / 2 - 1.2673, abs=1e-4)
        assert conditional_entropy_measured(s, theta, 0.0) == pytest.approx(m, abs=1e-12)

    @given(xstates())
    def test_range_and_ordering(self, s):
        d = discord_closed(s)
        assert 0.0 <= d <= 1.0 + 1e-9
        assert d <= mutual_information(s) + 1e-9


# Unvalidated states with a NaN or infinite field, as direct construction
# allows; one of each field kind.
NONFINITE_STATES = [
    XState(math.nan, 0.25, 0.25, 0.25, 0.1),
    XState(0.25, math.inf, 0.25, 0.25, 0.0),
    XState(0.25, 0.25, 0.25, -math.inf, 0.1j),
    XState(0.25, 0.25, 0.25, 0.25, complex(math.nan, 0.0)),
    XState(0.25, 0.25, 0.25, 0.25, complex(0.0, math.inf)),
]


def _outcome(closed_form, x):
    """The bits of ``closed_form(x)``, or the text of the ``ValueError`` it raised."""
    try:
        with np.errstate(all="ignore"):   # the values are compared, not numpy's warnings
            return _bits(closed_form(x)).tolist()
    except ValueError as exc:
        return str(exc)


def _element_0(closed_form):
    """``closed_form`` on the batch of one of its state, element 0 of the result."""
    return lambda state: closed_form(XBatch.of(state))[0]


@pytest.mark.parametrize("closed_form", [
    concurrence, entropy_a, entropy_b, entropy_joint, mutual_information,
    measures.closed_min_conditional_entropy, discord_closed,
], ids=lambda f: f.__name__)
def test_one_state_equals_element_0_of_its_batch_of_one(closed_form):
    # same bits or the same exception, for valid states and for NaN and inf
    for x in [*_sampled_states(seeded_rng(31).random((6, 100))), *NONFINITE_STATES]:
        assert _outcome(closed_form, x) == _outcome(_element_0(closed_form), x), x
