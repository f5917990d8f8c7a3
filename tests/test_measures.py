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
    werner_state,
)
from cavitycorr import measures, verify
from cavitycorr.xstate import XBatch, XState, make_xbatch
from cavitycorr.measures import _golden_min, _min_conditional_entropy
from cavitycorr.verify import _sampled_states, sample_xstate

from conftest import (
    DEGENERATE_STATES,
    as_matrix,
    conditional_entropy_measured,
    entropy_reference,
    h_reference,
    measured_entropy,
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
        # doubling the grid may only move the minimum marginally
        rng = seeded_rng(25)
        states = XBatch.stack([sample_xstate(rng) for _ in range(100)])
        with mock.patch.object(measures, "GRID_POINTS", 128):
            coarse, _ = _min_conditional_entropy(states)
        with mock.patch.object(measures, "GRID_POINTS", 256):
            fine, _ = _min_conditional_entropy(states)
        assert (abs(coarse - fine) < 1e-5).all()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


GRID_EDGE_STATES = {
    "pure |11>": make_xstate(1, 0, 0, 0, 0),
    "Bell psi+": BELL,
    "outcome below the floor at theta = 0 and pi/2": make_xstate(0.6, 0, 0.4 - 1e-15, 1e-15, 0),
    "|c23|^2 = p22*p33": make_xstate(0.1, 0.3, 0.2, 0.4,
                                     math.sqrt(0.3 * 0.2) * complex(math.cos(0.7), math.sin(0.7))),
}


class TestBatchedMinimizer:
    @settings(max_examples=40)
    @given(states=st.lists(xstates(), min_size=1, max_size=9),
           chunk=st.integers(1, 10), grid_points=st.sampled_from([64, 128, 4096]))
    def test_each_state_bit_identical_alone_and_in_any_batch(self, states, chunk,
                                                             grid_points):
        # 4096 grid points put one state per grid block, so block edges fall inside
        batch = XBatch.stack(states)
        # hypothesis rejects the function-scoped monkeypatch fixture under @given
        with mock.patch.object(measures, "GRID_POINTS", grid_points):
            whole = _min_conditional_entropy(batch)
            parts = [_min_conditional_entropy(batch[r:r + chunk])
                     for r in range(0, len(batch), chunk)]
            alone = [_min_conditional_entropy(XBatch.of(s)) for s in states]
        for pieces in (parts, alone):
            values = [np.concatenate(column) for column in zip(*pieces)]
            assert (_bits(values[0]) == _bits(whole[0])).all()
            assert (_bits(values[1]) == _bits(whole[1])).all()

    def test_golden_elements_stop_independently(self):
        # brackets of different widths need different step counts
        lo = np.array([0.0, 0.0, 0.3, 1.0])
        hi = np.array([1e-3, 0.5, 0.31, 1.0 + 1e-7])
        centers = np.array([3e-4, 0.2, 0.3051, 1.0])

        def fun_for(c):
            return lambda t: (t - c) ** 2 + np.cos(t)

        t, ft = _golden_min(fun_for(centers), lo, hi)
        for i in range(len(lo)):
            ti, fi = _golden_min(fun_for(centers[i:i + 1]), lo[i:i + 1], hi[i:i + 1])
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
        # the grid stage shares one set of trig values among all states;
        # each value must still be the one-state, one-angle evaluation
        state = GRID_EDGE_STATES[name]
        kernel, calls = measures._entropy, []

        def recording(*args):
            calls.append(kernel(*args))
            return calls[-1]

        with mock.patch.object(measures, "GRID_POINTS", grid_points), \
                mock.patch.object(measures, "_entropy", recording):
            _min_conditional_entropy(XBatch.of(state))
        grid = calls[0]   # the grid stage runs first, in one block for one state
        assert grid.shape == (1, grid_points)
        thetas = np.linspace(0.0, measures.THETA_MAX, grid_points)
        alone = [measured_entropy(XBatch.of(state), [theta])[0] for theta in thetas]
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
    on the package's kernel; returns ``(minimum, theta)`` per state.
    """
    pops, abs_c23 = measures._constants(states)
    thetas = np.linspace(0.0, math.pi / 2, 128)
    vals = measures._entropy(pops[..., None], abs_c23[:, None], *measures._trig(thetas[None]))
    i = np.argmin(vals, axis=1)
    theta, best = thetas[i], vals[np.arange(len(i)), i]
    dth = (math.pi / 2) / 127
    for _ in range(3):
        t, ft = _golden_min(lambda t: measures._entropy(pops, abs_c23, *measures._trig(t)),
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


def test_rare_outcome_counts():
    # B is found in its ground state with probability 1e-12 at theta = 0, and
    # that outcome adds 1e-12 bits: the 12th digit of a CSV field of order 1.
    # Below PROB_FLOOR = 1e-14 an outcome may add at most 1e-14 bits, so
    # both routes must count it, as the dense oracle does.
    s = make_xstate(0.5, 5e-13, 0.5 - 1e-12, 5e-13, 0)
    want = conditional_entropy_measured(s, 0.0, 0.0)
    assert abs(measured_entropy(XBatch.of(s), [0.0])[0] - want) <= 1e-14
    assert abs(measures.closed_min_conditional_entropy(s) - want) <= 1e-14


def _seeded_chunk() -> XBatch:
    """The states of a seeded 1024-sample ``verify`` chunk."""
    return next(verify._seeded_chunks(seeded_rng(24), 1024, 12, 20.0))[1]


def _kernel_arguments(states: XBatch) -> dict[str, tuple]:
    """``_entropy``'s arguments in the minimizer's two shapes: a grid block
    (states x grid points) and one angle per state, as in the golden section."""
    pops, abs_c23 = measures._constants(states)
    grid = np.linspace(0.0, measures.THETA_MAX, measures.GRID_POINTS)
    angles = seeded_rng(25).uniform(0.0, measures.THETA_MAX, len(states))
    return {"grid": (pops[..., None], abs_c23[:, None], *measures._trig(grid[None])),
            "one angle per state": (pops, abs_c23, *measures._trig(angles))}


class TestInPlaceKernel:
    """``_entropy`` and ``_h`` compute in place and give the bits of the
    out-of-place reference in ``tests/conftest.py``, signed zeros included."""

    BATCHES = {"seeded chunk": _seeded_chunk,
               "degenerate states": lambda: XBatch.stack(list(DEGENERATE_STATES.values()))}

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_kernel_bits_match_reference(self, batch):
        for shape, args in _kernel_arguments(self.BATCHES[batch]()).items():
            assert (_bits(measures._entropy(*args)) == _bits(entropy_reference(*args))).all(), shape

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_minimizer_bits_match_reference(self, batch):
        states = self.BATCHES[batch]()
        got = _min_conditional_entropy(states)
        with mock.patch.object(measures, "_entropy", entropy_reference):
            want = _min_conditional_entropy(states)
        for g, w in zip(got, want):
            assert (_bits(g) == _bits(w)).all()

    def test_h_bits_match_reference_at_the_edges(self):
        x = np.array([-1e-13, -0.0, 0.0, 5e-324, 1e-15, 0.25, 0.5, 1.0 - 1e-16, 1.0,
                      1.0 + 1e-13, math.nan])
        assert (_bits(measures._h(x)) == _bits(h_reference(x))).all()

    def test_kernel_leaves_its_inputs_unchanged(self):
        # every grid block shares one set of trig arrays, so writing into
        # them would corrupt the blocks after it
        for shape, args in _kernel_arguments(_seeded_chunk()).items():
            before = [_bits(a).copy() for a in args]
            measures._entropy(*args)
            assert all((_bits(a) == b).all() for a, b in zip(args, before)), shape
        x = np.array([-1e-13, 0.3, 1.0 + 1e-13])
        measures._h(x)
        assert (_bits(x) == _bits([-1e-13, 0.3, 1.0 + 1e-13])).all()

    def test_grid_block_working_set(self):
        # A block of r states on the g-point grid computes in (2, r, g)
        # float64 arrays of B = 2*r*g*8 bytes.  In place, the kernel holds
        # at most the stacked diagonals (2B), p_k (B), 4*off^2 (B/2, freed
        # before _h), _h's [x, 1 - x] (2B) and its log2 operand (2B), and a
        # boolean mask (B/4): 7.25B.  The bound allows 8B.  The out-of-place
        # kernel held about 13B.
        states = _sampled_states(seeded_rng(26).random((6, 60)))
        block = 2 * len(states) * measures.GRID_POINTS * 8
        _min_conditional_entropy(states)
        tracemalloc.start()
        try:
            _min_conditional_entropy(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * block


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
