import math
import re
import sys

import numpy as np
import pytest

from cavitycorr import (
    EvolutionParams,
    XBatch,
    evolve,
    evolve_batch,
    make_xstate,
    published_form_report,
    sequential_pass,
    sequential_pass_batch,
    werner_state,
)
from cavitycorr.evolution import _trig
from cavitycorr.verify import _seeded_chunks, sample_xstate

from conftest import seeded_rng


def max_deviation(a, b):
    return max(abs(a.p11 - b.p11), abs(a.p22 - b.p22), abs(a.p33 - b.p33),
               abs(a.p44 - b.p44), abs(a.c23 - b.c23))


class TestTrigCoeffs:
    """The update's trig coefficients, as ``_trig`` computes them."""

    def test_zero_index(self):
        assert _trig(0, 12.34) == (1.0, 0.0)

    def test_quarter_turn(self):
        c, s = _trig(1, math.pi / 2)
        assert c == pytest.approx(0.0, abs=1e-15)
        assert s == pytest.approx(1.0)

    def test_sqrt_scaling(self):
        assert _trig(4, 0.5) == (math.cos(1.0), math.sin(1.0))

    def test_minus_one_convention(self):
        assert _trig(-1, 3.0) == (1.0, 0.0)

    def test_integer_array_matches_scalar(self):
        m = np.array([-1, 0, 1, 2, 7, 10**6, 2**53 + 2])
        gt = np.array([3.0, 12.34, math.pi / 2, 0.5, 19.9, 1e4, 2.5])
        c, s = _trig(m, gt)
        for i in range(len(m)):
            assert (c[i], s[i]) == _trig(int(m[i]), float(gt[i]))
        c, s = _trig(m, 0.7)  # one angle for every index
        assert (c[0], s[0]) == (1.0, 0.0)
        assert (c[3], s[3]) == _trig(2, 0.7)


class TestParams:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            EvolutionParams(-1, 1.0)

    def test_rejects_nonfinite_gt(self):
        with pytest.raises(ValueError):
            EvolutionParams(0, math.inf)


# the message a rejected bool angle gets, not the one for other non-numbers
BOOL = "must be a number, not a bool"
REAL = "must be a real number"
# the mixing parameter's message, the same for every kind of bad value
MIXING = "r must be a finite real number in [0, 1], got "


@pytest.mark.parametrize("call, same_as", [
    (lambda: werner_state(True), MIXING + "True"),
    (lambda: werner_state(np.bool_(False)), MIXING + "np.False_"),
    (lambda: EvolutionParams(3, True), BOOL),
    (lambda: EvolutionParams(3, np.bool_(True)), BOOL),
    (lambda: evolve_batch(werner_state(0.3), 3, np.array([True, False])), BOOL),
    (lambda: evolve_batch(werner_state(0.3), 3, [False]), BOOL),
    (lambda: evolve_batch(werner_state(0.3), 3, np.array([1.5 + 2j])), REAL),
    (lambda: evolve_batch(werner_state(0.3), 3, [[0.5, 1.0], [2.0]]), REAL),
    (lambda: evolve_batch(werner_state(0.3), 3, [0.5, None]), REAL),
    (lambda: EvolutionParams(3, "1.5"), REAL),
    (lambda: EvolutionParams(3, 1.5 + 2j), REAL),
    (lambda: werner_state("0.5"), MIXING + "'0.5'"),
    (lambda: werner_state(0.5 + 0j), MIXING + "(0.5+0j)"),
    (lambda: werner_state(None), MIXING + "None"),
    (lambda: werner_state(np.float64(0.3)), lambda: werner_state(0.3)),
    (lambda: werner_state(np.float32(0.25)), lambda: werner_state(0.25)),
    (lambda: evolve(werner_state(0.3), EvolutionParams(3, np.float64(1.7))),
     lambda: evolve(werner_state(0.3), EvolutionParams(3, 1.7))),
    (lambda: list(evolve_batch(werner_state(0.3), np.int64(3), np.array([0.5, 1.0], np.float32))),
     lambda: list(evolve_batch(werner_state(0.3), 3, [0.5, 1.0]))),
], ids=["werner-bool", "werner-numpy-bool", "params-bool", "params-numpy-bool",
        "batch-bool-array", "batch-bool-list", "batch-complex-array", "batch-ragged",
        "batch-object", "params-string",
        "params-complex", "werner-string", "werner-complex", "werner-none",
        "werner-float64", "werner-float32", "evolve-float64", "batch-float32"])
def test_bool_angles_and_mixing_rejected_numpy_floats_kept(call, same_as):
    # a bool would otherwise be read as 0 or 1: werner_state(True) is the Bell
    # state; a complex angle would lose its imaginary part, a string be parsed
    if isinstance(same_as, str):
        with pytest.raises(ValueError, match=re.escape(same_as)):
            call()
    else:
        assert repr(call()) == repr(same_as())


class TestCorrectedMode:
    def test_zero_angle_is_identity(self):
        s = make_xstate(0.1, 0.2, 0.4, 0.3, 0.05 - 0.21j)
        out = evolve(s, EvolutionParams(7, 0.0))
        assert out == s

    def test_maximally_mixed_recurs_at_pi(self):
        mixed = make_xstate(0.25, 0.25, 0.25, 0.25, 0)
        out = evolve(mixed, EvolutionParams(0, math.pi))
        assert max_deviation(out, mixed) < 1e-12

    def test_matches_oracle_spot(self):
        closed = evolve(werner_state(0.2), EvolutionParams(3, 1.7))
        oracle = sequential_pass(werner_state(0.2), EvolutionParams(3, 1.7))
        assert max_deviation(closed, oracle) <= 1e-10

    def test_matches_oracle_bulk(self):
        # the big cross-validation: 10^4 random draws, n <= 12, gt in [0, 20];
        # each sample draws as sample_xstate, rng.integers(0, 13) and
        # rng.uniform(0.0, 20.0) one after the other would
        for _, s, n, gt in _seeded_chunks(seeded_rng(11), 10_000, 12, 20.0):
            closed = evolve_batch(s, n, gt)
            oracle = sequential_pass_batch(s, n, gt)
            trace = ((closed.p11 + closed.p22) + closed.p33) + closed.p44
            assert (abs(trace - 1.0) < 1e-12).all()
            assert (closed.abs_c23() ** 2 <= closed.p22 * closed.p33 + 1e-10).all()
            dev = np.max([abs(closed.p11 - oracle.p11), abs(closed.p22 - oracle.p22),
                          abs(closed.p33 - oracle.p33), abs(closed.p44 - oracle.p44),
                          np.hypot(closed.re_c23 - oracle.re_c23,
                                   closed.im_c23 - oracle.im_c23)], axis=0)
            assert (dev <= 1e-10).all()

    def test_period_pi_for_diagonal_states_without_p11(self):
        # with no doubly-excited weight only the sqrt(1) and sqrt(2)
        # frequencies enter, with even powers in the populations and
        # |coherence|, so those are pi-periodic at n = 0; the coherence
        # itself carries an odd cos(gt) factor and flips sign, and a
        # p11 > 0 component injects the incommensurate cos^2(sqrt(2) gt)
        rng = seeded_rng(12)
        for _ in range(40):
            w = -np.log(rng.random(3))
            w /= w.sum()
            s = make_xstate(0.0, w[0], w[1], w[2], 0)
            gt = float(rng.uniform(0.0, 10.0))
            now = evolve(s, EvolutionParams(0, gt))
            later = evolve(s, EvolutionParams(0, gt + math.pi))
            pop_dev = max(abs(a - b) for a, b in
                          zip(now.populations(), later.populations()))
            assert pop_dev < 1e-10
            assert abs(abs(now.c23) - abs(later.c23)) < 1e-10
            oracle = sequential_pass(s, EvolutionParams(0, gt + math.pi))
            assert max_deviation(later, oracle) < 1e-10

    def test_pi_periodicity_fails_with_p11(self):
        s = make_xstate(1.0, 0, 0, 0, 0)
        now = evolve(s, EvolutionParams(0, math.pi / 2))
        later = evolve(s, EvolutionParams(0, 3 * math.pi / 2))
        assert max_deviation(now, later) > 0.1


class TestPublishedMode:
    def test_agrees_with_corrected_for_diagonal_states(self):
        rng = seeded_rng(13)
        for _ in range(40):
            w = -np.log(rng.random(4))
            w /= w.sum()
            s = make_xstate(*w, 0)
            params = EvolutionParams(int(rng.integers(0, 9)),
                                     float(rng.uniform(0.0, 15.0)))
            dev = max_deviation(published_form_report(s, params).state,
                                evolve(s, params))
            assert dev < 1e-12

    def test_flag_fires_on_werner(self):
        # the misprinted coherence feedback must show up for r > 0
        fired = False
        for n in range(4):
            for gt in (0.7, 1.0, 1.9, 2.6):
                report = published_form_report(werner_state(0.2),
                                               EvolutionParams(n, gt))
                fired = fired or report.flag
        assert fired

    def test_flag_quiet_when_coefficients_agree(self):
        report = published_form_report(make_xstate(0, 0, 0, 1, 0),
                                       EvolutionParams(0, 2.2))
        assert report.trace_drift < 1e-15
        assert not report.flag

    def test_trace_drift_vs_corrected(self):
        state = werner_state(0.2)
        params = EvolutionParams(1, 1.0)
        report = published_form_report(state, params)
        assert report.trace_drift > 1e-9
        corrected = evolve(state, params)
        assert abs(corrected.trace() - 1.0) <= 1e-12

    def test_hermiticity_drift_reported(self):
        # the second misprint sits on the rho22 term of the lower row
        report = published_form_report(make_xstate(0.0, 1.0, 0.0, 0.0, 0),
                                       EvolutionParams(2, 1.1))
        assert report.hermiticity_drift > 1e-9


class TestEvolveGrid:
    def test_matches_scalar_evolve_bit_for_bit(self):
        state = make_xstate(0.1, 0.2, 0.4, 0.3, 0.05 - 0.21j)
        gts = np.linspace(0.0, 37.0, 101)
        batch = evolve_batch(state, 6, gts)
        for i, gt in enumerate(gts):
            assert batch[i] == evolve(state, EvolutionParams(6, float(gt)))

    def test_batch_matches_scalar_evolve_bit_for_bit(self):
        # enough samples that a last-bit slip on 0.1 % of inputs (numpy's
        # x*x in place of pow(x, 2)) shows
        rng = seeded_rng(14)
        states = [sample_xstate(rng) for _ in range(4000)]
        n = rng.integers(0, 2**40, size=4000) >> rng.integers(0, 41, size=4000)
        gt = rng.uniform(0.0, 1e3, size=4000)
        batch = evolve_batch(XBatch.stack(states), n, gt)
        for i, state in enumerate(states):
            expected = evolve(state, EvolutionParams(int(n[i]), float(gt[i])))
            assert repr(batch[i]) == repr(expected)

    def test_rejects_nonfinite_angles_and_bad_n(self):
        with pytest.raises(ValueError, match="finite"):
            evolve_batch(werner_state(0.3), 2, [0.0, math.nan])
        with pytest.raises(ValueError, match=re.escape(
                f"photon number n must be an integer in [0, {2**53}], got -1")):
            evolve_batch(werner_state(0.3), -1, [0.0])
        with pytest.raises(ValueError, match=re.escape(
                f"photon number n must be an integer in [0, {2**53}], got {2**53 + 1}")):
            EvolutionParams(2**53 + 1, 1.0)
        for gt in (0.5, [[0.1, 0.2]]):  # 0-d and 2-d angles
            with pytest.raises(ValueError, match="1-d"):
                evolve_batch(werner_state(0.3), 2, gt)
        with pytest.raises(ValueError, match="length 2"):
            evolve_batch(XBatch.stack([werner_state(0.3)] * 2), [2, 2], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("n", [0, 7, 2**53])
    def test_rejects_overflowing_angles_exactly(self, n):
        # sqrt(n + 2) * gt is the largest angle either route computes; the
        # largest gt that keeps it finite evolves, the next float is rejected
        s = werner_state(0.3)
        gt = sys.float_info.max / math.sqrt(n + 2)
        while not math.isfinite(math.sqrt(n + 2) * gt):
            gt = math.nextafter(gt, 0.0)
        while math.isfinite(math.sqrt(n + 2) * math.nextafter(gt, math.inf)):
            gt = math.nextafter(gt, math.inf)
        params = EvolutionParams(n, gt)
        assert max_deviation(evolve(s, params), sequential_pass(s, params)) <= 1e-10
        published_form_report(s, params)
        too_far = math.nextafter(gt, math.inf)
        message = re.escape(f"overflows at n = {n}, gt = ") + "-?" + re.escape(repr(too_far))
        for call in (lambda: EvolutionParams(n, too_far),
                     lambda: EvolutionParams(n, -too_far),
                     lambda: evolve_batch(s, n, [0.0, too_far]),
                     lambda: sequential_pass_batch(XBatch.stack([s] * 2), [0, n], [1.0, too_far])):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match="overflows"):
            evolve(s, EvolutionParams(2**53, 1e301))

    def test_even_in_gt(self):
        # cos is even and sin enters the closed form only squared, the oracle
        # only through products of two rotations; n = 0 takes the m = -1 index
        rng = seeded_rng(15)
        size = 4000
        states = XBatch.stack([sample_xstate(rng) for _ in range(size)])
        n = rng.integers(0, 13, size=size)
        n[::4] = 0
        gt = rng.uniform(0.0, 20.0, size=size)
        for route in (evolve_batch, sequential_pass_batch):
            plus, minus = route(states, n, gt), route(states, n, -gt)
            for field in ("p11", "p22", "p33", "p44", "re_c23", "im_c23"):
                assert getattr(plus, field).tobytes() == getattr(minus, field).tobytes()


def _exact_evolve(state, n, gt, mp):
    """(p11, p22, p33, p44, c23) after both passes, from the Jaynes-Cummings dynamics.

    Independent of the coefficient table: each basis ket |ab, n> is carried
    as amplitudes on |a b, m>, atom A and then atom B turns each pair
    {|e, m>, |g, m + 1>} by the angle sqrt(m + 1) * gt, and the field is
    traced out of rho' = sum_ij rho_ij U|i><j|U^dagger.  Two passes reach
    only photon numbers n - 2 .. n + 2.  Everything runs in ``mp``'s
    precision on the exact float inputs.
    """
    g = mp.mpf(gt)
    kets = [(1, 1), (1, 0), (0, 1), (0, 0)]   # |11>, |10>, |01>, |00>; 1 is excited

    def interact(amps, atom):
        out = {}
        for (levels, m), amp in amps.items():
            # |e, m> pairs with |g, m + 1>, |g, m> with |e, m - 1> (none at m = 0)
            k, partner = (m + 1, m + 1) if levels[atom] else (m, m - 1)
            angle = mp.sqrt(k) * g
            out[levels, m] = out.get((levels, m), 0) + mp.cos(angle) * amp
            if k > 0:
                flipped = tuple(v ^ (a == atom) for a, v in enumerate(levels))
                out[flipped, partner] = (out.get((flipped, partner), 0)
                                         + mp.mpc(0, -1) * mp.sin(angle) * amp)
        return out

    psi = [interact(interact({(ket, n): mp.mpf(1)}, 0), 1) for ket in kets]
    c23 = mp.mpc(state.c23.real, state.c23.imag)
    rho = {(0, 0): mp.mpf(state.p11), (1, 1): mp.mpf(state.p22), (2, 2): mp.mpf(state.p33),
           (3, 3): mp.mpf(state.p44), (1, 2): c23, (2, 1): mp.conj(c23)}

    def element(a, b):
        return sum(w * amp * mp.conj(psi[j].get((kets[b], m), 0))
                   for (i, j), w in rho.items()
                   for (levels, m), amp in psi[i].items() if levels == kets[a])

    return [element(k, k) for k in range(4)] + [element(1, 2)]


def test_evolve_matches_exact_dynamics_within_angle_conditioning():
    """``evolve`` against a 50-digit evaluation of the physics, up to n = 2**53.

    Bound, derived before measuring.  Let theta = sqrt(n + 2) * gt, the
    largest of the four Rabi angles sqrt(m) * gt (m = n - 1 .. n + 2).
    Each angle is computed as fl(fl(sqrt(m)) * gt), off by at most 2u of
    itself (u = 2**-53), which is less than 2 ulp(theta).  Each element is
    a sum of terms w * (a product of at most four cosines and sines of
    those angles), with sum |w| <= 2: the populations sum to 1, and
    |Re c23|, |Im c23| <= 1/2.  A product of d <= 4 factors bounded by 1
    moves by at most d times the largest angle error, so the angles
    contribute at most 2 * 4 * 2 = 16 ulp(theta).  Rounding the trig
    values, the powers, the products and the sums adds about 20u relative
    to sum |w| <= 2, under 32 ulp(1).  So each field (the populations,
    Re c23 and Im c23) is within 48 ulp(max(1, theta)) of the exact value;
    the floor at 1 covers small angles, where the O(1) round-off dominates.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    rng = seeded_rng(16)
    n_values = [0, 1, 2, 2**53] + [int(2.0 ** e) for e in rng.uniform(0.0, 53.0, 44)]
    with mp.workdps(50):
        for n in n_values:
            state = sample_xstate(rng)
            gt = float(10.0 ** rng.uniform(-2.0, 4.0))
            closed = evolve(state, EvolutionParams(n, gt))
            exact = _exact_evolve(state, n, gt, mp)
            got = [closed.p11, closed.p22, closed.p33, closed.p44]
            err = [abs(mp.mpf(v) - e) for v, e in zip(got, exact)]
            err += [abs(closed.c23.real - exact[4].real), abs(closed.c23.imag - exact[4].imag)]
            bound = 48 * math.ulp(max(1.0, math.sqrt(n + 2) * gt))
            assert float(max(err)) <= bound, (n, gt, state, float(max(err)), bound)
