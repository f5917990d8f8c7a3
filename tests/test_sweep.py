import math
import re

import numpy as np
import pytest

from cavitycorr import (
    DiscordMethod,
    EventKind,
    RevivalEvent,
    SweepBatch,
    SweepConfig,
    XBatch,
    correlation_batch,
    detect_collapse_revival,
    envelope,
    first_onset,
    sweep_batches,
    time_series,
)

from conftest import seeded_rng


def naive_envelope(series, window):
    # independent reference: quadratic scan
    out = []
    for gt_i, _ in series:
        best = -math.inf
        for gt_j, v in series:
            if abs(gt_j - gt_i) <= window / 2:
                best = max(best, v)
        out.append((gt_i, best))
    return out


def naive_events(env, threshold, min_duration):
    # independent reference: walks each run below the threshold point by point
    gts = [float(gt) for gt, _ in env]
    vals = [float(v) for _, v in env]
    npts = len(vals)
    collapses = []
    i = 0
    while i < npts:
        if vals[i] < threshold:
            j = i
            while j + 1 < npts and vals[j + 1] < threshold:
                j += 1
            if gts[j] - gts[i] >= min_duration:
                collapses.append((i, j))
            i = j + 1
        else:
            i += 1
    if not collapses:
        return []
    events = []
    prev_end = -1
    for i, j in collapses:
        if i > prev_end + 1:
            a, b = prev_end + 1, i - 1
            events.append(RevivalEvent(EventKind.REVIVAL, gts[a], gts[b], max(vals[a:b + 1])))
        events.append(RevivalEvent(EventKind.COLLAPSE, gts[i], gts[j], max(vals[i:j + 1])))
        prev_end = j
    if prev_end + 1 < npts:
        a = prev_end + 1
        events.append(RevivalEvent(EventKind.REVIVAL, gts[a], gts[-1], max(vals[a:])))
    return events


def step_signal(rng, npts):
    # runs of 1-8 points, alternating below and above 0.5, on a grid whose
    # steps are multiples of 0.25 (so spans equal to min_duration are exact)
    # and sometimes 0 (repeated gt)
    gts = np.cumsum(rng.integers(0, 3, size=npts) * 0.25)
    vals = np.empty(npts)
    i, below = 0, bool(rng.integers(2))
    while i < npts:
        run = vals[i:i + int(rng.integers(1, 9))]
        run[:] = rng.uniform(0.0, 0.5, len(run)) + (0.0 if below else 0.5)
        i, below = i + len(run), not below
    return np.column_stack([gts, vals])


class TestTimeSeries:
    def test_three_records_from_mixed_start(self):
        batch = time_series(SweepConfig(n=0, r=0.0, gt_max=math.pi, steps=2))
        assert len(batch) == 3
        assert batch.concurrence[0] == 0.0
        assert batch.discord[0] == 0.0
        assert batch.gt[0] == 0.0

    def test_bell_start(self):
        batch = time_series(SweepConfig(n=0, r=1.0, gt_max=1.0, steps=10))
        assert batch.concurrence[0] == pytest.approx(1.0, abs=1e-12)
        assert batch.discord[0] == pytest.approx(1.0, abs=1e-9)

    def test_initial_record_is_exactly_werner(self):
        batch = time_series(SweepConfig(n=10, r=0.2, gt_max=50.0, steps=5))
        state = batch.states[0]
        assert state.p11 == (1 - 0.2) * 0.25
        assert state.c23 == 0.1
        assert batch.discord[0] > 0.0
        assert batch.concurrence[0] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n=0, r=0.0, gt_max=1.0, steps=0)
        with pytest.raises(ValueError):
            SweepConfig(n=0, r=0.0, gt_max=math.inf, steps=10)
        with pytest.raises(ValueError):
            SweepConfig(n=0, r=1.5, gt_max=1.0, steps=10)

    @pytest.mark.parametrize("steps", [True, 2.0, 2.5])
    def test_non_integer_steps_rejected(self, steps):
        # steps=True would otherwise run a 2-point grid
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            SweepConfig(n=1, r=0.5, gt_max=1.0, steps=steps)
        assert SweepConfig(n=1, r=0.5, gt_max=1.0, steps=np.int64(2)).steps == 2

    def test_records_satisfy_invariants(self):
        batch = time_series(SweepConfig(n=3, r=0.5, gt_max=15.0, steps=150))
        s = batch.states
        assert (abs(((s.p11 + s.p22) + s.p33) + s.p44 - 1.0) < 1e-12).all()
        assert ((-1e-9 <= batch.discord)
                & (batch.discord <= batch.mutual_information + 1e-9)).all()
        assert (batch.classical_correlation >= -1e-9).all()
        assert ((0.0 <= batch.concurrence) & (batch.concurrence <= 1.0)).all()

    def test_brute_force_method_agrees(self):
        closed = time_series(SweepConfig(n=1, r=0.3, gt_max=4.0, steps=8))
        brute = time_series(SweepConfig(n=1, r=0.3, gt_max=4.0, steps=8,
                                        discord_method=DiscordMethod.BRUTE_FORCE))
        assert (abs(closed.discord - brute.discord) <= 0.0021 + 5e-4).all()
        # both decompositions split the same mutual information
        for b in (closed, brute):
            assert b.discord + b.classical_correlation == pytest.approx(
                b.mutual_information, abs=1e-9)


class TestEnvelope:
    def test_all_zero(self):
        series = [(0.1 * i, 0.0) for i in range(50)]
        assert all(v == 0.0 for _, v in envelope(series, 1.0))

    def test_constant(self):
        series = [(0.1 * i, 0.7) for i in range(50)]
        assert all(v == 0.7 for _, v in envelope(series, 1.0))

    def test_abs_sine(self):
        gts = [i * 4 * math.pi / 8 for i in range(9)]  # grid hits the peaks
        series = [(gt, abs(math.sin(gt))) for gt in gts]
        env = envelope(series, math.pi)
        for (gt, value), (_, expected) in zip(env, naive_envelope(series, math.pi)):
            assert value == expected
            has_peak = any(abs(p - gt) <= math.pi / 2 for p in
                           (math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2, 7 * math.pi / 2))
            if has_peak:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_reference(self):
        rng = seeded_rng(31)
        gts = np.sort(rng.uniform(0, 10, size=200))
        series = list(zip(gts.tolist(), rng.random(200).tolist()))
        env = envelope(series, 1.3)
        assert env.shape == (200, 2)
        assert np.array_equal(env, naive_envelope(series, 1.3))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            envelope([], 1.0)
        with pytest.raises(ValueError):
            envelope([(0.0, 1.0), (1.0, 2.0)], 5.0)  # window wider than span

    def test_rejects_bad_gt(self):
        # unsorted, the window of gt = 1.0 would take 5.0 from gt = 2.0
        with pytest.raises(ValueError, match="non-decreasing, got 1.0 at index 2"):
            envelope([(0, 1), (2, 5), (1, 0), (3, 0), (4, 0)], 1.0)
        with pytest.raises(ValueError, match="got nan at index 1"):
            envelope([(0, 1), (math.nan, 5), (2, 0), (3, 0), (4, 0)], 1.0)

    def test_nan_value_propagates(self):
        env = envelope([(0.0, math.nan), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 2.5)
        assert np.isnan(env[:2, 1]).all()
        assert list(env[2:, 1]) == [0.0, 0.0]


class TestDetect:
    def test_all_zero_single_collapse(self):
        env = [(0.01 * i, 0.0) for i in range(500)]
        events = detect_collapse_revival(env, 0.1, 0.5)
        assert len(events) == 1
        assert events[0].kind is EventKind.COLLAPSE
        assert events[0].gt_start == 0.0
        assert events[0].gt_end == pytest.approx(4.99)

    def test_everywhere_above_threshold(self):
        env = [(0.01 * i, 1.0) for i in range(500)]
        assert detect_collapse_revival(env, 0.1, 0.5) == []

    def test_threshold_above_range(self):
        env = [(0.01 * i, abs(math.sin(i * 0.01))) for i in range(500)]
        events = detect_collapse_revival(env, 2.0, 0.5)
        assert len(events) == 1
        assert events[0].kind is EventKind.COLLAPSE

    def test_step_signal(self):
        # 0 on [0,1), 1 on [1,2), 0 on [2,3): collapse, revival, collapse
        env = [(0.01 * i, 0.0 if (i < 100 or i >= 200) else 1.0) for i in range(300)]
        events = detect_collapse_revival(env, 0.5, 0.5)
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.COLLAPSE, EventKind.REVIVAL, EventKind.COLLAPSE]
        assert events[1].gt_start == pytest.approx(1.0)
        assert events[1].gt_end == pytest.approx(1.99)
        assert events[1].peak_value == 1.0

    def test_short_dips_are_absorbed(self):
        # a dip shorter than min_duration must not split the revival
        vals = [1.0] * 300
        for i in range(140, 150):
            vals[i] = 0.0  # 0.1 wide dip
        for i in range(0, 60):
            vals[i] = 0.0  # 0.6 wide initial collapse
        env = list(zip((0.01 * i for i in range(300)), vals))
        events = detect_collapse_revival(env, 0.5, 0.5)
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.COLLAPSE, EventKind.REVIVAL]
        assert events[1].gt_end == pytest.approx(2.99)

    def test_amplitude_modulated_signal(self):
        # fast oscillation under a slow envelope that dies at multiples
        # of 2*pi; only those nulls are wide enough to count
        gts = np.linspace(0.0, 4 * math.pi, 4001)
        vals = np.abs(np.sin(25 * gts) * np.sin(0.5 * gts))
        events = detect_collapse_revival(list(zip(gts, vals)), 0.1, 0.3)
        collapses = [e for e in events if e.kind is EventKind.COLLAPSE]
        revivals = [e for e in events if e.kind is EventKind.REVIVAL]
        assert any(e.gt_start <= 2 * math.pi <= e.gt_end for e in collapses)
        assert revivals
        kinds = [e.kind for e in events]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))  # alternation
        starts = [e.gt_start for e in events]
        assert starts == sorted(starts)

    def test_rejects_bad_thresholds(self):
        env = [(0.0, 1.0), (1.0, 1.0)]
        with pytest.raises(ValueError):
            detect_collapse_revival(env, 0.0, 1.0)
        with pytest.raises(ValueError):
            detect_collapse_revival(env, 0.1, -1.0)

    def test_rejects_bad_gt(self):
        env = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (2.0, 0.0)]
        with pytest.raises(ValueError, match="at index 2"):
            detect_collapse_revival(env, 0.1, 0.5)
        with pytest.raises(ValueError, match="got inf at index 3"):
            detect_collapse_revival(env[:2] + [(1.5, 1.0), (math.inf, 0.0)], 0.1, 0.5)

    def test_empty(self):
        assert detect_collapse_revival([], 0.1, 0.5) == []

    @pytest.mark.parametrize("vals", [
        [0, 0, 0, 1, 1, 1, 1, 1],  # collapse at the start
        [1, 1, 1, 1, 1, 0, 0, 0],  # collapse at the end
        [0] * 8,  # all below
        [0, 1, 0, 1, 0, 1, 0, 1],  # single-point runs
        [1, 0, 1, 0, 0, 1, 0, 0],  # a short and a long run
        [1, 0, 0, 0, 1, 0, 0, 0, 0, 1],  # spans of exactly and above min_duration
        [1] * 8,
    ])
    def test_matches_naive_events_on_cases(self, vals):
        env = [(0.25 * i, 0.1 + 0.8 * v + 0.01 * i) for i, v in enumerate(vals)]
        for min_duration in (0.125, 0.25, 0.5, 0.75, 5.0):
            events = detect_collapse_revival(env, 0.5, min_duration)
            assert events == naive_events(env, 0.5, min_duration)

    def test_matches_naive_events_on_random_steps(self):
        rng = seeded_rng(7)
        compared = 0
        for _ in range(300):
            env = step_signal(rng, int(rng.integers(1, 60)))
            for min_duration in (0.25, 0.5, 1.0):
                expected = naive_events(env, 0.5, min_duration)
                assert detect_collapse_revival(env, 0.5, min_duration) == expected
                compared += len(expected)
        assert compared > 1000


class TestFirstOnset:
    def test_absent(self):
        assert first_onset([(0.0, 0.0), (1.0, 0.05)], 0.1) is None

    def test_step(self):
        series = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (3.0, 0.6)]
        assert first_onset(series, 0.1) == 2.0

    def test_strict_inequality(self):
        assert first_onset([(0.0, 0.1)], 0.1) is None

    def test_empty(self):
        assert first_onset([]) is None

    def test_rejects_bad_eps_and_gt(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            first_onset([(0.0, 1.0)], math.nan)
        with pytest.raises(ValueError, match="non-decreasing, got 0.5 at index 2"):
            first_onset([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)], 0.1)
        with pytest.raises(ValueError, match="got nan at index 0"):
            first_onset([(math.nan, 1.0), (1.0, 0.0)], 0.1)

    def test_discord_precedes_concurrence(self):
        batch = time_series(SweepConfig(n=0, r=0.0, gt_max=10.0, steps=2000))
        d_on = first_onset(np.column_stack([batch.gt, batch.discord]), 1e-3)
        c_on = first_onset(np.column_stack([batch.gt, batch.concurrence]), 1e-3)
        assert d_on is not None and c_on is not None
        assert d_on < c_on


_SERIES = [(0.0, 0.1), (1.0, 0.9), (2.0, 0.1), (3.0, 0.9)]
# (call with the float parameter v, the message that rejects v), per parameter
_FLOAT_PARAMETERS = [
    (lambda v: time_series(SweepConfig(n=1, r=v, gt_max=1.0, steps=2)).discord,
     "r must lie in [0, 1], got "),
    (lambda v: time_series(SweepConfig(n=1, r=0.5, gt_max=v, steps=2)).discord,
     "gt_max must be finite and positive, got "),
    (lambda v: envelope(_SERIES, v), "window must be positive, got "),
    (lambda v: detect_collapse_revival(_SERIES, v, 0.5),
     "collapse_threshold and min_duration must be positive and finite, got "),
    (lambda v: detect_collapse_revival(_SERIES, 0.5, v),
     "collapse_threshold and min_duration must be positive and finite, got "),
    (lambda v: first_onset(_SERIES, v), "eps must be positive, got "),
]
_PARAMETER_IDS = ["r", "gt_max", "window", "collapse_threshold", "min_duration", "eps"]


@pytest.mark.parametrize("call, message", _FLOAT_PARAMETERS)
def test_float_parameters_reject_bools(call, message):
    # a bool would otherwise pass the range checks as 0 or 1
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            call(flag)
        assert repr(flag) in str(err.value)
    assert np.array_equal(call(np.float64(0.5)), call(0.5))


@pytest.mark.parametrize("value", ["0.5", 0.5 + 0j, None], ids=["str", "complex", "None"])
@pytest.mark.parametrize("call, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
def test_float_parameters_reject_non_numbers(call, message, value):
    # not a bare TypeError from comparing the value with a float
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        call(value)
    assert repr(value) in str(err.value)


# each float parameter given an int too large for a float: its own check
# rejects it, or (eps) no value lies above it
@pytest.mark.parametrize("call, message", [
    *_FLOAT_PARAMETERS[:2],
    (_FLOAT_PARAMETERS[2][0], "must be smaller than the gt span"),
    *_FLOAT_PARAMETERS[3:5],
    (_FLOAT_PARAMETERS[5][0], None),
], ids=_PARAMETER_IDS)
def test_float_parameters_take_ints_beyond_the_float_range(call, message):
    # not a bare OverflowError from converting the int to a float
    if message is None:
        assert call(10**400) is None
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        call(10**400)


class TestSweepBatch:
    def test_batch_validation_matches_one_point_validation(self):
        cfg = SweepConfig(n=2, r=0.5, gt_max=3.0, steps=4)
        batch = time_series(cfg)
        bad = np.array(batch.discord)
        bad[3] = batch.mutual_information[3] + 0.1
        with pytest.raises(ValueError) as from_batch:
            SweepBatch(batch.gt, batch.states, batch.concurrence, bad,
                       batch.classical_correlation, batch.mutual_information)
        # the failing point alone, as a batch of one, gets the same message
        with pytest.raises(ValueError) as from_point:
            SweepBatch(batch.gt[3:4], batch.states[3:4], batch.concurrence[3:4], bad[3:4],
                       batch.classical_correlation[3:4], batch.mutual_information[3:4])
        assert str(from_batch.value) == str(from_point.value)
        assert "exceeds mutual information" in str(from_batch.value)

    def test_records_match_single_point_evaluation(self):
        batch = time_series(SweepConfig(n=3, r=0.7, gt_max=9.0, steps=9))
        fields = ("gt", "concurrence", "discord", "classical_correlation", "mutual_information")
        for i in range(len(batch)):
            one = correlation_batch(batch.gt[i:i + 1], XBatch.of(batch.states[i]))
            assert one.states[0] == batch.states[i]
            assert [getattr(one, f)[0] for f in fields] == [getattr(batch, f)[i] for f in fields]

    def test_chunks_tile_the_grid(self):
        cfg = SweepConfig(n=1, r=0.2, gt_max=2.0, steps=10)
        sizes = [len(b) for b in sweep_batches(cfg, 4)]
        assert sizes == [4, 4, 3]
        assert [len(b) for b in sweep_batches(cfg, np.int64(4))] == sizes
        for chunk in (0, -1, 2.5, 4.0, True, np.float64(4.0), np.bool_(True)):
            with pytest.raises(ValueError, match=re.escape(
                    f"chunk must be an integer >= 1, got {chunk!r}")):
                next(sweep_batches(cfg, chunk))

    def test_overflowing_grid_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            SweepConfig(n=0, r=0.0, gt_max=1e308, steps=10)
        # steps * gt_max, the grid's own product, on both sides of the limit
        SweepConfig(n=0, r=0.0, gt_max=1e300, steps=10**8)
        with pytest.raises(ValueError, match="gt_max 1e\\+300 is too large"):
            SweepConfig(n=0, r=0.0, gt_max=1e300, steps=10**9)
        # sqrt(n + 2) * gt_max, the largest Rabi angle, on both sides; their
        # product with steps overflows and is computed nowhere
        SweepConfig(n=2**53, r=0.0, gt_max=1e299, steps=1000)
        with pytest.raises(ValueError, match="gt_max 1e\\+301 is too large"):
            SweepConfig(n=2**53, r=0.0, gt_max=1e301, steps=1)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            SweepConfig(n=2**53 + 1, r=0.0, gt_max=1.0, steps=10)
