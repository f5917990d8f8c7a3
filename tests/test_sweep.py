import math
import re

import numpy as np
import pytest

from cavitycorr import (
    SweepBatch,
    SweepConfig,
    XBatch,
    correlation_batch,
    detect_collapse_revival,
    envelope,
    first_onset,
    sweep_batches,
    time_series,
    werner_state,
)
from cavitycorr.cli import _fmt, main
from cavitycorr.sweep import DISCORD_METHODS

from conftest import seeded_rng


def naive_envelope(gts, vals, window):
    # independent reference: quadratic scan
    out = []
    for gt_i in gts:
        best = -math.inf
        for gt_j, v in zip(gts, vals):
            if abs(gt_j - gt_i) <= window / 2:
                best = max(best, v)
        out.append(best)
    return out


def naive_events(gts, vals, threshold, min_duration):
    # independent reference: walks each run below the threshold point by
    # point, and lists the events as (kind, gt_start, gt_end, peak_value)
    gts = [float(gt) for gt in gts]
    vals = [float(v) for v in vals]
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
            events.append(("revival", gts[a], gts[b], max(vals[a:b + 1])))
        events.append(("collapse", gts[i], gts[j], max(vals[i:j + 1])))
        prev_end = j
    if prev_end + 1 < npts:
        a = prev_end + 1
        events.append(("revival", gts[a], gts[-1], max(vals[a:])))
    return events


def rows(events):
    """The four event arrays as a list of (kind, gt_start, gt_end, peak_value)."""
    return list(zip(*(a.tolist() for a in events)))


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
    return gts, vals


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
        with pytest.raises(ValueError, match=re.escape(
                f"steps must be an integer in [1, {2**53}]")):
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
                                        discord_method="brute"))
        assert (abs(closed.discord - brute.discord) <= 0.0021 + 5e-4).all()
        # both decompositions split the same mutual information
        for b in (closed, brute):
            assert b.discord + b.classical_correlation == pytest.approx(
                b.mutual_information, abs=1e-9)

    def test_brute_method_gives_the_brute_force_cli_rows(self, capsys):
        # the one grid of these small ones where the two routes differ in
        # a printed digit
        argv = ["evolve", "--n", "7", "--r", "0.65", "--gt-max", "33", "--steps", "40"]
        columns = {}
        for method in DISCORD_METHODS:
            assert main(argv + ["--discord", method]) == 0
            columns[method] = [row.split(",")[10]
                               for row in capsys.readouterr().out.splitlines()[1:]]
        assert columns["brute"] != columns["closed"]
        batch = time_series(SweepConfig(n=7, r=0.65, gt_max=33, steps=40,
                                        discord_method="brute"))
        assert [_fmt(d) for d in batch.discord.tolist()] == columns["brute"]

    @pytest.mark.parametrize("method", ["Brute", "closed-form", "", None, 1,
                                        ("closed",), np.array(["brute", "closed"])],
                             ids=["Brute", "closed-form", "empty", "None", "int",
                                  "tuple", "array"])
    def test_unknown_method_rejected(self, method):
        # never the closed-form numbers under another name
        message = f"discord method must be 'closed' or 'brute', got {method!r}"
        cfg = SweepConfig(n=1, r=0.3, gt_max=4.0, steps=8, discord_method=method)
        for call in (lambda: time_series(cfg), lambda: next(sweep_batches(cfg, 4)),
                     lambda: correlation_batch([0.0], XBatch.of(werner_state(0.3)), method)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


class TestEnvelope:
    def test_all_zero(self):
        assert (envelope(0.1 * np.arange(50), np.zeros(50), 1.0) == 0.0).all()

    def test_constant(self):
        assert (envelope(0.1 * np.arange(50), np.full(50, 0.7), 1.0) == 0.7).all()

    def test_abs_sine(self):
        gts = [i * 4 * math.pi / 8 for i in range(9)]  # grid hits the peaks
        vals = [abs(math.sin(gt)) for gt in gts]
        env = envelope(gts, vals, math.pi)
        for gt, value, expected in zip(gts, env, naive_envelope(gts, vals, math.pi)):
            assert value == expected
            has_peak = any(abs(p - gt) <= math.pi / 2 for p in
                           (math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2, 7 * math.pi / 2))
            if has_peak:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_reference(self):
        rng = seeded_rng(31)
        gts = np.sort(rng.uniform(0, 10, size=200))
        vals = rng.random(200)
        env = envelope(gts, vals, 1.3)
        assert env.shape == (200,)
        assert np.array_equal(env, naive_envelope(gts, vals, 1.3))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            envelope([], [], 1.0)
        with pytest.raises(ValueError):
            envelope([0.0, 1.0], [1.0, 2.0], 5.0)  # window wider than span

    def test_rejects_bad_gt(self):
        # unsorted, the window of gt = 1.0 would take 5.0 from gt = 2.0
        with pytest.raises(ValueError, match="non-decreasing, got 1.0 at index 2"):
            envelope([0, 2, 1, 3, 4], [1, 5, 0, 0, 0], 1.0)
        with pytest.raises(ValueError, match="got nan at index 1"):
            envelope([0, math.nan, 2, 3, 4], [1, 5, 0, 0, 0], 1.0)

    def test_nan_value_propagates(self):
        env = envelope([0.0, 1.0, 2.0, 3.0], [math.nan, 0.0, 0.0, 0.0], 2.5)
        assert np.isnan(env[:2]).all()
        assert list(env[2:]) == [0.0, 0.0]


class TestDetect:
    def test_all_zero_single_collapse(self):
        kind, start, end, _ = detect_collapse_revival(0.01 * np.arange(500), np.zeros(500),
                                                      0.1, 0.5)
        assert kind.tolist() == ["collapse"]
        assert start[0] == 0.0
        assert end[0] == pytest.approx(4.99)

    def test_everywhere_above_threshold(self):
        events = detect_collapse_revival(0.01 * np.arange(500), np.ones(500), 0.1, 0.5)
        assert [a.shape for a in events] == [(0,)] * 4

    def test_threshold_above_range(self):
        gts = 0.01 * np.arange(500)
        kind, _, _, _ = detect_collapse_revival(gts, np.abs(np.sin(gts)), 2.0, 0.5)
        assert kind.tolist() == ["collapse"]

    def test_step_signal(self):
        # 0 on [0,1), 1 on [1,2), 0 on [2,3): collapse, revival, collapse
        env = [0.0 if (i < 100 or i >= 200) else 1.0 for i in range(300)]
        kind, start, end, peak = detect_collapse_revival(0.01 * np.arange(300), env, 0.5, 0.5)
        assert kind.tolist() == ["collapse", "revival", "collapse"]
        assert start[1] == pytest.approx(1.0)
        assert end[1] == pytest.approx(1.99)
        assert peak[1] == 1.0

    def test_short_dips_are_absorbed(self):
        # a dip shorter than min_duration must not split the revival
        vals = [1.0] * 300
        for i in range(140, 150):
            vals[i] = 0.0  # 0.1 wide dip
        for i in range(0, 60):
            vals[i] = 0.0  # 0.6 wide initial collapse
        kind, _, end, _ = detect_collapse_revival(0.01 * np.arange(300), vals, 0.5, 0.5)
        assert kind.tolist() == ["collapse", "revival"]
        assert end[1] == pytest.approx(2.99)

    def test_amplitude_modulated_signal(self):
        # fast oscillation under a slow envelope that dies at multiples
        # of 2*pi; only those nulls are wide enough to count
        gts = np.linspace(0.0, 4 * math.pi, 4001)
        vals = np.abs(np.sin(25 * gts) * np.sin(0.5 * gts))
        kind, start, end, _ = detect_collapse_revival(gts, vals, 0.1, 0.3)
        collapse = kind == "collapse"
        assert ((start <= 2 * math.pi) & (2 * math.pi <= end))[collapse].any()
        assert (kind == "revival").any()
        assert (collapse[1:] != collapse[:-1]).all()  # alternation
        assert (np.diff(start) >= 0).all()

    def test_returns_four_arrays_named_after_the_csv_columns(self):
        gts = 0.25 * np.arange(8)
        kind, start, end, peak = detect_collapse_revival(
            gts, [1, 1, 0, 0, 0, 1, 0.5, 1], 0.4, 0.5)
        assert kind.dtype.kind == "U" and start.dtype == end.dtype == peak.dtype == float
        assert rows((kind, start, end, peak)) == [("revival", 0.0, 0.25, 1.0),
                                                  ("collapse", 0.5, 1.0, 0.0),
                                                  ("revival", 1.25, 1.75, 1.0)]

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            detect_collapse_revival([0.0, 1.0], [1.0, 1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            detect_collapse_revival([0.0, 1.0], [1.0, 1.0], 0.1, -1.0)

    def test_rejects_bad_gt(self):
        env = [0.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError, match="at index 2"):
            detect_collapse_revival([0.0, 1.0, 0.5, 2.0], env, 0.1, 0.5)
        with pytest.raises(ValueError, match="got inf at index 3"):
            detect_collapse_revival([0.0, 1.0, 1.5, math.inf], env, 0.1, 0.5)

    def test_empty(self):
        assert rows(detect_collapse_revival([], [], 0.1, 0.5)) == []

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
        gts = 0.25 * np.arange(len(vals))
        env = 0.1 + 0.8 * np.array(vals) + 0.01 * np.arange(len(vals))
        for min_duration in (0.125, 0.25, 0.5, 0.75, 5.0):
            events = detect_collapse_revival(gts, env, 0.5, min_duration)
            assert rows(events) == naive_events(gts, env, 0.5, min_duration)

    def test_matches_naive_events_on_random_steps(self):
        rng = seeded_rng(7)
        compared = 0
        for _ in range(300):
            gts, env = step_signal(rng, int(rng.integers(1, 60)))
            for min_duration in (0.25, 0.5, 1.0):
                expected = naive_events(gts, env, 0.5, min_duration)
                assert rows(detect_collapse_revival(gts, env, 0.5, min_duration)) == expected
                compared += len(expected)
        assert compared > 1000


class TestFirstOnset:
    def test_absent(self):
        assert first_onset([0.0, 1.0], [0.0, 0.05], 0.1) is None

    def test_step(self):
        assert first_onset([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.5, 0.6], 0.1) == 2.0

    def test_strict_inequality(self):
        assert first_onset([0.0], [0.1], 0.1) is None

    def test_empty(self):
        assert first_onset([], []) is None

    def test_rejects_bad_eps_and_gt(self):
        with pytest.raises(ValueError, match="eps must be a finite real number > 0, got nan"):
            first_onset([0.0], [1.0], math.nan)
        with pytest.raises(ValueError, match="non-decreasing, got 0.5 at index 2"):
            first_onset([0.0, 1.0, 0.5], [0.0, 0.0, 1.0], 0.1)
        with pytest.raises(ValueError, match="got nan at index 0"):
            first_onset([math.nan, 1.0], [1.0, 0.0], 0.1)

    def test_discord_precedes_concurrence(self):
        batch = time_series(SweepConfig(n=0, r=0.0, gt_max=10.0, steps=2000))
        d_on = first_onset(batch.gt, batch.discord, 1e-3)
        c_on = first_onset(batch.gt, batch.concurrence, 1e-3)
        assert d_on is not None and c_on is not None
        assert d_on < c_on


_GT, _VALUES = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.1, 0.9, 0.1, 0.9])
# (call with the float parameter v, the message that rejects v), per parameter
_FLOAT_PARAMETERS = [
    (lambda v: time_series(SweepConfig(n=1, r=v, gt_max=1.0, steps=2)).discord,
     "r must be a finite real number in [0, 1], got "),
    (lambda v: time_series(SweepConfig(n=1, r=0.5, gt_max=v, steps=2)).discord,
     "gt_max must be a finite real number > 0, got "),
    (lambda v: envelope(_GT, _VALUES, v), "window must be a finite real number > 0, got "),
    (lambda v: detect_collapse_revival(_GT, _VALUES, v, 0.5),
     "collapse_threshold must be a finite real number > 0, got "),
    (lambda v: detect_collapse_revival(_GT, _VALUES, 0.5, v),
     "min_duration must be a finite real number > 0, got "),
    (lambda v: first_onset(_GT, _VALUES, v), "eps must be a finite real number > 0, got "),
]
_PARAMETER_IDS = ["r", "gt_max", "window", "collapse_threshold", "min_duration", "eps"]


@pytest.mark.parametrize("call, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
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


# each float parameter given an int too large for a float: not finite, so
# its own check rejects it
@pytest.mark.parametrize("call, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
def test_float_parameters_take_ints_beyond_the_float_range(call, message):
    # not a bare OverflowError from converting the int to a float
    for value in (10**400, -10**400):
        with pytest.raises(ValueError, match=re.escape(f"{message}{value!r}")):
            call(value)


# (gt, values) of the wrong shapes: unequal lengths, 2-d values, and
# (gt, value) rows passed as gt
_BAD_SHAPES = [(_GT, _VALUES[:3]), (_GT, _VALUES[:, None]),
               (np.column_stack([_GT, _VALUES]), _VALUES)]


@pytest.mark.parametrize("gt, values", _BAD_SHAPES, ids=["unequal", "2d-values", "2d-gt"])
@pytest.mark.parametrize("call", [
    lambda gt, values: envelope(gt, values, 1.0),
    lambda gt, values: detect_collapse_revival(gt, values, 0.5, 0.5),
    lambda gt, values: first_onset(gt, values, 0.5),
], ids=["envelope", "detect_collapse_revival", "first_onset"])
def test_series_shapes_rejected(call, gt, values):
    # the plain message, not a numpy error text or a result
    with pytest.raises(ValueError) as err:
        call(gt, values)
    assert str(err.value) == ("series gt and values must be 1-d arrays of equal length, "
                              f"got shapes {gt.shape} and {values.shape}")


# (gt, values) that are not integers or floats, and the plain message each gets
_BAD_DTYPES = [
    ([[0, 1], [2]], [1, 2], "series gt must be a real number, got a ragged sequence"),
    (["a", "b"], [1, 2], "series gt must be a real number, got dtype <U1"),
    ([0, 1], [1 + 2j, 2], "series values must be a real number, got dtype complex128"),
    ([0, 1], [True, False], "series values must be a number, not a bool"),
    ([0, None], [1, 2], "series gt must be a real number, got dtype object"),
    ([0, 1], [1, [2]], "series values must be a real number, got a ragged sequence"),
]


@pytest.mark.parametrize("gt, values, message", _BAD_DTYPES,
                         ids=["ragged", "str", "complex", "bool", "object", "ragged-values"])
@pytest.mark.parametrize("call", [
    lambda gt, values: envelope(gt, values, 0.5),
    lambda gt, values: detect_collapse_revival(gt, values, 0.5, 0.5),
    lambda gt, values: first_onset(gt, values, 0.5),
], ids=["envelope", "detect_collapse_revival", "first_onset"])
def test_series_dtypes_rejected(call, gt, values, message):
    # not numpy's or Python's own error text, and bools not read as 0 and 1
    with pytest.raises(ValueError) as err:
        call(gt, values)
    assert str(err.value) == message


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

    @pytest.mark.parametrize("method", DISCORD_METHODS)
    def test_marginal_entropies_report_atom_a_first(self, method):
        # unchecked states: B's argument p11 + p33 = 1.25 is out of range in
        # state 0, A's p11 + p22 = 1.5 in state 1; one binary-entropy call
        # takes both marginals, A's first, as entropy_a ran before entropy_b
        states = XBatch(*(np.array(c) for c in ([0.5, 0.75], [0.0, 0.75], [0.75, 0.0],
                                                [-0.25, -0.5], [0.0, 0.0], [0.0, 0.0])))
        with pytest.raises(ValueError) as err:
            correlation_batch([0.0, 1.0], states, method)
        assert str(err.value) == "binary entropy argument must lie in [0, 1], got 1.5"

    @pytest.mark.parametrize("gt, message", [
        ([0.0, 1.0, 2.0], "gt must be a 1-d array of one angle per state, shape (1,), "
                          "got shape (3,)"),
        ([], "gt must be a 1-d array of one angle per state, shape (1,), got shape (0,)"),
        ([[0.5]], "gt must be a 1-d array of one angle per state, shape (1,), "
                  "got shape (1, 1)"),
        (0.5, "gt must be a 1-d array of one angle per state, shape (1,), got shape ()"),
        ([True], "gt must be a number, not a bool"),
        (["a"], "gt must be a real number, got dtype <U1"),
        ([0.5j], "gt must be a real number, got dtype complex128"),
    ], ids=["long", "empty", "2-d", "scalar", "bool", "str", "complex"])
    def test_correlation_batch_gt_rejected(self, gt, message):
        # one angle per state, not a batch whose arrays disagree in length
        with pytest.raises(ValueError) as err:
            correlation_batch(gt, XBatch.of(werner_state(0.3)))
        assert str(err.value) == message

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
        with pytest.raises(ValueError, match=re.escape(
                f"photon number n must be an integer in [0, {2**53}], got {2**53 + 1}")):
            SweepConfig(n=2**53 + 1, r=0.0, gt_max=1.0, steps=10)

    @pytest.mark.parametrize("gt_max", [np.int64(2**62), 2**70, np.uint8(200)],
                             ids=["int64", "int", "uint8"])
    def test_integer_gt_max_gives_the_grid_of_its_float(self, gt_max):
        # an integer gt_max once made an int64 grid, whose products wrapped
        # to negative angles (int64) or raised OverflowError (2**70)
        got, want = (time_series(SweepConfig(n=1, r=0.5, gt_max=g, steps=3))
                     for g in (gt_max, float(gt_max)))
        s, t = got.states, want.states
        for a, b in ((got.gt, want.gt), (s.p11, t.p11), (s.p22, t.p22), (s.p33, t.p33),
                     (s.p44, t.p44), (s.re_c23, t.re_c23), (s.im_c23, t.im_c23),
                     (got.discord, want.discord), (got.concurrence, want.concurrence),
                     (got.classical_correlation, want.classical_correlation),
                     (got.mutual_information, want.mutual_information)):
            assert (a.view(np.int64) == b.view(np.int64)).all()
        # the float's overflow check, on an integer grid as on a float one
        with pytest.raises(ValueError, match="gt_max 1e\\+308 is too large"):
            SweepConfig(n=0, r=0.0, gt_max=10**308, steps=10)
