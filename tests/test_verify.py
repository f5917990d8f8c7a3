"""Seeded sampling of verify: the batched draws equal the per-sample formula bit for bit.

The reference draws one sample at a time, exactly as the benchmark's
replay (perfbench/checks.py, ``replay_verify``) spells it out: four
exponential weights, the coherence's radius and phase, then n and gt.
The batched draw reads the generator's raw stream, and must leave the
generator in the reference's state, its 32-bit buffer included.
The float parameters of ``run_verification`` reject bools and non-numbers.
The state-invariant checks fail just above their 1e-12 bound, and each
violation gets its failure line.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from cavitycorr import verify
from cavitycorr.verify import (VERIFY_CHUNK, VerificationReport, _seeded_chunks,
                               run_verification, sample_xstate)
from cavitycorr.xstate import XBatch, XState

GT_MAX = 20.0
# samples drawn through sample_xstate per seed, each followed by its n and gt
ONE_AT_A_TIME = 64


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _reference(seed, n_max, samples):
    """Bits of the state columns (p11..p44, re, im), n and the bits of gt, per sample,
    and the generator's state after each sample.

    ``make_xstate``, which the replay also calls, keeps a valid state's
    values as they are, so it is left out here.
    """
    rng = np.random.default_rng(seed)
    rows, states = [], []
    for _ in range(samples):
        w = -np.log(rng.random(4))
        w /= w.sum()
        radius = math.sqrt(w[1] * w[2]) * math.sqrt(rng.random())
        c23 = radius * np.exp(2j * math.pi * rng.random())
        rows.append((w[0], w[1], w[2], w[3], c23.real, c23.imag,
                     int(rng.integers(0, n_max + 1)), float(rng.uniform(0.0, GT_MAX))))
        states.append(rng.bit_generator.state)
    cols = list(zip(*rows))
    return _bits(cols[:6]), np.array(cols[6], dtype=np.int64), _bits(cols[7]), states


def _rejected(seed, n_max, samples, state):
    """Whether ``samples`` samples that end in ``state`` took more raw words than
    one draw of n each would (a 64-bit draw takes a word, a 32-bit one half
    a word, n_max = 0 none): some draw of n was rejected."""
    n_words = 0 if n_max == 0 else samples if n_max >= 2**32 else (samples + 1) // 2
    return (np.random.PCG64(seed).advance(7 * samples + n_words).state["state"]
            != state["state"])


def _columns(states):
    return np.stack([states.p11, states.p22, states.p33, states.p44,
                     states.re_c23, states.im_c23])


# A chunk of 7 crosses every chunk bound with 50 seeds at little cost, and
# starts every other chunk with the 32-bit buffer full; the real VERIFY_CHUNK
# runs two seeds per n_max, under the n_max id alone.  n_max = 2**31 rejects
# about half of the 32-bit draws, 2**32 - 1 takes the raw half, 2**32 is the
# smallest 64-bit bound, and 2**53 rejects a 64-bit draw with probability
# about 4.9e-4: seed 47 at sample 30 and seed 1 at sample 587 (found by search).
# A chunk of 31 puts seed 47's rejection on a chunk's last sample, where
# the words read at its start run out and the draw reads on one at a time.
REJECTING = (2**31, 2**53)


@pytest.mark.parametrize("chunk, seeds, n_max", [
    pytest.param(chunk, seeds, n_max,
                 id=str(n_max) if chunk == VERIFY_CHUNK else f"chunk{chunk}-{n_max}")
    for chunk, seeds in ((7, range(50)), (31, (47,)), (VERIFY_CHUNK, (0, 1)))
    for n_max in (0, 12, 2**31, 2**32 - 1, 2**32, 2**53)])
def test_seeded_chunks_reproduce_the_per_sample_formula(monkeypatch, chunk, seeds, n_max):
    monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
    sizes = (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 52)
    rejected = False
    for seed in seeds:
        want_states, want_n, want_gt, want_rng = _reference(seed, n_max, max(sizes))
        rejected |= _rejected(seed, n_max, max(sizes), want_rng[-1])
        for samples in sizes:
            rng = np.random.default_rng(seed)
            chunks = list(_seeded_chunks(rng, samples, n_max, GT_MAX))
            assert [c[0] for c in chunks] == list(range(0, samples, chunk))
            assert all(len(states) == len(n) == len(gt) <= chunk
                       for _, states, n, gt in chunks)
            assert all(len(c[1]) == chunk for c in chunks[:-1])
            states = _bits(np.concatenate([_columns(c[1]) for c in chunks], axis=1))
            assert (states == want_states[:, :samples]).all(), (seed, samples)
            assert (np.concatenate([c[2] for c in chunks]) == want_n[:samples]).all()
            assert (_bits(np.concatenate([c[3] for c in chunks]))
                    == want_gt[:samples]).all()
            # the raw stream's position and the 32-bit buffer, as the reference leaves them
            assert rng.bit_generator.state == want_rng[samples - 1], (seed, samples)

        rng = np.random.default_rng(seed)
        for k in range(ONE_AT_A_TIME):
            state = sample_xstate(rng)
            assert isinstance(state, XState)
            got = _bits([state.p11, state.p22, state.p33, state.p44,
                         state.c23.real, state.c23.imag])
            assert (got == want_states[:, k]).all(), (seed, k)
            assert int(rng.integers(0, n_max + 1)) == want_n[k]
            assert _bits(float(rng.uniform(0.0, GT_MAX))) == want_gt[k]
    assert rejected == (n_max in REJECTING)


# each float parameter, and the message that rejects a bad value
_FLOAT_PARAMETERS = [
    ("gt_max", "gt_max must be a finite real number > 0, got "),
    ("tol_evolve", "tol_evolve must be a finite real number >= 0, got "),
    ("tol_discord", "tol_discord must be a finite real number >= 0, got "),
]
_PARAMETER_IDS = [name for name, _ in _FLOAT_PARAMETERS]


@pytest.mark.parametrize("name, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
def test_float_parameters_reject_bools(name, message):
    # gt_max=True would otherwise run, and be printed as gt_max=1
    args = {"samples": 3, "seed": 1, "n_max": 2}
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=re.escape(f"{message}{flag!r}")):
            run_verification(**(args | {name: flag}))
    assert (run_verification(**(args | {name: np.float64(1.0)})).render()
            == run_verification(**(args | {name: 1.0})).render())


@pytest.mark.parametrize("name, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
def test_float_parameters_reject_ints_beyond_the_float_range(name, message):
    # not a bare OverflowError from converting the int to a float
    with pytest.raises(ValueError, match=re.escape(f"{message}{10**400!r}")):
        run_verification(samples=3, seed=1, n_max=2, **{name: 10**400})


@pytest.mark.parametrize("value", ["1", 1 + 0j, None], ids=["str", "complex", "None"])
@pytest.mark.parametrize("name, message", _FLOAT_PARAMETERS, ids=_PARAMETER_IDS)
def test_float_parameters_reject_non_numbers(name, message, value):
    # not a bare TypeError from comparing the value with a float
    with pytest.raises(ValueError, match=re.escape(f"{message}{value!r}")):
        run_verification(samples=3, seed=1, n_max=2, **{name: value})


@pytest.mark.parametrize("name, value", [("max_trace_drift", 2e-12),
                                         ("min_population", -2e-12),
                                         ("max_coherence_excess", 2e-12)])
def test_states_verdict_fails_just_beyond_its_bound(name, value):
    report = VerificationReport(1, 0, 0, 1.0, 1e-10, 0.0026)
    assert report.states_ok and report.passed
    assert dataclasses.replace(report, **{name: value / 2}).states_ok
    bad = dataclasses.replace(report, **{name: value})
    assert not bad.states_ok and not bad.passed
    assert bad.render().splitlines()[3].endswith("FAIL")


def test_coherence_excess_gets_its_failure_line(monkeypatch):
    # make_xbatch rejects an excess above 1e-12, so the evolved batch is
    # built unvalidated: sample 1 gets |c23|^2 = p22*p33 + 1e-9
    evolve_batch = verify.evolve_batch

    def excessive(states, n, gt):
        out = evolve_batch(states, n, gt)
        re_c23, im_c23 = out.re_c23.copy(), out.im_c23.copy()
        re_c23[1], im_c23[1] = math.sqrt(out.p22[1] * out.p33[1] + 1e-9), 0.0
        return XBatch(out.p11, out.p22, out.p33, out.p44, re_c23, im_c23)

    monkeypatch.setattr(verify, "evolve_batch", excessive)
    report = run_verification(samples=3, seed=1, n_max=2)
    assert not report.states_ok
    assert report.max_coherence_excess == pytest.approx(1e-9, rel=1e-6)
    lines = [line for line in report.failures if "invariants violated" in line]
    assert len(lines) == 1 and lines[0].startswith("FAIL sample 1: ")
    assert re.search(r"coherence excess 1(\.0*\d*)?e-09", lines[0])
