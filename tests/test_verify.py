"""Seeded sampling of verify: the batched draws equal the per-sample formula bit for bit.

The reference draws one sample at a time, exactly as the benchmark's
replay (perfbench/checks.py, ``replay_verify``) spells it out: four
exponential weights, the coherence's radius and phase, then n and gt.
The batched draw reads the seeded generator's raw stream, a chunk in a
few calls, and carries the words it has not used, and the held half of a
32-bit draw, over to the next chunk.
The float parameters of ``run_verification`` reject bools and non-numbers.
The state-invariant checks fail just above their 1e-12 bound, and each
violation gets its failure line.
"""
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
    and the generator's state after the last.

    ``make_xstate``, which the replay also calls, keeps a valid state's
    values as they are, so it is left out here.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        w = -np.log(rng.random(4))
        w /= w.sum()
        radius = math.sqrt(w[1] * w[2]) * math.sqrt(rng.random())
        c23 = radius * np.exp(2j * math.pi * rng.random())
        rows.append((w[0], w[1], w[2], w[3], c23.real, c23.imag,
                     int(rng.integers(0, n_max + 1)), float(rng.uniform(0.0, GT_MAX))))
    cols = list(zip(*rows))
    return (_bits(cols[:6]), np.array(cols[6], dtype=np.int64), _bits(cols[7]),
            rng.bit_generator.state)


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
# the words read ahead at the chunk's start run out and the draw reads more.
# Chunks of 1 and 2 start nearly every sample from words carried over from
# the chunk before, with seed 47's rejection among them.
REJECTING = (2**31, 2**53)


@pytest.mark.parametrize("chunk, seeds, n_max", [
    pytest.param(chunk, seeds, n_max,
                 id=str(n_max) if chunk == VERIFY_CHUNK else f"chunk{chunk}-{n_max}")
    for chunk, seeds in ((1, range(44, 50)), (2, range(44, 50)), (7, range(50)), (31, (47,)),
                         (VERIFY_CHUNK, (0, 1)))
    for n_max in (0, 12, 2**31, 2**32 - 1, 2**32, 2**53)])
def test_seeded_chunks_reproduce_the_per_sample_formula(monkeypatch, chunk, seeds, n_max):
    monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
    sizes = [s for s in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 52) if s]
    rejected = False
    for seed in seeds:
        drawn = max(*sizes, ONE_AT_A_TIME)
        want_states, want_n, want_gt, end = _reference(seed, n_max, drawn)
        rejected |= _rejected(seed, n_max, drawn, end)
        for samples in sizes:
            chunks = list(_seeded_chunks(seed, samples, n_max, GT_MAX))
            assert [c[0] for c in chunks] == list(range(0, samples, chunk))
            assert all(len(states) == len(n) == len(gt) <= chunk
                       for _, states, n, gt in chunks)
            assert all(len(c[1]) == chunk for c in chunks[:-1])
            states = _bits(np.concatenate([_columns(c[1]) for c in chunks], axis=1))
            assert (states == want_states[:, :samples]).all(), (seed, samples)
            assert (np.concatenate([c[2] for c in chunks]) == want_n[:samples]).all()
            assert (_bits(np.concatenate([c[3] for c in chunks]))
                    == want_gt[:samples]).all()

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


class _CountingPCG64(np.random.PCG64):
    """PCG64 that counts its ``random_raw`` calls."""
    calls = 0

    def random_raw(self, size=None, output=True):
        self.calls += 1
        return super().random_raw(size, output)


# The bound, derived before measuring.  At n_max = 2**31 a 32-bit draw is
# rejected with probability (2**31 - 1) / 2**32, about one half, so n takes
# two half-words on average and a sample eight words: as many as the draw
# reads ahead per sample left.  So the words read ahead run out with
# probability about one half, each further read again brings eight words
# per sample left, and a chunk makes 1 + 1/2 + 1/4 + ... = 2 calls on
# average and more than c with probability about 2**-c.  64 chunks then
# make at most 3 * 64 calls together, and none more than 12 (a chance of
# about 64 * 2**-12, under 2 %, on fresh seeds).  Reading no word beyond
# what the samples left must take made a call for about 370 of every 1000
# samples.
def test_draw_reads_a_chunk_in_few_calls(monkeypatch):
    calls = []
    for seed in range(64):
        bitgen = _CountingPCG64(seed)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: np.random.Generator(bitgen))
        list(_seeded_chunks(seed, VERIFY_CHUNK, 2**31, GT_MAX))
        calls.append(bitgen.calls)
    assert min(calls) >= 1 and sum(calls) <= 3 * len(calls) and max(calls) <= 12, calls


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
    assert VerificationReport(1, 0, 0, 1.0, 1e-10, 0.0026, **{name: value / 2}).states_ok
    bad = VerificationReport(1, 0, 0, 1.0, 1e-10, 0.0026, **{name: value})
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
