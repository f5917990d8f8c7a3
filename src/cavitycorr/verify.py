"""Seeded cross-validation of the closed-form paths against their oracles.

Each chunk of samples is checked with one call of each route, on arrays;
every value that enters the report is checked finite first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import elementwise as ew
from .evolution import MAX_PHOTONS, evolve_batch
from .fock import sequential_pass_batch
from .measures import discord_closed
from .sweep import correlation_batch
from .xstate import XBatch, XState, make_xbatch

# Samples drawn and checked together.  Smaller than the sweep's chunk: the
# Fock oracle holds (5, 4, 2, 2) float arrays per sample, so 4096-sample
# chunks raised the own peak RSS of ``verify --samples 5000`` from 41 to
# 54 MB and saved no time.
VERIFY_CHUNK = 1024


def _sampled_states(u: np.ndarray) -> XBatch:
    """Random valid X states from uniform draws ``u``, one column of six per state.

    Populations are exponential weights (from the first four draws)
    normalized to one; the coherence is uniform in the disk of radius
    sqrt(p22*p33) (from the last two), covering the positivity boundary.
    """
    w = -np.log(u[:4])
    w /= ((w[0] + w[1]) + w[2]) + w[3]
    radius = np.sqrt(w[1] * w[2]) * np.sqrt(u[4])
    c23 = radius * np.exp(2j * math.pi * u[5])
    return make_xbatch(*w, c23.real.copy(), c23.imag.copy())


def sample_xstate(rng: np.random.Generator) -> XState:
    """Random valid X state from six uniform draws of ``rng``, covering the positivity boundary."""
    return _sampled_states(rng.random((6, 1)))[0]


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's uniform double from each raw 64-bit word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


def _draw(rng: np.random.Generator, count: int, n_max: int, gt_max):
    """The uniforms (6, count), n and gt of ``count`` samples, read from the raw stream.

    Bit for bit what ``rng.random(6)``, ``rng.integers(0, n_max + 1)`` and
    ``rng.uniform(0.0, gt_max)`` per sample would give, and ``rng`` is left
    in the same state, its 32-bit buffer included.  Each sample takes six
    words for its uniforms, then n's draws, then one word for gt (``0.0 +
    gt_max * d`` is ``gt_max * d``).  numpy draws nothing for n_max = 0.
    Otherwise one loop over the words, as Python ints, draws n by Lemire's
    method: ``x * bound`` is rejected while its low k bits fall below
    ``2**k % bound``, and n is its high bits.  k = 64 for whole words when
    the bound is above 2**32; otherwise k = 32 for the halves of PCG64's
    buffer, the low half of a new word drawn and its high half held for
    the next draw.  The loop records where each sample starts, and numpy
    gathers the uniforms and gt there.  No word is read that the
    per-sample calls would not read.
    """
    bitgen = rng.bit_generator
    if n_max == 0:
        words = bitgen.random_raw(7 * count).reshape(count, 7)
        return (_doubles(words[:, :6].T), np.zeros(count, dtype=np.int64),
                gt_max * _doubles(words[:, 6]))
    bound = n_max + 1   # a Python int (run_verification's gate), so nothing overflows
    k = 64 if bound > 2**32 else 32
    mask, threshold = (1 << k) - 1, (1 << k) % bound
    state = bitgen.state
    held, half = (0, 0) if k == 64 else (state["has_uint32"], state["uinteger"])
    raw, words, at, n = [], [], [], []
    pos = 0

    def read(size):
        raw.append(bitgen.random_raw(size))
        words.extend(raw[-1].tolist())

    for left in range(count, 0, -1):
        # read no more words than the samples left must take
        least = 8 * left if k == 64 else 7 * left + (left - held + 1) // 2
        if len(words) - pos < least:
            read(least - (len(words) - pos))
        at.append(pos)
        pos += 6
        while True:
            if held:
                x, held = half, 0
            else:
                if pos == len(words):
                    read(1)
                x, pos = words[pos], pos + 1
                if k == 32:
                    x, half, held = x & 0xFFFFFFFF, x >> 32, 1
            m = x * bound
            if m & mask >= threshold:
                break
        n.append(m >> k)
        if pos == len(words):
            read(1)
        pos += 1
    if k == 32:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = held, half
        bitgen.state = state
    # a sample's gt is the word before the next sample's first
    stream, at = np.concatenate(raw), np.array(at + [pos])
    return (_doubles(stream[at[:-1] + np.arange(6)[:, None]]), np.array(n, dtype=np.int64),
            gt_max * _doubles(stream[at[1:] - 1]))


def _seeded_chunks(rng, samples, n_max, gt_max):
    """Yield (first index, states, n, gt) for ``VERIFY_CHUNK`` samples at a time.

    ``states`` is an :class:`XBatch`, ``n`` and ``gt`` are arrays.  Each
    sample is what its state's six uniforms, then n, then gt drawn from
    ``rng`` would give: :func:`_draw` reads each chunk's raw words, and
    leaves ``rng`` where those calls would, so the samples do not depend
    on the chunk size and each state is the one :func:`sample_xstate`
    would draw.
    """
    chunk = VERIFY_CHUNK
    for start in range(0, samples, chunk):
        u, n, gt = _draw(rng, min(chunk, samples - start), n_max, gt_max)
        yield start, _sampled_states(u), n, gt


@dataclass
class VerificationReport:
    samples: int
    seed: int
    n_max: int
    gt_max: float
    tol_evolve: float
    tol_discord: float
    max_evolve_dev: float = 0.0
    max_discord_dev: float = 0.0
    max_trace_drift: float = 0.0
    min_population: float = 0.0
    max_coherence_excess: float = 0.0
    max_identity_gap: float = 0.0
    failures: list[str] = field(default_factory=list)

    # One verdict per check line; ``passed`` is their conjunction.  Every
    # deviation is checked finite before it enters a maximum (a non-finite
    # one raises ValueError), so each verdict compares numbers.
    @property
    def evolve_ok(self) -> bool:
        return self.max_evolve_dev <= self.tol_evolve

    @property
    def discord_ok(self) -> bool:
        return self.max_discord_dev <= self.tol_discord

    @property
    def states_ok(self) -> bool:
        return (self.max_trace_drift <= 1e-12 and self.min_population >= -1e-12
                and self.max_coherence_excess <= 1e-12)

    @property
    def passed(self) -> bool:
        return self.evolve_ok and self.discord_ok and self.states_ok

    def render(self) -> str:
        def fmt(v):
            return f"{v:.12g}"

        def verdict(ok):
            return "PASS" if ok else "FAIL"

        lines = [
            f"verify: samples={self.samples} seed={self.seed} "
            f"n_max={self.n_max} gt_max={fmt(self.gt_max)} "
            f"tol_evolve={fmt(self.tol_evolve)} tol_discord={fmt(self.tol_discord)}",
            f"evolve   max |closed form - oracle| = {fmt(self.max_evolve_dev)}"
            f"  [tol {fmt(self.tol_evolve)}]  {verdict(self.evolve_ok)}",
            f"discord  max |closed - brute|      = {fmt(self.max_discord_dev)}"
            f"  [tol {fmt(self.tol_discord)}]  {verdict(self.discord_ok)}",
            f"states   max trace drift = {fmt(self.max_trace_drift)}"
            f"  min population = {fmt(self.min_population)}"
            f"  max coherence excess = {fmt(self.max_coherence_excess)}  "
            f"{verdict(self.states_ok)}",
            f"identity max |D + C' - I| = {fmt(self.max_identity_gap)}",
        ]
        lines.extend(self.failures)
        lines.append(f"overall: {verdict(self.passed)}")
        return "\n".join(lines) + "\n"


def run_verification(samples: int, seed: int, n_max: int = 12,
                     gt_max: float = 20.0, tol_evolve: float = 1e-10,
                     tol_discord: float = 0.0026) -> VerificationReport:
    """Draw seeded random states and parameters, cross-check every route.

    Checks, per sample: the corrected closed-form evolution against the
    exact sequential model; closed-form discord against the brute-force
    minimization; preservation of the state invariants by the evolved
    state; and the identity D + C' = I.  Samples are drawn and checked
    ``VERIFY_CHUNK`` at a time, as arrays; the report does not depend on
    that size.  The brute-force measures come from :func:`correlation_batch`,
    as in a ``--discord brute`` sweep, so a non-finite or out-of-range
    value raises ``ValueError``; so does a non-finite closed-form discord,
    from one :func:`discord_closed` call per chunk, naming its sample.
    """
    samples = ew.scalar(samples, "samples", int, 1)
    seed = ew.scalar(seed, "seed", int, 0)
    n_max = ew.scalar(n_max, "n_max", int, 0, MAX_PHOTONS)
    gt_max = ew.scalar(gt_max, "gt_max", float, 0, open_lower=True)
    tol_evolve = ew.scalar(tol_evolve, "tol_evolve", float, 0)
    tol_discord = ew.scalar(tol_discord, "tol_discord", float, 0)
    rng = np.random.default_rng(seed)
    report = VerificationReport(samples, seed, n_max, gt_max,
                                tol_evolve, tol_discord)
    report.min_population = math.inf

    def describe(state):
        return (f"state=({state.p11:.12g}, {state.p22:.12g}, {state.p33:.12g}, "
                f"{state.p44:.12g}, {state.c23.real:.12g}{state.c23.imag:+.12g}j)")

    for start, states, ns, gts in _seeded_chunks(rng, samples, n_max, gt_max):
        brute = correlation_batch(gts, states, "brute")
        discord = discord_closed(states)
        ew.raise_first([(~np.isfinite(discord), lambda i: (
            f"sample {start + i}: closed-form discord must be finite, got "
            f"{float(discord[i])!r} at n={int(ns[i])} gt={float(gts[i]):.12g} "
            + describe(states[i])))])
        closed = evolve_batch(states, ns, gts)
        oracle = sequential_pass_batch(states, ns, gts)
        dev = np.max([abs(closed.p11 - oracle.p11), abs(closed.p22 - oracle.p22),
                      abs(closed.p33 - oracle.p33), abs(closed.p44 - oracle.p44),
                      np.hypot(closed.re_c23 - oracle.re_c23,
                               closed.im_c23 - oracle.im_c23)], axis=0)
        drift = abs((((closed.p11 + closed.p22) + closed.p33) + closed.p44) - 1.0)
        floor = np.min([closed.p11, closed.p22, closed.p33, closed.p44], axis=0)
        excess = np.maximum(0.0, closed.abs2_c23() - closed.p22 * closed.p33)
        ddev = abs(discord - brute.discord)
        gap = abs(brute.discord + brute.classical_correlation - brute.mutual_information)

        # every value above is finite: the evolved batches are validated and
        # both discords checked
        report.max_evolve_dev = float(np.max(dev, initial=report.max_evolve_dev))
        report.max_trace_drift = float(np.max(drift, initial=report.max_trace_drift))
        report.min_population = float(np.min(floor, initial=report.min_population))
        report.max_coherence_excess = float(np.max(excess, initial=report.max_coherence_excess))
        report.max_discord_dev = float(np.max(ddev, initial=report.max_discord_dev))
        report.max_identity_gap = float(np.max(gap, initial=report.max_identity_gap))

        broken = (drift > 1e-12) | (floor < -1e-12) | (excess > 1e-12)
        for i in np.flatnonzero((dev > tol_evolve) | broken | (ddev > tol_discord)).tolist():
            k, state, n, gt = start + i, states[i], int(ns[i]), float(gts[i])
            if dev[i] > tol_evolve:
                report.failures.append(
                    f"FAIL sample {k}: evolve deviation {dev[i]:.12g} > {tol_evolve:.12g} "
                    f"at n={n} gt={gt:.12g} " + describe(state))
            if broken[i]:
                report.failures.append(
                    f"FAIL sample {k}: evolved state invariants violated "
                    f"(trace drift {drift[i]:.12g}, min population {floor[i]:.12g}, "
                    f"coherence excess {excess[i]:.12g}) at n={n} gt={gt:.12g} "
                    + describe(state))
            if ddev[i] > tol_discord:
                report.failures.append(
                    f"FAIL sample {k}: discord deviation {ddev[i]:.12g} > "
                    f"{tol_discord:.12g} " + describe(state))

    return report
