"""Seeded cross-validation of the closed-form paths against their oracles."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import elementwise as ew
from .evolution import MAX_PHOTONS, evolve_batch
from .fock import sequential_pass_batch
from .measures import (
    discord_brute_from,
    discord_closed,
    entropy_a,
    entropy_b,
    entropy_joint,
    mutual_information_from,
    _min_conditional_entropy,
)
from .sweep import SWEEP_CHUNK
from .xstate import XBatch, XState, make_xstate


def sample_xstate(rng: np.random.Generator) -> XState:
    """Random valid X state, covering the positivity boundary.

    Populations are exponential weights normalized to one; the coherence
    is uniform in the disk of radius sqrt(p22*p33).
    """
    w = -np.log(rng.random(4))
    w /= w.sum()
    radius = math.sqrt(w[1] * w[2]) * math.sqrt(rng.random())
    c23 = radius * np.exp(2j * math.pi * rng.random())
    return make_xstate(w[0], w[1], w[2], w[3], c23)


def _seeded_chunks(rng, samples, n_max, gt_max):
    """Yield (first index, states, n, gt) for ``SWEEP_CHUNK`` samples at a time.

    ``states`` is a list of :class:`XState`, ``n`` and ``gt`` are arrays.
    State, n and gt are drawn sample after sample, in that order, so the
    samples do not depend on the chunk size.
    """
    chunk = SWEEP_CHUNK
    for start in range(0, samples, chunk):
        drawn = [(sample_xstate(rng), int(rng.integers(0, n_max + 1)),
                  float(rng.uniform(0.0, gt_max)))
                 for _ in range(min(chunk, samples - start))]
        states, n, gt = zip(*drawn)
        yield start, list(states), np.array(n, dtype=np.int64), np.array(gt)


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

    # One verdict per check line; ``passed`` is their conjunction.  A NaN
    # deviation never enters the maxima, so it shows in neither.
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
                     tol_discord: float = 0.0026,
                     grid_points: int = 128) -> VerificationReport:
    """Draw seeded random states and parameters, cross-check every route.

    Checks, per sample: the corrected closed-form evolution against the
    exact sequential model; closed-form discord against the brute-force
    minimization; preservation of the state invariants by the evolved
    state; and the identity D + C' = I.  Samples are drawn and checked
    ``SWEEP_CHUNK`` at a time, as arrays; the report does not depend on
    that size.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if n_max < 0 or not math.isfinite(gt_max) or gt_max <= 0.0:
        raise ValueError("n_max must be >= 0 and gt_max positive and finite")
    if n_max > MAX_PHOTONS:
        raise ValueError(f"n_max must be at most 2**53, got {n_max}")
    for name, tol in (("tol_evolve", tol_evolve), ("tol_discord", tol_discord)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    report = VerificationReport(samples, seed, n_max, gt_max,
                                tol_evolve, tol_discord)
    report.min_population = math.inf

    def describe(state, extra=""):
        return (f"state=({state.p11:.12g}, {state.p22:.12g}, {state.p33:.12g}, "
                f"{state.p44:.12g}, {state.c23.real:.12g}{state.c23.imag:+.12g}j)"
                f"{extra}")

    for start, drawn, ns, gts in _seeded_chunks(rng, samples, n_max, gt_max):
        states = XBatch.stack(drawn)
        m, _ = _min_conditional_entropy(states, grid_points)
        closed = evolve_batch(states, ns, gts)
        oracle = sequential_pass_batch(states, ns, gts)
        # both batches are validated finite, so these elementwise maxima
        # and minima equal Python's max and min of each sample's values
        dev = np.max([abs(closed.p11 - oracle.p11), abs(closed.p22 - oracle.p22),
                      abs(closed.p33 - oracle.p33), abs(closed.p44 - oracle.p44),
                      np.hypot(closed.re_c23 - oracle.re_c23,
                               closed.im_c23 - oracle.im_c23)], axis=0)
        drift = abs((((closed.p11 + closed.p22) + closed.p33) + closed.p44) - 1.0)
        floor = np.min([closed.p11, closed.p22, closed.p33, closed.p44], axis=0)
        excess = np.maximum(0.0, ew.power(closed.abs_c23(), 2) - closed.p22 * closed.p33)

        s_a, s_b, s_ab = entropy_a(states), entropy_b(states), entropy_joint(states)
        brute = discord_brute_from(s_b, s_ab, m)
        # one state per call: a caller may replace ``discord_closed`` by a
        # one-state function, as the benchmark's NaN-hiding check does
        ddev = abs(np.array([discord_closed(state) for state in drawn]) - brute)
        gap = abs(brute + (s_a - m) - mutual_information_from(s_a, s_b, s_ab))

        # folded in sample order as before, so a NaN never enters a maximum
        report.max_evolve_dev = max(report.max_evolve_dev, *dev.tolist())
        report.max_trace_drift = max(report.max_trace_drift, *drift.tolist())
        report.min_population = min(report.min_population, *floor.tolist())
        report.max_coherence_excess = max(report.max_coherence_excess, *excess.tolist())
        report.max_discord_dev = max(report.max_discord_dev, *ddev.tolist())
        report.max_identity_gap = max(report.max_identity_gap, *gap.tolist())

        broken = (drift > 1e-12) | (floor < -1e-12) | (excess > 1e-12)
        for i in np.flatnonzero((dev > tol_evolve) | broken | (ddev > tol_discord)).tolist():
            k, state, n, gt = start + i, drawn[i], int(ns[i]), float(gts[i])
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
