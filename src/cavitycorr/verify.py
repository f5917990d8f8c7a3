"""Seeded cross-validation of the closed-form paths against their oracles."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionParams, evolve
from .fock import sequential_pass
from .measures import (
    discord_closed,
    entropy_a,
    entropy_b,
    entropy_joint,
    mutual_information,
    _min_conditional_entropy,
)
from .xstate import XState, make_xstate


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


def _state_deviation(a: XState, b: XState) -> float:
    return max(abs(a.p11 - b.p11), abs(a.p22 - b.p22), abs(a.p33 - b.p33),
               abs(a.p44 - b.p44), abs(a.c23 - b.c23))


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
    state; and the identity D + C' = I.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if n_max < 0 or not math.isfinite(gt_max) or gt_max <= 0.0:
        raise ValueError("n_max must be >= 0 and gt_max positive and finite")
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

    for k in range(samples):
        state = sample_xstate(rng)
        n = int(rng.integers(0, n_max + 1))
        gt = float(rng.uniform(0.0, gt_max))
        params = EvolutionParams(n, gt)

        closed = evolve(state, params)
        oracle = sequential_pass(state, params)
        dev = _state_deviation(closed, oracle)
        if dev > report.max_evolve_dev:
            report.max_evolve_dev = dev
        if dev > tol_evolve:
            report.failures.append(
                f"FAIL sample {k}: evolve deviation {dev:.12g} > {tol_evolve:.12g} "
                f"at n={n} gt={gt:.12g} " + describe(state))

        drift = abs(closed.trace() - 1.0)
        floor = min(closed.populations())
        excess = max(0.0, abs(closed.c23) ** 2 - closed.p22 * closed.p33)
        report.max_trace_drift = max(report.max_trace_drift, drift)
        report.min_population = min(report.min_population, floor)
        report.max_coherence_excess = max(report.max_coherence_excess, excess)
        if drift > 1e-12 or floor < -1e-12 or excess > 1e-12:
            report.failures.append(
                f"FAIL sample {k}: evolved state invariants violated "
                f"(trace drift {drift:.12g}, min population {floor:.12g}, "
                f"coherence excess {excess:.12g}) at n={n} gt={gt:.12g} "
                + describe(state))

        m, _ = _min_conditional_entropy(state, grid_points)
        brute = entropy_b(state) - entropy_joint(state) + m
        if -1e-9 <= brute < 0.0:
            brute = 0.0
        closed_d = discord_closed(state)
        ddev = abs(closed_d - brute)
        if ddev > report.max_discord_dev:
            report.max_discord_dev = ddev
        if ddev > tol_discord:
            report.failures.append(
                f"FAIL sample {k}: discord deviation {ddev:.12g} > "
                f"{tol_discord:.12g} " + describe(state))

        gap = abs(brute + (entropy_a(state) - m) - mutual_information(state))
        report.max_identity_gap = max(report.max_identity_gap, gap)

    return report
