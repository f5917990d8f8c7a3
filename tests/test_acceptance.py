"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a pytest failure on any criterion is the corresponding FAIL.
"""
import time

import numpy as np
import pytest

from cavitycorr import (
    DiscordMethod,
    EvolutionParams,
    SweepConfig,
    concurrence,
    detect_collapse_revival,
    discord_closed,
    envelope,
    evolve,
    evolve_batch,
    first_onset,
    make_xstate,
    mutual_information,
    published_form_report,
    sequential_pass_batch,
    time_series,
    werner_state,
)
from cavitycorr.cli import CSV_HEADER, format_record, main
from cavitycorr.verify import _seeded_chunks, run_verification
from cavitycorr.xstate import spectrum

from conftest import csv_fields

SEED = 42


@pytest.fixture(scope="module")
def verification():
    start = time.perf_counter()
    report = run_verification(samples=1000, seed=SEED, n_max=12, gt_max=20.0,
                              tol_evolve=1e-10, tol_discord=0.0026)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fock_sweeps():
    cfgs = {n: SweepConfig(n=n, r=0.0, gt_max=60.0, steps=6000) for n in (5, 10)}
    return {n: time_series(cfg) for n, cfg in cfgs.items()}


def revival_starts(records):
    series = [(rec.gt, rec.discord) for rec in records]
    env = envelope(series, 2.0)
    events = detect_collapse_revival(env, 0.02, 1.0)
    return [e.gt_start for e in events if e.kind.value == "revival"]


def test_criterion_1_oracle_equivalence(verification):
    report, elapsed = verification
    assert report.max_evolve_dev <= 1e-10, (
        f"closed-form evolution deviates from the oracle by {report.max_evolve_dev}")
    assert elapsed < 30.0, f"verification took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 1: PASS - 1000-sample oracle equivalence, "
          f"max deviation {report.max_evolve_dev:.3e} <= 1e-10, {elapsed:.1f} s")


def test_criterion_2_misprint_detection():
    state = werner_state(0.2)
    flagged = 0
    corrected_ok = True
    cases = [(n, gt) for n in range(5) for gt in (0.5, 1.0, 1.7, 2.4, 3.1)]
    for n, gt in cases:
        params = EvolutionParams(n, gt)
        report = published_form_report(state, params)
        if report.trace_drift > 1e-9:
            flagged += 1
        corrected = evolve(state, params)
        corrected_ok &= abs(corrected.trace() - 1.0) <= 1e-12
    assert flagged > 0, "published coefficients never drifted the trace"
    assert corrected_ok, "corrected mode drifted the trace"
    print(f"\nACCEPTANCE 2: PASS - published coefficients flagged on "
          f"{flagged}/{len(cases)} Werner r=0.2 inputs; corrected trace exact")


def test_criterion_3_discord_closed_vs_brute(verification, capsys):
    report, _ = verification
    assert report.max_discord_dev <= 0.0026, (
        f"closed-form discord deviates from brute force by {report.max_discord_dev}")
    assert report.passed
    # any excess must surface as a verification failure with exit code 2
    code = main(["verify", "--samples", "25", "--seed", "3",
                 "--tol-discord", "0"])
    capsys.readouterr()
    assert code == 2
    with capsys.disabled():
        print(f"\nACCEPTANCE 3: PASS - 1000-sample discord agreement, "
              f"max deviation {report.max_discord_dev:.2e} <= 0.0026; "
              f"excess exits 2")


def test_criterion_4_onset_ordering_and_plateau():
    records = time_series(SweepConfig(n=0, r=0.0, gt_max=20.0, steps=4000))
    discord_series = [(rec.gt, rec.discord) for rec in records]
    conc_series = [(rec.gt, rec.concurrence) for rec in records]
    d_onset = first_onset(discord_series, 1e-3)
    c_onset = first_onset(conc_series, 1e-3)
    assert d_onset is not None and c_onset is not None
    assert d_onset < c_onset, (d_onset, c_onset)

    conc = np.array([rec.concurrence for rec in records])
    disc = np.array([rec.discord for rec in records])
    found = 0
    i = 0
    while i < len(conc):
        if conc[i] == 0.0:
            j = i
            while j + 1 < len(conc) and conc[j + 1] == 0.0:
                j += 1
            if j - i + 1 >= 20 and disc[i:j + 1].max() > 1e-2:
                found = max(found, j - i + 1)
            i = j + 1
        else:
            i += 1
    assert found >= 20, "no zero-concurrence plateau with live discord"
    print(f"\nACCEPTANCE 4: PASS - discord onset {d_onset:.4g} precedes "
          f"concurrence onset {c_onset:.4g}; zero-concurrence plateau of "
          f"{found} points with discord above 1e-2")


def test_criterion_5_collapse_revival(fock_sweeps):
    starts = {n: revival_starts(records) for n, records in fock_sweeps.items()}
    for n, s in starts.items():
        assert len(s) >= 2, f"n={n}: expected >= 2 revivals, got {len(s)}"
    spacing = {n: float(np.diff(s).mean()) for n, s in starts.items()}
    assert spacing[10] > spacing[5], spacing
    print(f"\nACCEPTANCE 5: PASS - revivals n=5: {len(starts[5])} "
          f"(mean spacing {spacing[5]:.2f}), n=10: {len(starts[10])} "
          f"(mean spacing {spacing[10]:.2f})")


def test_criterion_6_entangled_start(fock_sweeps):
    entangled = time_series(SweepConfig(n=10, r=0.2, gt_max=10.0, steps=2000))
    assert entangled[0].discord > 0.01
    assert entangled[0].concurrence == 0.0
    max_entangled = max(rec.concurrence for rec in entangled)
    mixed = fock_sweeps[10]
    max_mixed = max(rec.concurrence for rec in mixed if rec.gt <= 10.0)
    assert max_entangled > max_mixed, (max_entangled, max_mixed)
    print(f"\nACCEPTANCE 6: PASS - r=0.2 starts with discord "
          f"{entangled[0].discord:.4f} and zero concurrence; peak concurrence "
          f"{max_entangled:.3f} exceeds the r=0 peak {max_mixed:.3f}")


def test_criterion_7_analytic_spot_values():
    for r in (0.0, 0.2, 1 / 3, 0.8, 1.0):
        expected = max(0.0, (3 * r - 1) / 2)
        assert abs(concurrence(werner_state(r)) - expected) <= 1e-12, r
    bell = make_xstate(0, 0.5, 0.5, 0, 0.5)
    mixed = make_xstate(0.25, 0.25, 0.25, 0.25, 0)
    assert abs(discord_closed(bell) - 1.0) <= 1e-9
    assert abs(concurrence(bell) - 1.0) <= 1e-9
    assert abs(discord_closed(mixed)) <= 1e-9
    assert abs(concurrence(mixed)) <= 1e-9
    print("\nACCEPTANCE 7: PASS - Werner concurrence formula at five mixing "
          "values; Bell and maximally mixed spot values exact")


def test_criterion_8_invariant_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checks = 0

    # 1500 samples, each drawn as sample_xstate, rng.integers(0, 13) and
    # rng.uniform(0.0, 20.0) one after the other would draw it, checked a
    # chunk at a time; a check of k states counts as k assertions
    for _, states, n, gt in _seeded_chunks(rng, 1500, 12, 20.0):
        size = len(states)
        trace = ((states.p11 + states.p22) + states.p33) + states.p44
        assert (abs(trace - 1.0) <= 1e-12).all()
        checks += size
        lams = np.array(spectrum(states))
        assert (abs(lams.sum(axis=0) - 1.0) <= 1e-12).all()
        checks += size
        assert ((lams >= 0.0) & (lams <= 1.0 + 1e-12)).all()
        checks += size

        evolved = evolve_batch(states, n, gt)  # Hermitian by construction
        pops = np.array([evolved.p11, evolved.p22, evolved.p33, evolved.p44])
        assert (abs(((pops[0] + pops[1]) + pops[2]) + pops[3] - 1.0) <= 1e-12).all()
        checks += size
        assert (pops >= 0.0).all()
        checks += size
        assert (evolved.abs_c23() ** 2 <= evolved.p22 * evolved.p33 + 1e-12).all()
        checks += size
        oracle = sequential_pass_batch(states, n, gt)
        dev = np.max([abs(evolved.p11 - oracle.p11), abs(evolved.p22 - oracle.p22),
                      abs(evolved.p33 - oracle.p33), abs(evolved.p44 - oracle.p44),
                      np.hypot(evolved.re_c23 - oracle.re_c23,
                               evolved.im_c23 - oracle.im_c23)], axis=0)
        assert (dev <= 1e-10).all()
        checks += size

        c = concurrence(evolved)
        d = discord_closed(evolved)
        mi = mutual_information(evolved)
        assert ((0.0 <= c) & (c <= 1.0)).all()
        checks += size
        assert ((0.0 <= d) & (d <= 1.0 + 1e-9)).all()
        checks += size
        assert ((d <= mi + 1e-9) & (mi >= -1e-9)).all()
        checks += size

    # CSV round trip and byte determinism
    cfg = SweepConfig(n=4, r=0.35, gt_max=8.0, steps=200)
    records = time_series(cfg)
    lines1 = [CSV_HEADER] + [format_record(rec, cfg.n, cfg.r) for rec in records]
    lines2 = [CSV_HEADER] + [format_record(rec, cfg.n, cfg.r)
                             for rec in time_series(cfg)]
    assert lines1 == lines2
    checks += 1
    for line, rec in zip(lines1[1:], records):
        fields = csv_fields(line)   # trace, populations and |c23|^2 within 1e-9
        checks += 3
        assert fields[1] == cfg.n and fields[2] == cfg.r
        checks += 1
        assert abs(fields[10] - rec.discord) <= 1e-11
        checks += 1
        assert fields[10] <= fields[12] + 1e-9
        checks += 1

    elapsed = time.perf_counter() - start
    assert checks >= 10_000, f"only {checks} assertions ran"
    assert elapsed < 120.0, f"invariant suite took {elapsed:.1f} s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 8: PASS - {checks} seeded invariant assertions "
              f"in {elapsed:.1f} s")
