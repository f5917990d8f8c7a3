"""Output checks applied to every benchmark run, outside the timed region.

Each check returns a list of failure messages; an empty list means the
output is correct.  The sweep check compares against the exact Fock-space
oracle and the brute-force discord minimizer, never against the closed
forms that produced the output.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CSV_HEADER = ("gt,n,r,p11,p22,p33,p44,re_c23,im_c23,"
              "concurrence,discord,classical_corr,mutual_info")
EVENT_HEADER = "kind,gt_start,gt_end,peak_value"
# Tolerances of the README's verify defaults and of its state-invariant line.
TOL_EVOLVE = 1e-10
TOL_DISCORD = 0.0026
TOL_INVARIANT = 1e-12
# Rows per sweep output compared with the oracles (each costs a few ms).
ORACLE_ROWS = 24
# Slack of the per-row identities after 12-digit quantization, which
# itself leaves at most a few 1e-12.
ROW_TOL = 1e-9
# Envelope threshold of the CLI default, used to classify event peaks.
COLLAPSE_THRESHOLD = 0.02


def load_golden() -> dict:
    """Recorded sha256 of stdout per workload and seed."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_golden(workload, stdout: bytes, golden: dict) -> list[str]:
    """Byte-for-byte comparison for the seeds that ship with a recorded hash."""
    want = golden.get(workload.name, {}).get(str(workload.seed))
    if want is None:
        return []
    got = sha256(stdout)
    if got != want:
        return [f"stdout sha256 {got} differs from the recorded {want}"]
    return []


def _quantize(v: float) -> float:
    """Round to the 12 significant digits of the CSV contract."""
    return float(f"{v:.12g}")


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Base-2 Shannon entropy along the last axis, with 0 log 0 = 0."""
    p = np.clip(probs, 0.0, None)
    return -np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=-1)


def check_sweep_csv(workload, stdout: bytes) -> list[str]:
    """Invariants of every row, plus a seeded subsample checked against the oracles."""
    from cavitycorr.evolution import EvolutionParams
    from cavitycorr.fock import sequential_pass
    from cavitycorr.measures import discord_bruteforce
    from cavitycorr.xstate import werner_state

    inp = workload.inputs
    lines = stdout.decode("ascii", errors="replace").split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad CSV header {lines[:1]!r}"]
    try:
        table = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"unparsable or ragged CSV rows: {exc}"]
    rows = inp["steps"] + 1
    if table.shape != (rows, 13) or not np.isfinite(table).all():
        return [f"expected {rows} rows of 13 finite fields, got shape {table.shape}"]

    grid = np.arange(rows) * inp["gt_max"] / inp["steps"]
    pops, conc, disc, classical, mutual = (table[:, 3:7], table[:, 9], table[:, 10],
                                           table[:, 11], table[:, 12])
    coh2 = table[:, 7] ** 2 + table[:, 8] ** 2
    # Mutual information from the textbook X-state spectrum and marginals.
    gap = np.sqrt((pops[:, 1] - pops[:, 2]) ** 2 + 4.0 * coh2)
    inner = pops[:, 1] + pops[:, 2]
    spectrum = np.stack([pops[:, 0], pops[:, 3], (inner + gap) / 2, (inner - gap) / 2], axis=1)
    exc_a, exc_b = pops[:, 0] + pops[:, 1], pops[:, 0] + pops[:, 2]
    mutual_spectral = (_entropy(np.stack([exc_a, 1.0 - exc_a], axis=1))
                       + _entropy(np.stack([exc_b, 1.0 - exc_b], axis=1)) - _entropy(spectrum))
    row_ok = {
        "gt grid, n or r": (np.abs(table[:, 0] - grid) <= 1e-11 * np.maximum(1.0, grid))
        & (table[:, 1] == inp["n"]) & (table[:, 2] == inp["r"]),
        "trace": np.abs(pops.sum(axis=1) - 1.0) <= ROW_TOL,
        "positivity": (pops >= -ROW_TOL).all(axis=1)
        & (coh2 <= pops[:, 1] * pops[:, 2] + ROW_TOL),
        "concurrence": np.abs(2.0 * np.maximum(0.0, np.sqrt(coh2) - np.sqrt(
            np.maximum(pops[:, 0] * pops[:, 3], 0.0))) - conc) <= ROW_TOL,
        "D + C = I": np.abs(disc + classical - mutual) <= ROW_TOL,
        "I from the spectrum": np.abs(mutual_spectral - mutual) <= ROW_TOL,
        "0 <= D <= I": (disc >= -ROW_TOL) & (disc <= mutual + ROW_TOL),
    }
    failures = [f"{(~ok).sum()} rows violate {name}, first at row {int(np.argmin(ok))}"
                for name, ok in row_ok.items() if not ok.all()]

    initial = werner_state(inp["r"])
    for i in sorted(random.Random(workload.seed).sample(range(rows), ORACLE_ROWS)):
        exact = sequential_pass(initial, EvolutionParams(inp["n"], float(grid[i])))
        want = (exact.p11, exact.p22, exact.p33, exact.p44, exact.c23.real, exact.c23.imag)
        dev = max(abs(_quantize(w) - v) for w, v in zip(want, table[i, 3:9]))
        if not dev <= TOL_EVOLVE:
            failures.append(f"row {i}: state deviates from the oracle by {dev:.3g}")
        ddev = abs(discord_bruteforce(exact) - disc[i])
        if not ddev <= TOL_DISCORD:
            failures.append(f"row {i}: discord deviates from brute force by {ddev:.3g}")
    return failures


def check_envelope(workload, stdout: bytes) -> list[str]:
    """Events alternate, tile the grid in increasing gt, and peaks match their kind."""
    gt_max = workload.inputs["gt_max"]
    lines = stdout.decode("ascii", errors="replace").split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines.pop()
    if not lines or lines[0] != EVENT_HEADER:
        return [f"bad event header {lines[:1]!r}"]
    events = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            kind, start, end, peak = parts[0], *map(float, parts[1:])
        except ValueError:
            return [f"unparsable event {line!r}"]
        if len(parts) != 4 or kind not in ("collapse", "revival") \
                or not all(math.isfinite(v) for v in (start, end, peak)):
            return [f"malformed event {line!r}"]
        events.append((kind, start, end, peak))
    kinds = {e[0] for e in events}
    if kinds != {"collapse", "revival"}:
        return [f"expected collapse and revival events, got kinds {sorted(kinds)}"]
    failures = []
    if events[0][1] != 0.0 or events[-1][2] != gt_max:
        failures.append("events do not cover the grid from 0 to gt_max")
    for prev, cur in zip(events, events[1:]):
        if cur[0] == prev[0]:
            failures.append(f"two {cur[0]} events in a row at gt {cur[1]!r}")
        if not prev[2] < cur[1]:
            failures.append(f"event at gt {cur[1]!r} does not follow the one ending at {prev[2]!r}")
    for kind, start, end, peak in events:
        if not start <= end:
            failures.append(f"{kind} event has gt_start {start!r} > gt_end {end!r}")
        below = peak < COLLAPSE_THRESHOLD
        if below != (kind == "collapse") or not 0.0 <= peak <= 1.0:
            failures.append(f"{kind} event peak {peak!r} contradicts its kind")
    return failures


_DEV_LINE = re.compile(r"^(evolve|discord)\s.*=\s*(\S+)\s+\[tol (\S+)\]\s+(PASS|FAIL)$")
_STATE_LINE = re.compile(r"^states\s+max trace drift = (\S+)\s+min population = (\S+)"
                         r"\s+max coherence excess = (\S+)\s+(PASS|FAIL)$")
_IDENTITY_LINE = re.compile(r"^identity max \|D \+ C' - I\| = (\S+)$")
# Agreement of a printed maximum with the replayed one; the report prints
# 12 significant digits.
REPLAY_REL = 1e-9
REPLAY_ABS = 1e-12


def replay_verify(inp: dict) -> dict[str, list[float]]:
    """Every per-sample quantity that ``verify`` reduces to a printed maximum.

    The seeded draws are replayed in the order the command makes them; each
    sample is then recomputed through the public entry points, so a NaN or a
    skipped sample shows here even where the report cannot show it.
    """
    from cavitycorr.evolution import EvolutionParams, evolve
    from cavitycorr.fock import sequential_pass
    from cavitycorr.measures import (classical_correlation_bruteforce, discord_bruteforce,
                                     discord_closed, mutual_information)
    from cavitycorr.xstate import make_xstate

    rng = np.random.default_rng(inp["seed"])
    values = {key: [] for key in ("evolve", "discord", "drift", "floor", "excess", "identity")}
    for _ in range(inp["samples"]):
        w = -np.log(rng.random(4))
        w /= w.sum()
        radius = math.sqrt(w[1] * w[2]) * math.sqrt(rng.random())
        state = make_xstate(w[0], w[1], w[2], w[3], radius * np.exp(2j * math.pi * rng.random()))
        params = EvolutionParams(int(rng.integers(0, inp["n_max"] + 1)),
                                 float(rng.uniform(0.0, inp["gt_max"])))
        closed, exact = evolve(state, params), sequential_pass(state, params)
        values["evolve"].append(max(abs(getattr(closed, f) - getattr(exact, f))
                                    for f in ("p11", "p22", "p33", "p44", "c23")))
        values["drift"].append(abs(closed.trace() - 1.0))
        values["floor"].append(min(closed.populations()))
        values["excess"].append(max(0.0, abs(closed.c23) ** 2 - closed.p22 * closed.p33))
        brute = discord_bruteforce(state)
        values["discord"].append(abs(discord_closed(state) - brute))
        values["identity"].append(abs(brute + classical_correlation_bruteforce(state)[0]
                                      - mutual_information(state)))
    return values


def check_verify(workload, stdout: bytes) -> list[str]:
    """Report passes, and its maxima are those of a replay in which every value is finite."""
    inp = workload.inputs
    text = stdout.decode("ascii", errors="replace")
    lines = text.splitlines()
    failures = [f"FAIL line: {ln}" for ln in lines if "FAIL" in ln]
    if not lines or lines[-1] != "overall: PASS":
        failures.append(f"last line is {lines[-1:]!r}, not 'overall: PASS'")
    head = (f"verify: samples={inp['samples']} seed={inp['seed']} n_max={inp['n_max']} "
            f"gt_max={inp['gt_max']:.12g} tol_evolve={TOL_EVOLVE:.12g} "
            f"tol_discord={TOL_DISCORD:.12g}")
    if not lines or lines[0] != head:
        failures.append(f"header {lines[:1]!r} does not match {head!r}")

    printed = {}
    want_tol = {"evolve": TOL_EVOLVE, "discord": TOL_DISCORD}
    for line in lines:
        if m := _DEV_LINE.match(line):
            name, dev, tol = m[1], float(m[2]), float(m[3])
            printed[name] = dev
            if tol != want_tol[name]:
                failures.append(f"{name} tolerance printed as {tol!r}, expected {want_tol[name]!r}")
            if not dev <= tol:
                failures.append(f"{name} deviation {dev!r} is not within tolerance {tol!r}")
        elif m := _STATE_LINE.match(line):
            printed.update(zip(("drift", "floor", "excess"), (float(m[i]) for i in (1, 2, 3))))
            if not (printed["drift"] <= TOL_INVARIANT and printed["floor"] >= -TOL_INVARIANT
                    and printed["excess"] <= TOL_INVARIANT):
                failures.append(f"state invariants out of tolerance: {line}")
        elif m := _IDENTITY_LINE.match(line):
            printed["identity"] = float(m[1])
            if not printed["identity"] <= 1e-9:
                failures.append(f"identity gap out of tolerance: {line}")
    replayed = replay_verify(inp)
    missing = replayed.keys() - printed.keys()
    if missing:
        failures.append(f"report lacks the {', '.join(sorted(missing))} value(s)")
    for name, values in replayed.items():
        bad = [k for k, v in enumerate(values) if not math.isfinite(v)]
        if bad:
            failures.append(f"replayed {name} is not finite at samples {bad[:10]}")
            continue
        want = min(values) if name == "floor" else max(values)
        if name in printed and not math.isclose(printed[name], want, rel_tol=REPLAY_REL,
                                                abs_tol=REPLAY_ABS):
            failures.append(f"printed {name} {printed[name]!r} differs from the replayed {want!r}")
    return failures


CHECKS = {"sweep-csv": check_sweep_csv, "envelope-revival": check_envelope,
          "verify-oracle": check_verify}


def check_run(workload, returncode: int, stdout: bytes, stderr: bytes,
              golden: dict) -> list[str]:
    """Every failure of one command run: exit code, traceback, golden hash, content."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if b"Traceback" in stderr or b"Traceback" in stdout:
        failures.append("traceback in output")
    failures += check_golden(workload, stdout, golden)
    try:
        failures += CHECKS[workload.name](workload, stdout)
    except Exception as exc:  # a crashing check is a failed run, never a crash of the benchmark
        failures.append(f"output check raised {type(exc).__name__}: {exc}")
    return failures
