"""Seeded inputs of the three benchmark workloads.

Each workload is one ``cavitycorr`` command line.  The seed picks the
inputs inside fixed ranges; the amount of work (rows, grid points or
samples) is fixed so that runs with different seeds stay comparable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Work per command.  Each command computes for about 0.3 s, short enough
# that the calibrations bracketing it (run.py) see the machine at the
# speed the command saw, and a run holds dozens of commands.
SWEEP_STEPS = 4000
ENVELOPE_STEPS = 4000
VERIFY_SAMPLES = 60
# The README's verify defaults; the dense oracle allocates O(n^2), so the
# photon-number range is never widened here.
VERIFY_N_MAX = 12
VERIFY_GT_MAX = 20.0

NAMES = ("sweep-csv", "envelope-revival", "verify-oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    args: tuple[str, ...]   # arguments after ``python -m cavitycorr``
    units: int              # work per command: CSV rows, grid points or samples
    unit_name: str
    inputs: dict            # the seeded inputs, recorded with every result


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-csv":
        # README shape: n around 10, Werner mixing r inside (0, 1).
        inputs = {"n": rng.randint(8, 12), "r": round(rng.uniform(0.05, 0.95), 3),
                  "gt_max": round(rng.uniform(40.0, 60.0), 1), "steps": SWEEP_STEPS}
        args = ("evolve", "--n", str(inputs["n"]), "--r", repr(inputs["r"]),
                "--gt-max", repr(inputs["gt_max"]), "--steps", str(SWEEP_STEPS),
                "--discord", "closed")
        return Workload(name, seed, args, SWEEP_STEPS + 1, "rows", inputs)
    if name == "envelope-revival":
        # Large n from the maximally mixed pair: the revival spacing is
        # about 45 in gt, so the grid spans four to six revival cycles.
        inputs = {"n": rng.randint(45, 55), "r": 0.0,
                  "gt_max": round(rng.uniform(180.0, 220.0), 1),
                  "steps": ENVELOPE_STEPS, "measure": "discord"}
        args = ("envelope", "--n", str(inputs["n"]), "--r", "0",
                "--gt-max", repr(inputs["gt_max"]), "--steps", str(ENVELOPE_STEPS),
                "--measure", "discord")
        return Workload(name, seed, args, ENVELOPE_STEPS + 1, "grid points", inputs)
    if name == "verify-oracle":
        inputs = {"samples": VERIFY_SAMPLES, "seed": seed, "n_max": VERIFY_N_MAX,
                  "gt_max": VERIFY_GT_MAX}
        args = ("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed),
                "--n-max", str(VERIFY_N_MAX), "--gt-max", repr(VERIFY_GT_MAX))
        return Workload(name, seed, args, VERIFY_SAMPLES, "samples", inputs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
