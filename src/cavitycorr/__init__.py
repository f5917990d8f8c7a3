"""Correlation dynamics of two atoms sequentially crossing a lossless
Fock-state cavity: closed-form X-state evolution with an exact oracle,
concurrence, quantum discord, and collapse-revival analysis."""

import importlib

from .evolution import (
    EvolutionParams,
    PublishedFormReport,
    evolve,
    evolve_batch,
    published_form_report,
)
from .measures import (
    binary_entropy,
    classical_correlation_bruteforce,
    closed_min_conditional_entropy,
    concurrence,
    discord_bruteforce,
    discord_closed,
    entropy_a,
    entropy_b,
    entropy_joint,
    mutual_information,
)
from .sweep import (
    SweepBatch,
    SweepConfig,
    correlation_batch,
    detect_collapse_revival,
    envelope,
    first_onset,
    sweep_batches,
    time_series,
)
from .xstate import XBatch, XState, make_xbatch, make_xstate, werner_state

__version__ = "0.1.0"

# Served on first use (PEP 562), so that importing the package, as every
# command does, loads the Fock oracle and the sampler only for ``verify``.
_LAZY = {"sequential_pass": "fock", "sequential_pass_batch": "fock",
         "VerificationReport": "verify", "run_verification": "verify",
         "sample_xstate": "verify"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "EvolutionParams", "PublishedFormReport", "evolve", "evolve_batch",
    "published_form_report",
    "sequential_pass", "sequential_pass_batch",
    "binary_entropy", "classical_correlation_bruteforce",
    "closed_min_conditional_entropy", "concurrence", "discord_bruteforce", "discord_closed",
    "entropy_a", "entropy_b", "entropy_joint", "mutual_information",
    "SweepBatch", "SweepConfig", "correlation_batch", "detect_collapse_revival",
    "envelope", "first_onset", "sweep_batches", "time_series",
    "VerificationReport", "run_verification", "sample_xstate",
    "XBatch", "XState", "make_xbatch", "make_xstate", "werner_state",
]
