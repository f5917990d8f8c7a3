"""Correlation dynamics of two atoms sequentially crossing a lossless
Fock-state cavity: closed-form X-state evolution with an exact oracle,
concurrence, quantum discord, and collapse-revival analysis."""

from .evolution import (
    EvolutionParams,
    PublishedFormReport,
    evolve,
    evolve_batch,
    published_form_report,
)
from .fock import sequential_pass, sequential_pass_batch
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
from .verify import VerificationReport, run_verification, sample_xstate
from .xstate import XBatch, XState, make_xbatch, make_xstate, werner_state

__version__ = "0.1.0"

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
