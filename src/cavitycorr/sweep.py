"""Time series of correlation measures over Rabi-angle grids, plus
collapse-revival detection on their envelopes."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import elementwise as ew
from .evolution import check_photon_number, evolve_batch
from .measures import (
    closed_min_conditional_entropy,
    concurrence,
    discord_from,
    entropy_a,
    entropy_b,
    entropy_joint,
    mutual_information_from,
    _min_conditional_entropy,
)
from .xstate import XBatch, werner_state

# Grid points evaluated together by sweep_batches.  The per-call overhead of
# the array code fades with the chunk: in-process min times of ``envelope
# --n 20 --r 0 --gt-max 400 --steps 40000 --measure discord`` at 1024, 2048,
# 4096, 8192 and 16384 points per chunk were 35.8, 30.8, 28.0, 26.8 and
# 26.8 ms, and of ``evolve --n 10 --r 0.2 --gt-max 400 --steps 40000`` 82.9,
# 73.0, 69.5, 68.5 and 72.4 ms (shared 2-vCPU x86-64).  Past 4096 the gain
# is a few percent while a chunk's arrays and CSV text keep growing: that
# evolve's own peak RSS is 31.0, 34.4 and 38.5 MB at 1024, 4096 and 8192.
SWEEP_CHUNK = 4096


class DiscordMethod(Enum):
    CLOSED_FORM = "closed"
    BRUTE_FORCE = "brute"


def _check_correlations(concurrence, discord, classical_correlation,
                        mutual_information) -> None:
    """Invariants of the measures of a batch of grid points, as 1-d arrays.

    Raises ``ValueError`` for the first failing point, naming its first
    failing check.
    """
    vals = (concurrence, discord, classical_correlation, mutual_information)

    def point(i):
        return tuple(float(v[i]) for v in vals)

    ew.raise_first([
        (~np.isfinite(concurrence) | ~np.isfinite(discord)
         | ~np.isfinite(classical_correlation) | ~np.isfinite(mutual_information),
         lambda i: f"correlation values must be finite, got {point(i)}"),
        ((concurrence < -1e-9) | (discord < -1e-9) | (classical_correlation < -1e-9)
         | (mutual_information < -1e-9),
         lambda i: f"correlation values must be >= -1e-9, got {point(i)}"),
        (discord > mutual_information + 1e-9,
         lambda i: f"discord {float(discord[i])!r} exceeds mutual information "
                   f"{float(mutual_information[i])!r} beyond 1e-9"),
    ])


@dataclass(frozen=True)
class SweepBatch:
    """Correlation measures of consecutive grid points, as parallel arrays.

    Validated as a whole on construction.  Point ``i`` is element ``i`` of
    each array: ``batch.gt[i]``, ``batch.discord[i]``, ``batch.states[i]``.
    """

    gt: np.ndarray
    states: XBatch
    concurrence: np.ndarray
    discord: np.ndarray
    classical_correlation: np.ndarray
    mutual_information: np.ndarray

    def __post_init__(self):
        _check_correlations(self.concurrence, self.discord,
                            self.classical_correlation, self.mutual_information)

    def __len__(self) -> int:
        return len(self.gt)


@dataclass(frozen=True)
class SweepConfig:
    n: int
    r: float
    gt_max: float
    steps: int
    discord_method: DiscordMethod = DiscordMethod.CLOSED_FORM

    def __post_init__(self):
        if (not isinstance(self.steps, (int, np.integer)) or isinstance(self.steps, bool)
                or self.steps < 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not ew.is_finite_real(self.gt_max) or self.gt_max <= 0.0:
            raise ValueError(f"gt_max must be finite and positive, got {self.gt_max!r}")
        check_photon_number(self.n)
        if not ew.is_real(self.r) or not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r!r}")
        # Checked up front, so that no grid point fails after output has begun.
        # The grid's largest angle is steps * gt_max / steps (inf when the
        # product overflows), and the Rabi angles reach sqrt(n + 2) times it.
        last = self.steps * self.gt_max / self.steps
        if not math.isfinite(math.sqrt(self.n + 2) * last):
            raise ValueError(f"gt_max {self.gt_max!r} is too large: the Rabi angles overflow")


class EventKind(Enum):
    COLLAPSE = "collapse"
    REVIVAL = "revival"


@dataclass(frozen=True)
class RevivalEvent:
    kind: EventKind
    gt_start: float
    gt_end: float
    peak_value: float

    def __post_init__(self):
        if self.gt_start > self.gt_end:
            raise ValueError(f"event must have gt_start <= gt_end, got "
                             f"[{self.gt_start!r}, {self.gt_end!r}]")


def correlation_batch(gt, states: XBatch,
                      method: DiscordMethod = DiscordMethod.CLOSED_FORM) -> SweepBatch:
    """Evaluate every correlation measure of each state of a batch, once.

    Both discord routes derive discord (by :func:`discord_from`) and
    classical correlation from the same minimized conditional entropy m, so
    their sum equals the mutual information identically.  The brute-force
    route minimizes the whole batch in one lockstep search.
    """
    s_a, s_b, s_ab = entropy_a(states), entropy_b(states), entropy_joint(states)
    m = (_min_conditional_entropy(states)[0] if method is DiscordMethod.BRUTE_FORCE
         else closed_min_conditional_entropy(states))
    return SweepBatch(gt=np.asarray(gt, dtype=float), states=states,
                      concurrence=concurrence(states),
                      discord=discord_from(s_b, s_ab, m),
                      classical_correlation=s_a - m,
                      mutual_information=mutual_information_from(s_a, s_b, s_ab))


def sweep_batches(cfg: SweepConfig, chunk: int = SWEEP_CHUNK):
    """Batches of at most ``chunk`` consecutive grid points gt_i = i*gt_max/steps.

    Together they cover i = 0..steps in order.  Each point's values do not
    depend on the chunk size.
    """
    if not isinstance(chunk, (int, np.integer)) or isinstance(chunk, bool) or chunk < 1:
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    initial = werner_state(cfg.r)
    for start in range(0, cfg.steps + 1, chunk):
        gt = np.arange(start, min(start + chunk, cfg.steps + 1)) * cfg.gt_max / cfg.steps
        yield correlation_batch(gt, evolve_batch(initial, cfg.n, gt), cfg.discord_method)


def time_series(cfg: SweepConfig) -> SweepBatch:
    """The whole grid gt_i = i*gt_max/steps, i = 0..steps, as one batch."""
    return next(sweep_batches(cfg, cfg.steps + 1))


def _series(series) -> tuple[np.ndarray, np.ndarray]:
    """The gt and value columns of an (N, 2) array or sequence of (gt, value) pairs.

    Raises ``ValueError`` at the first gt that is not finite or is smaller
    than the one before it; the values are not checked.
    """
    gts, vals = np.asarray(series, dtype=float).reshape(len(series), 2).T
    bad = ~np.isfinite(gts)
    bad[1:] |= gts[1:] < gts[:-1]
    ew.raise_first([(bad, lambda i: "series gt must be finite and non-decreasing, "
                                    f"got {float(gts[i])!r} at index {i}")])
    return gts, vals


def envelope(series, window: float) -> np.ndarray:
    """Sliding-window maximum centered at each grid point.

    ``series`` is an (N, 2) array of (gt, value) rows or a sequence of
    pairs, with finite, non-decreasing gt.  Returns an (N, 2) array of
    (gt, window maximum) rows; windows are truncated at the ends of the
    series.
    """
    gts, vals = _series(series)
    if len(gts) == 0:
        raise ValueError("envelope of an empty series is undefined")
    if not ew.is_real(window) or not window > 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    # a Python float, as numpy cannot compare with an int beyond the float range
    if window >= float(gts[-1] - gts[0]):
        raise ValueError(f"window {window!r} must be smaller than the gt span")
    half = window / 2.0
    lo = np.searchsorted(gts, gts - half, side="left")
    hi = np.searchsorted(gts, gts + half, side="right")
    # Each window [lo, hi) holds its own point, so lo < hi, and reduceat over
    # the interleaved bounds puts each window's maximum at the even positions.
    bounds = np.column_stack([lo, hi]).ravel()
    out = np.maximum.reduceat(np.append(vals, -np.inf), bounds)[::2]
    return np.column_stack([gts, out])


def detect_collapse_revival(env, collapse_threshold: float,
                            min_duration: float) -> list[RevivalEvent]:
    """Alternating collapse/revival events of an envelope series.

    ``env`` is an (N, 2) array of (gt, value) rows, as :func:`envelope`
    returns, or a sequence of pairs, with finite, non-decreasing gt.
    A collapse is a maximal run of points below the threshold whose gt
    span is at least ``min_duration``.  Shorter dips do not count and are
    absorbed into the surrounding activity.  Every maximal stretch between
    qualifying collapses (including one before the first and one after the
    last) is a revival; a series with no qualifying collapse yields no
    events at all.
    """
    if (not ew.is_finite_real(collapse_threshold) or not ew.is_finite_real(min_duration)
            or not (collapse_threshold > 0.0 and min_duration > 0.0)):
        raise ValueError("collapse_threshold and min_duration must be positive and finite, "
                         f"got {collapse_threshold!r} and {min_duration!r}")
    gts, vals = _series(env)
    # Runs below the threshold are [start, end) between the edges of the
    # zero-padded mask.
    below = np.concatenate([[False], vals < collapse_threshold, [False]])
    starts, ends = np.flatnonzero(np.diff(below)).reshape(-1, 2).T
    kept = gts[ends - 1] - gts[starts] >= min_duration
    if not kept.any():
        return []
    # Cut at both ends of each kept collapse: the pieces alternate revival,
    # collapse, ..., revival, and only the first and last can be empty.
    cuts = np.column_stack([starts[kept], ends[kept]]).ravel()
    pieces = zip(np.split(gts, cuts), np.split(vals, cuts))
    return [RevivalEvent(EventKind.COLLAPSE if k % 2 else EventKind.REVIVAL,
                         float(g[0]), float(g[-1]), float(v.max()))
            for k, (g, v) in enumerate(pieces) if len(g)]


def first_onset(series, eps: float = 1e-3):
    """Smallest grid gt whose value exceeds eps, or None; ``series`` as for :func:`envelope`."""
    if not ew.is_real(eps) or not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    gts, vals = _series(series)
    # no float exceeds the largest one, or an int beyond it
    above = np.flatnonzero(vals > min(eps, sys.float_info.max))
    return float(gts[above[0]]) if len(above) else None
