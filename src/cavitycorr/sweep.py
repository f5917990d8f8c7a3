"""Time series of correlation measures over Rabi-angle grids, plus
collapse-revival detection on their envelopes."""
from __future__ import annotations

import math
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
from .xstate import XBatch, XState, werner_state

# Grid points evaluated together by sweep_batches.  Large enough that the
# per-call overhead of the array code vanishes, small enough that a chunk's
# arrays and CSV text stay a small fraction of the process's memory.
SWEEP_CHUNK = 1024


class DiscordMethod(Enum):
    CLOSED_FORM = "closed"
    BRUTE_FORCE = "brute"


def _check_correlations(concurrence, discord, classical_correlation,
                        mutual_information) -> None:
    """Invariants of the measures of one grid point (floats) or of a batch (arrays).

    Raises ``ValueError`` for the first failing point, naming its first
    failing check.
    """
    vals = (concurrence, discord, classical_correlation, mutual_information)

    def point(i):
        return tuple(ew.at(v, i) for v in vals)

    ew.raise_first([
        (~np.isfinite(concurrence) | ~np.isfinite(discord)
         | ~np.isfinite(classical_correlation) | ~np.isfinite(mutual_information),
         lambda i: f"correlation values must be finite, got {point(i)}"),
        ((concurrence < -1e-9) | (discord < -1e-9) | (classical_correlation < -1e-9)
         | (mutual_information < -1e-9),
         lambda i: f"correlation values must be >= -1e-9, got {point(i)}"),
        (discord > mutual_information + 1e-9,
         lambda i: f"discord {ew.at(discord, i)!r} exceeds mutual information "
                   f"{ew.at(mutual_information, i)!r} beyond 1e-9"),
    ])


@dataclass(frozen=True)
class CorrelationRecord:
    """All correlation measures of one state at one grid point."""

    gt: float
    state: XState
    concurrence: float
    discord: float
    classical_correlation: float
    mutual_information: float
    discord_method: DiscordMethod

    def __post_init__(self):
        _check_correlations(self.concurrence, self.discord,
                            self.classical_correlation, self.mutual_information)


@dataclass(frozen=True)
class SweepBatch:
    """Correlation measures of consecutive grid points, as parallel arrays.

    Validated as a whole on construction.  Indexing and iteration give one
    :class:`CorrelationRecord` per grid point.
    """

    gt: np.ndarray
    states: XBatch
    concurrence: np.ndarray
    discord: np.ndarray
    classical_correlation: np.ndarray
    mutual_information: np.ndarray
    discord_method: DiscordMethod

    def __post_init__(self):
        _check_correlations(self.concurrence, self.discord,
                            self.classical_correlation, self.mutual_information)

    def __len__(self) -> int:
        return len(self.gt)

    def __getitem__(self, i: int) -> CorrelationRecord:
        return CorrelationRecord(
            gt=float(self.gt[i]), state=self.states[i],
            concurrence=float(self.concurrence[i]), discord=float(self.discord[i]),
            classical_correlation=float(self.classical_correlation[i]),
            mutual_information=float(self.mutual_information[i]),
            discord_method=self.discord_method)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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
        if ew.is_bool(self.gt_max) or not math.isfinite(self.gt_max) or self.gt_max <= 0.0:
            raise ValueError(f"gt_max must be finite and positive, got {self.gt_max!r}")
        check_photon_number(self.n)
        if ew.is_bool(self.r) or not 0.0 <= self.r <= 1.0:
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
                      mutual_information=mutual_information_from(s_a, s_b, s_ab),
                      discord_method=method)


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
                                    f"got {ew.at(gts, i)!r} at index {i}")])
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
    if ew.is_bool(window) or not window > 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    if window >= gts[-1] - gts[0]:
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
    if (ew.is_bool(collapse_threshold) or ew.is_bool(min_duration)
            or not (0.0 < collapse_threshold < math.inf and 0.0 < min_duration < math.inf)):
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
    if ew.is_bool(eps) or not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    gts, vals = _series(series)
    above = np.flatnonzero(vals > eps)
    return float(gts[above[0]]) if len(above) else None
