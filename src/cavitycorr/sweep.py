"""Time series of correlation measures over Rabi-angle grids, plus
collapse-revival detection on their envelopes."""
from __future__ import annotations

import math
from dataclasses import dataclass

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
# The discord routes (brute-force minimizer, closed form), as `--discord` lists them.
DISCORD_METHODS = ("brute", "closed")


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
    discord_method: str = "closed"   # checked by correlation_batch, on the first chunk

    def __post_init__(self):
        # frozen: the checked values, as Python numbers, replace the given ones
        for name, value in (("steps", ew.scalar(self.steps, "steps", int, 1)),
                            ("gt_max", ew.scalar(self.gt_max, "gt_max", float, 0,
                                                 open_lower=True)),
                            ("n", check_photon_number(self.n)),
                            ("r", ew.scalar(self.r, "r", float, 0, 1))):
            object.__setattr__(self, name, value)
        # Checked up front, so that no grid point fails after output has begun.
        # The grid's largest angle is steps * gt_max / steps (inf when the
        # product overflows), and the Rabi angles reach sqrt(n + 2) times it.
        last = self.steps * self.gt_max / self.steps
        if not math.isfinite(math.sqrt(self.n + 2) * last):
            raise ValueError(f"gt_max {self.gt_max!r} is too large: the Rabi angles overflow")


def correlation_batch(gt, states: XBatch, method: str = "closed") -> SweepBatch:
    """Evaluate every correlation measure of each state of a batch, once.

    ``method`` is one of :data:`DISCORD_METHODS`, ``"closed"`` or
    ``"brute"``, and ``gt`` a 1-d array of integers or floats, one angle
    per state; anything else raises ``ValueError``.  Both discord routes
    derive discord (by :func:`discord_from`) and classical correlation from
    the same minimized conditional entropy m, so their sum equals the
    mutual information identically.  The brute-force route minimizes the
    whole batch in one lockstep search.
    """
    if not isinstance(method, str) or method not in DISCORD_METHODS:
        raise ValueError(f"discord method must be 'closed' or 'brute', got {method!r}")
    gt = ew.real_array(gt, "gt")
    if gt.shape != (len(states),):
        raise ValueError(f"gt must be a 1-d array of one angle per state, shape "
                         f"({len(states)},), got shape {gt.shape}")
    s_a, s_b, s_ab = entropy_a(states), entropy_b(states), entropy_joint(states)
    m = (_min_conditional_entropy(states)[0] if method == "brute"
         else closed_min_conditional_entropy(states))
    return SweepBatch(gt=gt, states=states,
                      concurrence=concurrence(states),
                      discord=discord_from(s_b, s_ab, m),
                      classical_correlation=s_a - m,
                      mutual_information=mutual_information_from(s_a, s_b, s_ab))


def sweep_batches(cfg: SweepConfig, chunk: int = SWEEP_CHUNK):
    """Batches of at most ``chunk`` consecutive grid points gt_i = i*gt_max/steps.

    Together they cover i = 0..steps in order.  Each point's values do not
    depend on the chunk size.
    """
    chunk = ew.scalar(chunk, "chunk", int, 1)
    initial = werner_state(cfg.r)
    for start in range(0, cfg.steps + 1, chunk):
        gt = np.arange(start, min(start + chunk, cfg.steps + 1)) * cfg.gt_max / cfg.steps
        yield correlation_batch(gt, evolve_batch(initial, cfg.n, gt), cfg.discord_method)


def time_series(cfg: SweepConfig) -> SweepBatch:
    """The whole grid gt_i = i*gt_max/steps, i = 0..steps, as one batch."""
    return next(sweep_batches(cfg, cfg.steps + 1))


def _series(gt, values) -> tuple[np.ndarray, np.ndarray]:
    """``gt`` and ``values`` as float arrays, two 1-d arrays of equal length.

    Raises ``ValueError`` for input that is not integers or floats
    (:func:`~cavitycorr.elementwise.real_array`), naming both shapes when
    the two are not 1-d arrays of equal length, and at the first gt that is
    not finite or is below its predecessor; values are not checked further.
    """
    gts, vals = ew.real_array(gt, "series gt"), ew.real_array(values, "series values")
    if gts.ndim != 1 or gts.shape != vals.shape:
        raise ValueError("series gt and values must be 1-d arrays of equal length, "
                         f"got shapes {gts.shape} and {vals.shape}")
    bad = ~np.isfinite(gts)
    bad[1:] |= gts[1:] < gts[:-1]
    ew.raise_first([(bad, lambda i: "series gt must be finite and non-decreasing, "
                                    f"got {float(gts[i])!r} at index {i}")])
    return gts, vals


def envelope(gt, values, window: float) -> np.ndarray:
    """Sliding-window maxima of ``values`` centered at each grid point, aligned with ``gt``.

    ``gt`` and ``values`` are 1-d arrays of equal length, with finite,
    non-decreasing gt; windows are truncated at the ends of the series.
    """
    gts, vals = _series(gt, values)
    if len(gts) == 0:
        raise ValueError("envelope of an empty series is undefined")
    window = ew.scalar(window, "window", float, 0, open_lower=True)
    if window >= gts[-1] - gts[0]:
        raise ValueError(f"window {window!r} must be smaller than the gt span")
    half = window / 2.0
    lo = np.searchsorted(gts, gts - half, side="left")
    hi = np.searchsorted(gts, gts + half, side="right")
    # Each window [lo, hi) holds its own point, so lo < hi, and reduceat over
    # the interleaved bounds puts each window's maximum at the even positions.
    bounds = np.column_stack([lo, hi]).ravel()
    return np.maximum.reduceat(np.append(vals, -np.inf), bounds)[::2]


def detect_collapse_revival(gt, env, collapse_threshold: float, min_duration: float):
    """Alternating collapse/revival events of an envelope series, as four arrays.

    Returns ``(kind, gt_start, gt_end, peak_value)``, 1-d arrays with one
    element per event in gt order: ``kind`` holds the str "collapse" or
    "revival", and each event spans the points from ``gt_start`` to
    ``gt_end`` with largest envelope value ``peak_value``.

    ``gt`` and ``env`` are 1-d arrays of equal length, such as a series'
    gt and the :func:`envelope` of its values, with finite, non-decreasing gt.
    A collapse is a maximal run of points below the threshold whose gt
    span is at least ``min_duration``.  Shorter dips do not count and are
    absorbed into the surrounding activity.  Every maximal stretch between
    qualifying collapses (including one before the first and one after the
    last) is a revival; with no qualifying collapse, all four arrays are
    empty.
    """
    collapse_threshold = ew.scalar(collapse_threshold, "collapse_threshold", float, 0,
                                   open_lower=True)
    min_duration = ew.scalar(min_duration, "min_duration", float, 0, open_lower=True)
    gts, vals = _series(gt, env)
    # Runs below the threshold are [start, end) between the edges of the
    # zero-padded mask.
    below = np.concatenate([[False], vals < collapse_threshold, [False]])
    starts, ends = np.flatnonzero(np.diff(below)).reshape(-1, 2).T
    kept = gts[ends - 1] - gts[starts] >= min_duration
    # Cut at both ends of each kept collapse: the pieces [lo, hi) alternate
    # revival, collapse, ..., revival, and only the first and last can be
    # empty (without a kept collapse, no piece is an event).  The nonempty
    # pieces tile the series, so reduceat at their starts takes each one's
    # maximum.
    cuts = np.column_stack([starts[kept], ends[kept]]).ravel()
    lo, hi = np.append(0, cuts), np.append(cuts, len(gts))
    piece = np.flatnonzero((lo < hi) & kept.any())
    lo, hi = lo[piece], hi[piece]
    return (np.where(piece % 2, "collapse", "revival"), gts[lo], gts[hi - 1],
            np.maximum.reduceat(vals, lo))


def first_onset(gt, values, eps: float = 1e-3):
    """Smallest gt whose value exceeds eps, or None; the arrays as for :func:`envelope`."""
    eps = ew.scalar(eps, "eps", float, 0, open_lower=True)
    gts, vals = _series(gt, values)
    above = np.flatnonzero(vals > eps)
    return float(gts[above[0]]) if len(above) else None
