"""In-process span tracing of the cavitycorr layers, from outside the package.

The tracer rebinds each layer's entry point in every ``cavitycorr`` module
that refers to it, so calls through ``from .x import f`` are seen too.  An
entry point that no longer exists is reported as absent, not as an error,
so the traced run survives refactors that rename or remove a layer.  Spans
are kept in flat arrays in memory and reduced once, after the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (layer name, defining module, attribute).  The layer name is the module
# plus a public name; the brute-force minimizer is a private function today.
LAYERS = (
    ("xstate.make_xstate", "cavitycorr.xstate", "make_xstate"),
    ("evolution.evolve", "cavitycorr.evolution", "evolve"),
    ("fock.sequential_pass", "cavitycorr.fock", "sequential_pass"),
    ("measures.concurrence", "cavitycorr.measures", "concurrence"),
    ("measures.mutual_information", "cavitycorr.measures", "mutual_information"),
    ("measures.discord_closed", "cavitycorr.measures", "discord_closed"),
    ("measures.closed_min_conditional_entropy", "cavitycorr.measures",
     "closed_min_conditional_entropy"),
    ("measures.bruteforce_min", "cavitycorr.measures", "_min_conditional_entropy"),
    ("sweep.time_series", "cavitycorr.sweep", "time_series"),
    ("sweep.envelope", "cavitycorr.sweep", "envelope"),
    ("sweep.detect_collapse_revival", "cavitycorr.sweep", "detect_collapse_revival"),
    ("verify.run_verification", "cavitycorr.verify", "run_verification"),
    ("verify.sample_xstate", "cavitycorr.verify", "sample_xstate"),
    ("cli.format_record", "cavitycorr.cli", "format_record"),
)
ROOT = "cli.main"
# Objective evaluations of the brute-force minimizer: counted as the number
# of theta points passed to it, not as spans.
EVALS = ("cavitycorr.measures", "_measured_entropy")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def us_per_call(self) -> float:
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.evals = 0

    def wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
        return traced

    def count_evals(self, fn):
        """Wrap the minimizer's objective, ``fn(state, theta)``, to count theta points."""
        @functools.wraps(fn)
        def counted(state, theta, *args, **kwargs):
            self.evals += int(np.size(theta))
            return fn(state, theta, *args, **kwargs)
        return counted

    def reduce(self) -> dict[str, LayerStats]:
        """Calls, inclusive time and self time per span name."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_ix, dtype=np.uint16)
        covered = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_ns = dur - covered
        stats = {}
        for ix, name in enumerate(self.names):
            sel = names == ix
            stats[name] = LayerStats(int(sel.sum()), float(dur[sel].sum()) / 1e9,
                                     float(self_ns[sel].sum()) / 1e9)
        return stats


def _rebind(old, new) -> None:
    """Point every cavitycorr module-level reference to ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name == "cavitycorr" or name.startswith("cavitycorr."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every present layer for the duration of the block.

    Yields the names of the absent layers.  The original functions are
    restored on exit, so untraced runs in the same process see no wrappers.
    """
    bound, absent = [], []
    for name, module, attr in LAYERS:
        fn = _lookup(module, attr)
        if fn is None:
            absent.append(name)
        else:
            bound.append((fn, tracer.wrap(name, fn)))
    evals = _lookup(*EVALS)
    if evals is not None:
        bound.append((evals, tracer.count_evals(evals)))
    for fn, wrapper in bound:
        _rebind(fn, wrapper)
    try:
        yield absent
    finally:
        for fn, wrapper in bound:
            _rebind(wrapper, fn)
