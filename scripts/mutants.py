#!/usr/bin/env python3
"""A standing catalogue of one-line mutants of the package's gates.

Each entry changes one line of a file under ``src/`` (``old`` becomes
``new``) and names the tests that must fail on the mutant.  The script
copies ``src/``, ``tests/``, ``scripts/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, applies one mutant there
and runs only its tests, with ``pytest -x``.  It first runs the union of
those tests on the unmutated copy, which must pass.

Run from the repository root:

    python scripts/mutants.py

The exit status is 1 if the unmutated copy fails, or if any mutant
survives or breaks its run in another way (pytest's exit status other
than 1).  ``tests/test_mutants.py`` checks in tier-1 that each ``old``
text occurs exactly once in ``src/``.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str          # relative to the repository root
    old: str           # occurs exactly once in src/
    new: str
    tests: tuple[str, ...]   # pytest node ids expected to fail


CATALOGUE = (
    Mutant("d-le-i", "src/cavitycorr/sweep.py",
           "(discord > mutual_information + 1e-9,",
           "(discord > mutual_information + np.inf,",
           ("tests/test_sweep.py::TestSweepBatch"
            "::test_batch_validation_matches_one_point_validation",)),
    Mutant("fock-off-x-gate", "src/cavitycorr/fock.py",
           "leaking = off_x >= OFF_X_TOL",
           "leaking = off_x >= np.inf",
           ("tests/test_fock.py::TestWindowOracle::test_off_x_leakage_is_caught_per_state",)),
    Mutant("fock-x-form-entries", "src/cavitycorr/fock.py",
           "_A, _B = [0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]",
           "_A, _B = [1, 0, 2, 3, 1, 2], [1, 0, 2, 3, 2, 1]",
           ("tests/test_fock.py::TestWindowOracle"
            "::test_window_trace_bits_match_five_window_reference",
            "tests/test_fock.py::TestWindowOracle"
            "::test_window_trace_bits_match_five_window_reference_on_a_seeded_chunk")),
    Mutant("sweep-steps-bound", "src/cavitycorr/sweep.py",
           '("steps", ew.scalar(self.steps, "steps", int, 1, MAX_STEPS)),',
           '("steps", ew.scalar(self.steps, "steps", int, 1)),',
           ("tests/test_cli.py::TestGateHoles::test_huge_steps_rejected",)),
    Mutant("envelope-right-edge", "src/cavitycorr/sweep.py",
           'hi = np.searchsorted(gts, gts + half, side="right")',
           'hi = np.searchsorted(gts, gts + half, side="left")',
           ("tests/test_sweep.py::TestEnvelope::test_abs_sine",)),
    Mutant("discord-from-clamp", "src/cavitycorr/measures.py",
           "return np.where((d >= -1e-9) & (d < 0.0), 0.0, d)",
           "return np.where((d >= -1e-3) & (d < 0.0), 0.0, d)",
           ("tests/test_measures.py::test_discord_from_sets_only_roundoff_to_zero",)),
    Mutant("interior-solve-off", "src/cavitycorr/measures.py",
           "(curv[1] < _NOISE) & (",
           "(curv[1] < -np.inf) & (",
           ("tests/test_measures.py::TestDiscordClosed::test_documented_worst_case",
            "tests/test_measures.py::TestHalfRange",
            "tests/test_measures.py::TestEndPointRoute::test_never_above_the_grid_oracle")),
    Mutant("regular-interior-gate-off", "src/cavitycorr/measures.py",
           "(slope[0] > 0.0) | near_pure",
           "(slope[0] > np.inf) | near_pure",
           ("tests/test_measures.py::TestEndPointRoute::test_never_above_the_grid_oracle",)),
    Mutant("near-pure-probe-off", "src/cavitycorr/measures.py",
           "NEAR_PURE = 1e-2",
           "NEAR_PURE = 0.0",
           ("tests/test_measures.py::TestOneStationaryPoint::test_the_exception_exists",
            "tests/test_measures.py::TestEndPointRoute::test_never_above_the_grid_oracle")),
    Mutant("end-point-tie-rule", "src/cavitycorr/measures.py",
           "at_zero = ends[0] <= ends[1]",
           "at_zero = ends[0] < ends[1]",
           ("tests/test_measures.py::TestEndPointRoute::test_end_point_ties_go_to_theta_zero",)),
    Mutant("xbatch-coherence-tolerance", "src/cavitycorr/xstate.py",
           "checks.append((abs2 - inner > ATOL, lambda i: (",
           "checks.append((abs2 - inner > 1e-6, lambda i: (",
           ("tests/test_xstate.py::TestMakeXstate::test_coherence_excess_beyond_atol_rejected",)),
    Mutant("xbatch-shape-check", "src/cavitycorr/xstate.py",
           "if cols[0].ndim != 1 or any(x.shape != cols[0].shape for x in cols):",
           "if cols[0].ndim != 1 or any(len(x) != len(cols[0]) for x in cols):",
           ("tests/test_xstate.py::TestMakeXbatch::test_malformed_columns_rejected",
            "tests/test_xstate.py::TestMakeXstate::test_sequence_rejected")),
    Mutant("states-ok-trace-drift", "src/cavitycorr/verify.py",
           "return (self.max_trace_drift <= ATOL and",
           "return (self.max_trace_drift <= 1e-6 and",
           ("tests/test_verify.py::test_states_verdict_fails_just_beyond_its_bound",)),
    Mutant("verify-coherence-excess-line", "src/cavitycorr/verify.py",
           "broken = (drift > ATOL) | (floor < -ATOL) | (excess > ATOL)",
           "broken = (drift > ATOL) | (floor < -ATOL)",
           ("tests/test_verify.py::test_coherence_excess_gets_its_failure_line",)),
    Mutant("prob-floor", "src/cavitycorr/measures.py",
           "PROB_FLOOR = 1e-14",
           "PROB_FLOOR = 1e-10",
           ("tests/test_measures.py::test_rare_outcome_counts",)),
    Mutant("series-shape-check", "src/cavitycorr/sweep.py",
           "if gts.ndim != 1 or gts.shape != vals.shape:",
           "if gts.ndim != 1 or len(gts) != len(vals):",
           ("tests/test_sweep.py::test_series_shapes_rejected",)),
    Mutant("discord-method-check", "src/cavitycorr/sweep.py",
           "if not isinstance(method, str) or method not in DISCORD_METHODS:",
           "if False:",
           ("tests/test_sweep.py::TestTimeSeries::test_unknown_method_rejected",)),
    Mutant("scalar-bool-exclusion", "src/cavitycorr/elementwise.py",
           "if isinstance(x, types) and not isinstance(x, bool):",
           "if isinstance(x, types):",
           ("tests/test_elementwise.py::test_scalar",
            "tests/test_sweep.py::TestTimeSeries::test_non_integer_steps_rejected",
            "tests/test_verify.py::test_float_parameters_reject_bools")),
    Mutant("scalar-open-lower-end", "src/cavitycorr/elementwise.py",
           "and (v > lower if open_lower else v >= lower)",
           "and (v >= lower if open_lower else v >= lower)",
           ("tests/test_elementwise.py::test_scalar",
            "tests/test_sweep.py::TestDetect::test_rejects_bad_thresholds")),
    Mutant("real-array-dtype-gate", "src/cavitycorr/elementwise.py",
           'if x.dtype.kind not in "iuf":',
           "if False:",
           ("tests/test_sweep.py::test_series_dtypes_rejected",)),
    Mutant("correlation-batch-gt-length", "src/cavitycorr/sweep.py",
           "if gt.shape != (len(states),):",
           "if gt.ndim != 1:",
           ("tests/test_sweep.py::TestSweepBatch::test_correlation_batch_gt_rejected",)),
    Mutant("verify-draw-rejection", "src/cavitycorr/verify.py",
           "if m & mask >= threshold:",
           "if True:",
           ("tests/test_verify.py::test_seeded_chunks_reproduce_the_per_sample_formula",)),
    Mutant("verify-draw-carry", "src/cavitycorr/verify.py",
           "stream, pos = stream[pos:], 0",
           "stream, pos = stream[pos + 1:], 0",
           ("tests/test_verify.py::test_seeded_chunks_reproduce_the_per_sample_formula",)),
    Mutant("verify-draw-run-short", "src/cavitycorr/verify.py",
           "if len(stream) < pos + 2:",
           "if len(stream) < pos + 1:",
           ("tests/test_verify.py::test_seeded_chunks_reproduce_the_per_sample_formula",)),
    Mutant("cli-usage-exit-code", "src/cavitycorr/cli.py",
           'self.exit(1, f"{self.prog}: error: {message}\\n")',
           'self.exit(2, f"{self.prog}: error: {message}\\n")',
           ("tests/test_cli.py::TestEvolve::test_bad_flag_value",)),
    Mutant("cli-dispatched-arguments", "src/cavitycorr/cli.py",
           "        self.add_arguments(parser)",
           "        pass",
           ("tests/test_cli.py::TestParser::test_output_and_namespace_match_an_eager_parser",)),
    Mutant("csv-tie-gate", "src/cavitycorr/csvformat.py",
           "np.abs(y - m) < 0.5",
           "np.abs(y - m) <= 0.5",
           ("tests/test_cli.py::TestCsvKernel::test_edge_corpus_matches_percent_format",)),
    Mutant("csv-carry-gate", "src/cavitycorr/csvformat.py",
           "m < 1e12",
           "m <= 1e12",
           ("tests/test_cli.py::TestCsvKernel::test_edge_corpus_matches_percent_format",)),
    Mutant("csv-decade-above", "src/cavitycorr/csvformat.py",
           "np.append(_DECADES, np.nan)",
           "np.append(_DECADES, np.inf)",
           ("tests/test_cli.py::TestCsvKernel::test_edge_corpus_matches_percent_format",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, tests) -> tuple[int, str]:
    """pytest's exit status and output for ``tests`` run in the copy ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def run(mutants) -> bool:
    """Run each mutant's tests on a mutated copy; True when every gate holds."""
    with tempfile.TemporaryDirectory(prefix="cavitycorr-mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        _copy(pristine)
        subset = sorted({t for m in mutants for t in m.tests})
        status, output = _pytest(pristine, subset)
        print(f"unmutated copy: pytest exit {status} on {len(subset)} test ids")
        if status != 0:
            print(output)
        ok = status == 0
        for m in mutants:
            tree = Path(tmp) / m.name
            shutil.copytree(pristine, tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name:30s} STALE: the old text occurs {text.count(m.old)} times")
                ok = False
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            status, output = _pytest(tree, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            print(f"{m.name:30s} {verdict} in {time.perf_counter() - start:.1f} s")
            if status > 1:
                print(output)
            ok &= status == 1
            shutil.rmtree(tree)
    return ok


def main() -> int:
    return 0 if run(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
