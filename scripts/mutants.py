#!/usr/bin/env python3
"""A standing catalogue of one-line mutants of the package's gates.

Each entry changes one line of a file under ``src/`` (``old`` becomes
``new``) and names the tests that must fail on the mutant.  The script
copies ``src/``, ``tests/``, ``scripts/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, applies one mutant there
and runs only its tests, with ``pytest -x``.  It first runs the union of
those tests on the unmutated copy, which must pass.

An entry with an ``equivalent`` argument changes no output the package
can produce; the argument is kept in the entry, and the mutant is not run.

Run from the repository root:

    python scripts/mutants.py

The exit status is 1 if the unmutated copy fails, or if any mutant not
marked equivalent survives or breaks its run in another way (pytest's
exit status other than 1).  ``tests/test_mutants.py`` checks in tier-1
that each ``old`` text occurs exactly once in ``src/``.
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
    equivalent: str = ""     # why the mutant changes no output, if it does not


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
    Mutant("envelope-right-edge", "src/cavitycorr/sweep.py",
           'hi = np.searchsorted(gts, gts + half, side="right")',
           'hi = np.searchsorted(gts, gts + half, side="left")',
           ("tests/test_sweep.py::TestEnvelope::test_abs_sine",)),
    Mutant("discord-from-clamp", "src/cavitycorr/measures.py",
           "return np.where((d >= -1e-9) & (d < 0.0), 0.0, d)",
           "return np.where((d >= -1e-3) & (d < 0.0), 0.0, d)",
           ("tests/test_measures.py::test_discord_from_sets_only_roundoff_to_zero",)),
    Mutant("no-golden-section", "src/cavitycorr/measures.py",
           "better = ft < best",
           "better = ft < -math.inf",
           ("tests/test_measures.py::TestDiscordClosed::test_documented_worst_case",
            "tests/test_measures.py::TestHalfRange")),
    Mutant("xbatch-coherence-tolerance", "src/cavitycorr/xstate.py",
           "checks.append((abs2 - inner > ATOL, lambda i: (",
           "checks.append((abs2 - inner > 1e-6, lambda i: (",
           ("tests/test_xstate.py::TestMakeXstate::test_coherence_excess_beyond_atol_rejected",)),
    Mutant("make-xstate-takes-bools", "src/cavitycorr/xstate.py",
           'if not (ew.is_real(v) or name == "c23"',
           'if not (isinstance(v, (int, float)) or name == "c23"',
           ("tests/test_xstate.py::TestMakeXstate::test_strings_and_bools_rejected",)),
    Mutant("states-ok-trace-drift", "src/cavitycorr/verify.py",
           "return (self.max_trace_drift <= 1e-12 and",
           "return (self.max_trace_drift <= 1e-6 and",
           ("tests/test_verify.py::test_states_verdict_fails_just_beyond_its_bound",)),
    Mutant("verify-coherence-excess-line", "src/cavitycorr/verify.py",
           "broken = (drift > 1e-12) | (floor < -1e-12) | (excess > 1e-12)",
           "broken = (drift > 1e-12) | (floor < -1e-12)",
           ("tests/test_verify.py::test_coherence_excess_gets_its_failure_line",)),
    Mutant("prob-floor", "src/cavitycorr/measures.py",
           "PROB_FLOOR = 1e-14",
           "PROB_FLOOR = 1e-10",
           ("tests/test_measures.py::test_rare_outcome_counts",)),
    Mutant("csv-margin", "src/cavitycorr/csvformat.py",
           "_MARGIN = 0.5 - 2.0 ** -12",
           "_MARGIN = 0.5",
           (),
           equivalent=(
               "The powers 10**(11 - X) are exact doubles, so y = RN(|x| * 10**(11 - X)) "
               "is the correctly rounded product, and the tie M + 0.5 (y < 2**40) is a "
               "double.  Rounding is monotone: y < M + 0.5 implies that the exact product "
               "is below M + 0.5, and y > M - 0.5 that it is above M - 0.5, so "
               "|y - M| < 0.5 already makes M the correctly rounded digits; an exact tie "
               "fails the strict <.  Measured: 6 738 083 values in the band "
               "0.5 - 2**-12 <= |y - rint(y)|, 1 436 912 of them exact ties, over the "
               "decades -4..2, formatted byte-identically to '%.12g' under the mutant."))
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
    live = [m for m in mutants if not m.equivalent]
    with tempfile.TemporaryDirectory(prefix="cavitycorr-mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        _copy(pristine)
        subset = sorted({t for m in live for t in m.tests})
        status, output = _pytest(pristine, subset) if subset else (0, "")
        print(f"unmutated copy: pytest exit {status} on {len(subset)} test ids")
        if status != 0:
            print(output)
        ok = status == 0
        for m in mutants:
            if m.equivalent:
                print(f"{m.name:30s} equivalent, not run")
                continue
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
