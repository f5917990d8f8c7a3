"""Benchmark of the cavitycorr CLI: end-to-end timed runs or one traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-csv --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics.  The command
runs a few times in a fresh ``python -m cavitycorr`` process, for its peak
RSS, and ``python -m cavitycorr --help`` gives the start-up time.  Then the
command line runs in this process through ``cavitycorr.cli.main`` for
``--seconds``, one call at a time.  Every timed call or start-up is
bracketed by a fixed calibration and reported at a reference machine
speed (see ``calibrate``).  With ``--trace 1`` the same command line runs
in this process, alternately untraced and with every layer's entry point
wrapped in a span, and the result carries the per-layer metrics.
Every run's output is checked outside the timed region.  The last line of
stdout is the JSON result; the line before it records the environment,
the inputs and the raw samples.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

# A command that runs this long is killed and counted as failed, so a hung
# program cannot keep a run from ending.
COMMAND_TIMEOUT_S = 60.0
MIN_SAMPLES = 3
# Fresh-process runs of the command (for peak RSS) and of ``--help`` (for
# start-up) made before the timed in-process calls.
FRESH_RUNS = 3
SETUP_RUNS = 11

# The speed of a shared virtual machine drifts by up to 2x within seconds
# and from one minute to the next, so raw times of runs made minutes apart
# do not compare.  Each timed call is therefore bracketed by two runs of a
# calibration whose work resembles it, and reported as
#     time * REF_S / mean(calibration before, calibration after),
# its time at the machine speed where the calibration takes REF_S.  The
# calibrations run no cavitycorr code, so a change to the program moves
# the scaled time as much as the raw one.
# In-process calls: small-array numpy calls from a Python loop, the kind of
# work the sweep core and the discord minimizer are made of.
COMPUTE_CAL_CALLS = 3000
COMPUTE_REF_S = 0.015
# Start-up: a fresh interpreter that imports what ``--help`` imports
# besides cavitycorr itself.
STARTUP_CAL = ("-c", "import numpy, argparse")
STARTUP_REF_S = 0.15
_CAL_ARRAY = np.linspace(0.0, 1.0, 64)

END_TO_END = {"wall_s": "s", "throughput": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "evolution.evolve.us_per_call": "us",
    "evolution.evolve.calls": "count",
    "xstate.make_xstate.us_per_call": "us",
    "xstate.make_xstate.calls": "count",
    "measures.discord_closed.us_per_call": "us",
    "measures.mutual_information.us_per_call": "us",
    "measures.concurrence.us_per_call": "us",
    "measures.closed_min_conditional_entropy.us_per_call": "us",
    "sweep.time_series.self_s": "s",
    "cli.format_record.us_per_call": "us",
    "cli.format_record.calls": "count",
    "cli.output_bytes": "B",
    "sweep.envelope.s": "s",
    "sweep.detect_collapse_revival.s": "s",
    "fock.sequential_pass.us_per_call": "us",
    "fock.sequential_pass.calls": "count",
    "measures.bruteforce_min.us_per_call": "us",
    "measures.bruteforce_min.calls": "count",
    "measures.bruteforce_min.evals_per_call": "count",
    "verify.run_verification.self_s": "s",
    "verify.sample_xstate.us_per_call": "us",
    "oracle.share_of_wall": "ratio",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_layers": "count",
}
# Suffixes of per-layer metrics read straight from a layer's span totals.
_STATS = {"calls": "calls", "us_per_call": "us_per_call", "self_s": "self_s", "s": "total_s"}


@dataclass
class Run:
    """One command execution: its timing, resources and output."""

    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes | None
    stderr: bytes | None


def spawn(cmd: list[str], env: dict, cwd: Path) -> Run:
    """Run ``cmd`` to completion; wall time from spawn to exit, rusage of this child only."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t0 + COMMAND_TIMEOUT_S - time.perf_counter()
            if remaining <= 0.0 and not killed:
                # os.kill, not Popen.kill: Popen polls first and could reap
                # the child before wait4 reads its resource usage.
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode,
               b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]))


def child_env(root: Path) -> dict:
    """The caller's environment with only this checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or the environment's setting."""
    import ctypes

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code: machine, interpreter, BLAS."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "platform": platform.platform()}


def compute_calibration() -> float:
    """Wall time of the in-process calibration loop."""
    t0 = time.perf_counter()
    for _ in range(COMPUTE_CAL_CALLS):
        float(np.sum(np.sqrt(_CAL_ARRAY) * np.log1p(_CAL_ARRAY)))
    return time.perf_counter() - t0


def scaled(raw: list[float], cals: list[float], ref: float) -> list[float]:
    """Each raw time at the reference speed; ``cals[i]`` and ``cals[i+1]`` bracket ``raw[i]``."""
    return [t * 2.0 * ref / (before + after) for t, before, after in zip(raw, cals, cals[1:])]


def timed(wl: workloads.Workload, seconds: float, root: Path, golden: dict):
    """Fresh-process runs, then in-process calls for ``seconds``; end-to-end metrics."""
    from cavitycorr import cli
    env = child_env(root)
    python = [sys.executable, "-m", "cavitycorr"]
    outputs, keys = {}, []

    def record(code: int, out: bytes, err: bytes):
        # Keep one copy of each distinct output; identical runs share a check.
        key = (code, checks.sha256(out), checks.sha256(err))
        outputs.setdefault(key, (out, err))
        keys.append(key)

    # The first interpreter compiles bytecode and is not timed.
    spawn(python + ["--help"], env, root)
    fresh = []
    for _ in range(FRESH_RUNS):
        run = spawn(python + list(wl.args), env, root)
        record(run.returncode, run.stdout, run.stderr)
        fresh.append(run)
    setup, startup_cals = [], [spawn([sys.executable, *STARTUP_CAL], env, root)]
    for _ in range(SETUP_RUNS):
        setup.append(spawn(python + ["--help"], env, root))
        startup_cals.append(spawn([sys.executable, *STARTUP_CAL], env, root))
    setup_cals = [run.wall_s for run in startup_cals]

    argv = list(wl.args)
    record(*call_cli(cli.main, argv)[:3])  # warm-up, not timed
    walls, cals = [], [compute_calibration()]
    deadline = time.perf_counter() + seconds
    while True:
        code, out, err, wall, _ = call_cli(cli.main, argv)
        cals.append(compute_calibration())
        walls.append(wall)
        record(code, out, err)
        if len(walls) >= MIN_SAMPLES and time.perf_counter() + wall + cals[-1] > deadline:
            break

    failures = []
    setup_failed = sum(1 for run in setup if run.returncode != 0
                       or not run.stdout.startswith(b"usage: cavitycorr"))
    if setup_failed:
        failures.append(f"{setup_failed} of {len(setup)} '--help' runs failed")
    if any(run.returncode != 0 for run in startup_cals):
        # Without its calibration the start-up time cannot be scaled.
        failures.append("the start-up calibration failed")
        setup_failed += 1
    verdicts = {key: checks.check_run(wl, key[0], out, err, golden)
                for key, (out, err) in outputs.items()}
    failed_runs = sum(1 for key in keys if verdicts[key])
    for msgs in verdicts.values():
        failures += msgs
    wall_scaled = scaled(walls, cals, COMPUTE_REF_S)
    setup_scaled = scaled([run.wall_s for run in setup], setup_cals, STARTUP_REF_S)
    wall = statistics.median(wall_scaled)
    metrics = {"wall_s": wall, "throughput": wl.units / wall,
               "peak_rss_mb": statistics.median(run.rss_mb for run in fresh),
               "setup_s": statistics.median(setup_scaled)}
    samples = {"calls": len(walls), "failed_runs": failed_runs,
               "wall_s": wall_scaled, "raw_wall_s": walls, "compute_cal_s": cals,
               "setup_s": setup_scaled, "raw_setup_s": [run.wall_s for run in setup],
               "startup_cal_s": setup_cals,
               "fresh_wall_s": [run.wall_s for run in fresh],
               "peak_rss_mb": [run.rss_mb for run in fresh],
               "error_rate": failed_runs / len(keys)}
    return metrics, len(keys) + len(setup), failed_runs + setup_failed, failures, samples


def call_cli(main, argv: list[str]):
    """One in-process CLI call: (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a crash of the program is a failed run, as in a child
            traceback.print_exc()
            code = 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue().encode(), err.getvalue().encode(), wall, cpu


def trace_once(argv: list[str]):
    """One traced CLI call: (exit code, stdout, stderr, wall s, layer stats, evals, absent)."""
    from cavitycorr import cli
    spans = tracer.Tracer()
    with tracer.instrumented(spans) as absent:
        main = spans.wrap(tracer.ROOT, cli.main)
        code, out, err, wall, _ = call_cli(main, argv)
    return code, out, err, wall, spans.reduce(), spans.evals, absent


def layer_metrics(stats: dict, evals: int, wall: float, out: bytes) -> dict:
    """Per-layer metrics of one traced call, except the untraced comparisons."""
    metrics = {}
    layers = {layer for layer, _, _ in tracer.LAYERS}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in _STATS and layer in layers:
            s = stats.get(layer, tracer.LayerStats())
            metrics[name] = float(getattr(s, _STATS[stat]))
    brute = stats.get("measures.bruteforce_min", tracer.LayerStats())
    metrics["measures.bruteforce_min.evals_per_call"] = evals / brute.calls if brute.calls else 0.0
    oracle = brute.total_s + stats.get("fock.sequential_pass", tracer.LayerStats()).total_s
    metrics["oracle.share_of_wall"] = oracle / wall
    metrics["cli.output_bytes"] = float(len(out))
    metrics["trace.wall_s"] = wall
    return metrics


def traced(wl: workloads.Workload, seconds: float, root: Path, golden: dict):
    """Alternate untraced and traced in-process calls for ``seconds``; per-layer metrics."""
    from cavitycorr import cli
    argv = list(wl.args)
    plain, reps, failures, verdicts = [], [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        code, out, err, wall, cpu = call_cli(cli.main, argv)
        plain.append((wall, cpu))
        tcode, tout, terr, twall, stats, evals, absent = trace_once(argv)
        reps.append(layer_metrics(stats, evals, twall, tout))
        for c, o, e in ((code, out, err), (tcode, tout, terr)):
            attempted += 1
            key = (c, checks.sha256(o), checks.sha256(e))
            if key not in verdicts:
                verdicts[key] = checks.check_run(wl, c, o, e, golden)
                failures += verdicts[key]
            failed += bool(verdicts[key])
        if time.perf_counter() + wall + twall > deadline:
            break
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    plain_wall = statistics.median(w for w, _ in plain)
    metrics["proc.cpu_s"] = statistics.median(c for _, c in plain)
    metrics["proc.cpu_per_wall"] = statistics.median(c / w for w, c in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    metrics["trace.absent_layers"] = float(len(absent))
    samples = {"reps": len(reps), "untraced_wall_s": [w for w, _ in plain],
               "traced_wall_s": [rep["trace.wall_s"] for rep in reps],
               "absent_layers": absent}
    return metrics, attempted, failed, failures, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "cavitycorr" / "__init__.py").is_file():
        print("perfbench: run from the root of a cavitycorr checkout "
              "(src/cavitycorr not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    wl = workloads.make(args.workload, args.seed)
    golden = checks.load_golden()
    measure = traced if args.trace else timed
    metrics, attempted, failed, failures, samples = measure(wl, args.seconds, root, golden)
    units = PER_LAYER if args.trace else END_TO_END
    detail = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "inputs": wl.inputs, "command": ["python", "-m", "cavitycorr", *wl.args],
              "units_per_command": wl.units, "unit": wl.unit_name,
              "environment": environment(root), "samples": samples,
              "failures": failures[:20]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
