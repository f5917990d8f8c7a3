#!/usr/bin/env python3
"""Record ``BENCH_<PR>.json``: the untraced benchmark at a parent commit and at a change.

Run from the repository root, for example:

    python scripts/bench_json.py --pr 32 --parent HEAD~1 --change HEAD

Each commit is exported with ``git archive`` into a temporary directory.
For every workload and seed, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each export, from its root: the
parent first on odd seeds and the change first on even ones, so a drift
of the machine's speed falls on both sides alike.  Before each pair the
median of five fresh ``python -c pass`` processes is recorded; it marks
the machine's mode.

The file holds both commits, the command line of every run, each run's
detail and result lines as printed, except that a sample list longer than
``KEEP_SAMPLES`` (the per-call times of the timed loop, hundreds per run)
is kept as its count, minimum, quartiles and maximum, and per workload and end-to-end
metric of ``BENCHMARK.json``: the values of both sides seed by seed, how
many pairs the change wins, both medians and the parent's interquartile
range.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-csv", "envelope-revival", "verify-oracle")
KEEP_SAMPLES = 32


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> str:
    """Unpack the tree of ``rev`` into ``dest``; return its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return commit


def _startup_s() -> float:
    """Median wall time of five fresh ``python -c pass`` processes."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def shorten(detail: dict) -> dict:
    """``detail`` with each sample list longer than ``KEEP_SAMPLES`` summarized."""
    samples = {}
    for name, values in detail.get("samples", {}).items():
        if isinstance(values, list) and len(values) > KEEP_SAMPLES:
            q1, q3 = _quartiles(values)
            values = {"count": len(values), "min": min(values), "q1": q1,
                      "median": statistics.median(values), "q3": q3, "max": max(values)}
        samples[name] = values
    return {**detail, "samples": samples}


def _run(tree: Path, argv: list[str]) -> dict:
    """One benchmark run in ``tree``: its detail and result lines as printed."""
    done = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    if done.returncode == 0 and len(lines) >= 2:
        run["detail"] = shorten(json.loads(lines[-2])["detail"])
        run["result"] = json.loads(lines[-1])
    return run


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' values by seed and the pairs the change wins."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and "result" in r:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        seeds = sorted(s for s, p in pairs.items() if len(p) == 2)
        table = {"seeds": seeds,
                 "correct": all(p[side]["correct"] for p in pairs.values() for side in p)}
        for m in metrics:
            name = m["name"]
            parent = [pairs[s]["parent"]["metrics"][name]["value"] for s in seeds]
            change = [pairs[s]["change"]["metrics"][name]["value"] for s in seeds]
            lower = m["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            entry = {"better": m["better"], "parent": parent, "change": change,
                     "change_wins": wins, "pairs": len(seeds)}
            if seeds:
                entry["parent_median"] = statistics.median(parent)
                entry["change_median"] = statistics.median(change)
            if len(seeds) >= 2:
                q1, q3 = _quartiles(parent)
                entry["parent_iqr"] = q3 - q1
            table[name] = entry
        summary[workload] = table
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = ROOT / f"BENCH_{args.pr}.json"
    runs, startup = [], []
    with tempfile.TemporaryDirectory(prefix="cavitycorr-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: _export(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        for workload in WORKLOADS:
            for seed in args.seeds:
                argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(args.seconds), "--trace", "0"]
                startup.append({"workload": workload, "seed": seed, "python_c_pass_s": _startup_s()})
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = {"workload": workload, "seed": seed, "side": side,
                           "argv": ["python3", *argv], **_run(trees[side], argv)}
                    runs.append(run)
                    result = run.get("result", {})
                    print(f"{workload} seed {seed} {side}: exit {run['exit']} correct "
                          f"{result.get('correct')} wall_s "
                          f"{result.get('metrics', {}).get('wall_s', {}).get('value')}",
                          file=sys.stderr)
    record = {"pr": args.pr,
              "parent": {"rev": args.parent, "commit": commits["parent"]},
              "change": {"rev": args.change, "commit": commits["change"]},
              "seconds": args.seconds, "python": sys.version.split()[0],
              "startup": startup, "summary": summarize(runs, metrics), "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(r.get("result", {}).get("correct") is True for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
