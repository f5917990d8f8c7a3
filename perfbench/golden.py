"""Record the stdout sha256 of the byte-stable workloads for the shipped seeds.

Run from the root of a checkout, at the commit whose output is the reference:

    python3 perfbench/golden.py

A hash is recorded only for output that passes the content checks.  The
timed runs of these seeds must then reproduce the output byte for byte.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run
import workloads

BYTE_STABLE = ("sweep-csv", "envelope-revival")
# Seeds 0 .. GOLDEN_SEEDS-1 ship with a recorded hash.
GOLDEN_SEEDS = 32


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = run.child_env(root)
    golden = {}
    for name in BYTE_STABLE:
        golden[name] = {}
        for seed in range(GOLDEN_SEEDS):
            wl = workloads.make(name, seed)
            res = run.spawn([sys.executable, "-m", "cavitycorr", *wl.args], env, root)
            failures = checks.check_run(wl, res.returncode, res.stdout, res.stderr, {})
            if failures:
                print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                return 1
            golden[name][str(seed)] = checks.sha256(res.stdout)
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
