"""Print every benchmark metric by name, with its unit, for every workload.

Run from the root of a checkout:

    python3 perfbench/report.py --seed 1

For each workload this runs ``perfbench/run.py`` twice, untraced for the
end-to-end metrics and traced for the per-layer metrics, one after the
other, and prints the sample count, the error rate (failed runs over
attempted runs) and each metric.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")
SPEC = Path("BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    status = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: run.py exited {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name} seed={args.seed} {kind}: {result['attempted']} runs "
                  f"attempted, {result['failed']} failed, correct={result['correct']}")
            print(f"   inputs {json.dumps(detail['inputs'])}")
            for failure in detail["failures"]:
                print(f"   FAILURE {failure}")
            rows = {metric: (m["value"], m["unit"]) for metric, m in result["metrics"].items()}
            rows["error_rate"] = (result["failed"] / result["attempted"], "ratio")
            for metric, (value, unit) in rows.items():
                print(f"   {metric:52s} {value:>14.6g} {unit}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
