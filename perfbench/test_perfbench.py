"""Tests of the benchmark's own output checks and tracing.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cavitycorr import cli  # noqa: E402

GOLDEN = checks.load_golden()


def resized(wl: workloads.Workload, key: str, flag: str, size: int) -> workloads.Workload:
    """The same workload with a smaller command, so tests stay fast."""
    args = list(wl.args)
    args[args.index(flag) + 1] = str(size)
    units = size if key == "samples" else size + 1
    return dataclasses.replace(wl, args=tuple(args), units=units,
                               inputs=dict(wl.inputs, **{key: size}))


def output(wl: workloads.Workload) -> bytes:
    code, out, err, _, _ = run.call_cli(cli.main, list(wl.args))
    assert code == 0 and err == b""
    return out


def flip_digit(text: bytes, row: int, column: int, position: int) -> bytes:
    """Change one digit of one CSV field, counting digits from the field's start."""
    lines = text.split(b"\n")
    fields = lines[row].split(b",")
    field = bytearray(fields[column])
    digits = [i for i, ch in enumerate(field) if chr(ch).isdigit()]
    i = digits[min(position, len(digits) - 1)]
    field[i] = ord(str((int(chr(field[i])) + 5) % 10))
    fields[column] = bytes(field)
    lines[row] = b",".join(fields)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def small_sweep():
    wl = resized(workloads.make("sweep-csv", 1000), "steps", "--steps", 300)
    return wl, output(wl)


def test_sweep_output_passes(small_sweep):
    wl, out = small_sweep
    assert checks.check_run(wl, 0, out, b"", GOLDEN) == []


@pytest.mark.parametrize("column", range(3, 13))
def test_sweep_digit_flip_fails(small_sweep, column):
    # Row 150, sixth digit: a change of about 1e-6 in any value column.
    wl, out = small_sweep
    assert checks.check_run(wl, 0, flip_digit(out, 150, column, 5), b"", GOLDEN)


def test_golden_seed_digit_flip_fails():
    wl = workloads.make("sweep-csv", 0)
    assert "0" in GOLDEN["sweep-csv"]
    out = output(wl)
    assert checks.check_golden(wl, out, GOLDEN) == []
    flipped = flip_digit(out, 2000, 5, 11)  # the last of 12 significant digits
    assert any("sha256" in f for f in checks.check_run(wl, 0, flipped, b"", GOLDEN))


def test_envelope_order_checked():
    wl = resized(workloads.make("envelope-revival", 1000), "steps", "--steps", 8000)
    out = output(wl)
    assert checks.check_run(wl, 0, out, b"", GOLDEN) == []
    lines = out.split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    assert checks.check_run(wl, 0, b"\n".join(lines), b"", GOLDEN)


@pytest.fixture(scope="module")
def small_verify():
    wl = resized(workloads.make("verify-oracle", 1000), "samples", "--samples", 30)
    return wl, output(wl)


def test_verify_report_passes(small_verify):
    wl, out = small_verify
    assert checks.check_run(wl, 0, out, b"", GOLDEN) == []


def test_verify_fail_line_fails(small_verify):
    wl, out = small_verify
    bad = out.replace(b"overall: PASS", b"FAIL sample 3: discord deviation\noverall: PASS")
    assert any("FAIL line" in f for f in checks.check_run(wl, 0, bad, b"", GOLDEN))


def test_verify_nan_deviation_fails(small_verify, monkeypatch):
    # A NaN compares false against every tolerance, so the report still says PASS.
    from cavitycorr import measures, verify
    closed = measures.discord_closed

    def nan_for_some(state):
        return math.nan if state.p44 > 0.4 else closed(state)

    monkeypatch.setattr(measures, "discord_closed", nan_for_some)
    monkeypatch.setattr(verify, "discord_closed", nan_for_some)
    wl, _ = small_verify
    out = output(wl)
    assert out.endswith(b"overall: PASS\n") and b"FAIL" not in out
    assert any("not finite" in f for f in checks.check_run(wl, 0, out, b"", GOLDEN))


def test_verify_wrong_maximum_fails(small_verify):
    wl, out = small_verify
    bad = re.sub(rb"min population = \S+", b"min population = 0.25", out)
    assert any("differs from the replayed" in f for f in checks.check_run(wl, 0, bad, b"", GOLDEN))


def test_failed_exit_and_traceback_fail(small_verify):
    wl, out = small_verify
    assert checks.check_run(wl, 2, out, b"", GOLDEN)
    assert checks.check_run(wl, 0, out, b"Traceback (most recent call last):", GOLDEN)


@pytest.mark.parametrize("name,key,flag,size", [
    ("sweep-csv", "steps", "--steps", 300),
    ("verify-oracle", "samples", "--samples", 20),
])
def test_self_times_within_traced_wall(name, key, flag, size):
    wl = resized(workloads.make(name, 1000), key, flag, size)
    code, out, _, wall, stats, _, absent = run.trace_once(list(wl.args))
    assert code == 0 and absent == []
    assert stats[tracer.ROOT].calls == 1
    assert sum(s.self_s for s in stats.values()) <= wall
    assert all(s.self_s >= 0.0 for s in stats.values())


def test_layer_split():
    sweep = resized(workloads.make("sweep-csv", 1000), "steps", "--steps", 300)
    _, out, _, wall, stats, evals, _ = run.trace_once(list(sweep.args))
    m = run.layer_metrics(stats, evals, wall, out)
    assert m["evolution.evolve.calls"] == m["cli.format_record.calls"] == 301
    assert m["fock.sequential_pass.calls"] == m["measures.bruteforce_min.calls"] == 0
    env = resized(workloads.make("envelope-revival", 1000), "steps", "--steps", 8000)
    _, out, _, wall, stats, evals, _ = run.trace_once(list(env.args))
    assert run.layer_metrics(stats, evals, wall, out)["cli.format_record.calls"] == 0
    ver = resized(workloads.make("verify-oracle", 1000), "samples", "--samples", 20)
    _, out, _, wall, stats, evals, _ = run.trace_once(list(ver.args))
    m = run.layer_metrics(stats, evals, wall, out)
    assert m["fock.sequential_pass.calls"] == m["measures.bruteforce_min.calls"] == 20
    assert m["measures.bruteforce_min.evals_per_call"] > 128
    assert m["oracle.share_of_wall"] >= 0.8


def test_missing_layer_is_absent(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (
        ("fock.removed", "cavitycorr.fock", "no_such_function"),
        ("gone.module", "cavitycorr.no_such_module", "f"),
    ))
    wl = resized(workloads.make("sweep-csv", 1000), "steps", "--steps", 50)
    code, _, _, _, stats, _, absent = run.trace_once(list(wl.args))
    assert code == 0 and absent == ["fock.removed", "gone.module"]
    assert stats["evolution.evolve"].calls == 51


def test_scaled_times_follow_the_calibration():
    # A call that took twice its calibration reads as twice the reference time,
    # whatever the machine speed; the calibrations on both sides are averaged.
    assert run.scaled([0.2, 0.4], [0.1, 0.1, 0.3], 0.015) == pytest.approx([0.03, 0.03])
    assert run.scaled([1.0], [0.01, 0.03], 0.02) == pytest.approx([1.0])


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_golden_seeds_recorded():
    for name in golden.BYTE_STABLE:
        assert sorted(GOLDEN[name], key=int) == [str(s) for s in range(golden.GOLDEN_SEEDS)]
