"""Byte-exact CLI output and the batch/chunk independence of every value.

The CSV hashes were recorded from the per-point scalar implementation that
the array code replaced, the verify-report hashes from the chunked verify
before it took its measures from correlation_batch; they are never
regenerated to make a test pass.  Three re-recordings, each a change at
round-off level whose changed lines CHANGES.md lists: six of the eight
hashes that carry brute-force values (``--discord brute`` sweeps and verify
reports; the 8-step sweep and seed 0's report kept their bytes) when the
brute-force search moved to the half range [0, pi/4] with one
golden-section round (ROADMAP item 6); and four of the then eleven
(the ``--n 0 --r 0.3`` and ``--n 3 --r 0.4`` brute sweeps, and the verify
reports of seed 0 and of ``--samples 1000 --seed 42``; no field moved by
more than 1e-14) when the grid and golden-section search gave way to the
end points and one bracketed root of H'(z) (ROADMAP item 19); and seven of
the eleven (the three ``--discord brute`` sweeps of more than 8 steps, and
the verify reports of seed 1, of both ``--seed 7`` runs and of seed 11; no
minimum moved by more than 5.5e-15, so a 12-digit field moved by at most
one unit of its last digit) when the brute force took H itself, not only
its derivatives, from the z form.  The benchmark's own golden hashes
(perfbench/golden.json) are replayed here too, from its workload
definitions, which these tests only read.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import (
    EvolutionParams,
    SweepConfig,
    closed_min_conditional_entropy,
    concurrence,
    discord_closed,
    entropy_a,
    evolve,
    mutual_information,
    sweep_batches,
    time_series,
    werner_state,
)
from cavitycorr.cli import main
from cavitycorr.sweep import SWEEP_CHUNK
from cavitycorr.verify import VERIFY_CHUNK

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    # README commands
    "evolve --n 10 --r 0.2 --gt-max 50 --steps 5000":
        "7ac42643ecc49fe6e9f293279845017fd026fd3ec76cd1220d19939e0613300d",
    "envelope --n 5 --r 0 --gt-max 60 --steps 6000 --measure discord":
        "6b0668a820f842efc3784d057bec9fe77dc32634385a67e4c923eb056fec2516",
    # acceptance configs
    "evolve --n 5 --r 0 --gt-max 60 --steps 6000":
        "ec884c806885e0f341025ee8673169382dad308f58d8b715249531070527fd91",
    "evolve --n 10 --r 0 --gt-max 60 --steps 6000":
        "3faa361db9e22c346b3257eaba2ae0fde1b44c369ecfc2ef581594ebdc7be9c7",
    "envelope --n 10 --r 0 --gt-max 60 --steps 6000 --measure discord":
        "f334bba8a09f7a4c982943fab0783ad4ae5946da3dc8496e96fc6824ea31b315",
    "envelope --n 5 --r 0 --gt-max 60 --steps 6000 --measure concurrence --threshold 0.01":
        "69edf2521e0c68279de85319044a2de12c1a8c1754f51bb4dc3042ce9b6b2c6e",
    "evolve --n 0 --r 0 --gt-max 20 --steps 4000":
        "f82afc67c2fcdbb4cbed2580e48c6a0bde0271906bd3534fc3761e57500ec420",
    "evolve --n 10 --r 0.2 --gt-max 10 --steps 2000":
        "6fb4c459d411a8897bc34020d7f592da7b8a65d34c3e3ecc7d31e9f9fd75fa22",
    "evolve --n 4 --r 0.35 --gt-max 8 --steps 200":
        "3792e93bb6c0c7a6895576822f918b306399309dfe63c0ad4e9e2948526477bf",
    # brute-force discord route
    "evolve --n 1 --r 0.3 --gt-max 4 --steps 8 --discord brute":
        "b76e1596a512b328f1003609b60d556ef88ab95e8bd4cd98be7f30bfbe36d296",
    # sweeps recorded with 1024-point chunks, which they straddled
    "evolve --n 7 --r 0.65 --gt-max 33 --steps 1100 --discord brute":
        "3b1ac5309d3610fd23e7b04dd8fb5c825fdf906bab65f1617918fe566989ad09",
    "evolve --n 7 --r 0.65 --gt-max 33 --steps 2500":
        "c06d463d6f40017c6b2165e74f162d242bbefcc3cdeb398ea3cd917e6937f0b9",
    # full SWEEP_CHUNK chunks and a partial one, closed form and brute force
    # (test_chunk_straddling_sweep_spans_several_chunks), also recorded with
    # 1024-point chunks
    "evolve --n 7 --r 0.65 --gt-max 33 --steps 8292":
        "34d9c08eca0155d9d94e624c93eebe6d7cd8b9cfd8403826407fa4c3b898d711",
    "evolve --n 3 --r 0.4 --gt-max 20 --steps 4196 --discord brute":
        "548281e091019ffb31c323492f1ac631123a9bd99483fa0990d7349e0f4c7774",
    # verify reports: closed forms against the Fock oracle and the brute force
    "verify --samples 60 --n-max 12 --gt-max 20 --seed 0":
        "9365123d51235933897cfd2d66ee52bde2d005289cb5992b302c1643b40930eb",
    "verify --samples 60 --n-max 12 --gt-max 20 --seed 1":
        "3e80d9850142e10e7612bede467b11845ae551de62a468c70a390979b8748cee",
    "verify --samples 60 --n-max 12 --gt-max 20 --seed 2":
        "e131c6848e2bbd2a95a9e1956a08ca57e9ec94572c7017f942f93c51a93a8360",
    "verify --samples 1000 --seed 42":
        "ab411e556061794bd293e004b0da2ecb6a6d1c721546f4ff8ea67b88d0067f9e",
    # 1100 samples: a full VERIFY_CHUNK chunk and a partial one
    "verify --samples 1100 --seed 7":
        "b88460a5217c7663acaea044a5e17df2ae2460b2e4a0d296d605267be4753652",
    # n_max = 2**31: about half of the 32-bit draws of n are rejected, so the
    # samples after each rejection shift in the raw stream
    "verify --samples 1100 --seed 7 --n-max 2147483648":
        "2ff3978cf2d3d79d893d151d21ba64f75a01943040c8c097627a270839ef8936",
    # edges of the Fock oracle's photon numbers: n up to 2**53, and n = 0,
    # where a configuration's photon number can be negative (angle 0)
    "verify --samples 300 --seed 11 --n-max 9007199254740992":
        "f7ade8d44163c2af9c353751c3cf22f1f9fc0cd29467acd44e1c8f6f9fb7d9e9",
    "evolve --n 0 --r 0.3 --gt-max 5 --steps 400 --discord brute":
        "5b7a7324532d8aef0b7e5502b503aa04f752c9e18edb19245e53e247feb7490f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_bytes_unchanged(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep-csv", "envelope-revival"])
def test_benchmark_golden_hashes_unchanged(name, capsys):
    workloads = _perfbench_workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]
    assert sorted(map(int, golden)) == list(range(32))
    drifted = []
    for seed, digest in golden.items():
        assert main(list(workloads.make(name, int(seed)).args)) == 0
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest:
            drifted.append(int(seed))
    assert drifted == []


def test_chunk_straddling_sweep_spans_several_chunks():
    # golden command: (points or samples, chunk size, full chunks it must fill)
    straddling = {
        "evolve --n 7 --r 0.65 --gt-max 33 --steps 8292": (8293, SWEEP_CHUNK, 2),
        "evolve --n 3 --r 0.4 --gt-max 20 --steps 4196 --discord brute":
            (4197, SWEEP_CHUNK, 1),
        "verify --samples 1100 --seed 7": (1100, VERIFY_CHUNK, 1),
        "verify --samples 1100 --seed 7 --n-max 2147483648": (1100, VERIFY_CHUNK, 1),
    }
    for command, (points, chunk, full) in straddling.items():
        assert command in GOLDEN
        assert points // chunk == full and points % chunk != 0, command


def _columns(batch):
    s = batch.states
    return np.stack([batch.gt, s.p11, s.p22, s.p33, s.p44, s.re_c23, s.im_c23,
                     batch.concurrence, batch.discord, batch.classical_correlation,
                     batch.mutual_information])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@given(n=st.integers(0, 200), r=st.floats(0.0, 1.0),
       gt_max=st.floats(0.01, 500.0), steps=st.integers(1, 300),
       chunk=st.integers(1, 310), data=st.data())
def test_values_independent_of_batching(n, r, gt_max, steps, chunk, data):
    cfg = SweepConfig(n=n, r=r, gt_max=gt_max, steps=steps)
    whole = _columns(time_series(cfg))
    chunked = np.concatenate([_columns(b) for b in sweep_batches(cfg, chunk)], axis=1)
    assert (_bits(whole) == _bits(chunked)).all()

    # one grid point computed alone, through the scalar entry points
    i = data.draw(st.integers(0, steps))
    gt = i * gt_max / steps
    state = evolve(werner_state(r), EvolutionParams(n, gt))
    m = closed_min_conditional_entropy(state)
    alone = [gt, state.p11, state.p22, state.p33, state.p44, state.c23.real,
             state.c23.imag, concurrence(state), discord_closed(state),
             entropy_a(state) - m, mutual_information(state)]
    assert (_bits(alone) == _bits(whole[:, i])).all()


def test_brute_force_batches_match_whole_grid():
    cfg = SweepConfig(n=2, r=0.4, gt_max=3.0, steps=6,
                      discord_method="brute")
    whole = _columns(time_series(cfg))
    chunked = np.concatenate([_columns(b) for b in sweep_batches(cfg, 4)], axis=1)
    assert (_bits(whole) == _bits(chunked)).all()
    assert np.isfinite(whole).all()
