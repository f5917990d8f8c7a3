"""Byte-exact CLI output and the batch/chunk independence of every value.

The hashes were recorded from the per-point scalar implementation that the
array code replaced; they are never regenerated to make a test pass.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import (
    DiscordMethod,
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
    # 2501 grid points: two full chunks and a partial one
    "evolve --n 7 --r 0.65 --gt-max 33 --steps 2500":
        "c06d463d6f40017c6b2165e74f162d242bbefcc3cdeb398ea3cd917e6937f0b9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_bytes_unchanged(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_chunk_straddling_sweep_spans_several_chunks():
    points = 2500 + 1
    assert points > SWEEP_CHUNK and points % SWEEP_CHUNK != 0


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
                      discord_method=DiscordMethod.BRUTE_FORCE)
    whole = _columns(time_series(cfg))
    chunked = np.concatenate([_columns(b) for b in sweep_batches(cfg, 4)], axis=1)
    assert (_bits(whole) == _bits(chunked)).all()
    assert np.isfinite(whole).all()
