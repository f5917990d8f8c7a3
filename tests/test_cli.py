import argparse
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import cavitycorr
from cavitycorr.cli import CSV_HEADER, _format_rows, format_record, main
from cavitycorr.sweep import SweepConfig, time_series
from cavitycorr import cli, csvformat, measures, sweep, verify
from cavitycorr.verify import run_verification

from conftest import csv_fields


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvolve:
    def test_basic_run(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "0", "--r", "0",
                             "--gt-max", "3.1415926", "--steps", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4  # header + 3 data rows
        row0 = lines[1].split(",")
        assert float(row0[0]) == 0.0
        assert float(row0[9]) == 0.0   # concurrence
        assert float(row0[10]) == 0.0  # discord

    def test_steps_zero_is_config_error(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "0", "--r", "0",
                             "--gt-max", "1", "--steps", "0")
        assert code == 1
        assert "steps" in err

    def test_bad_flag_value(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "zero", "--r", "0",
                             "--gt-max", "1", "--steps", "2")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "0")
        assert code == 1

    def test_entangled_fock_scenario_row_count(self, capsys):
        code, out, _ = run(capsys, "evolve", "--n", "10", "--r", "0.2",
                           "--gt-max", "50", "--steps", "5000")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5002  # header + 5001 grid points
        first = lines[1].split(",")
        assert float(first[10]) > 0.01  # discord starts alive
        assert float(first[9]) == 0.0   # concurrence starts dead

    def test_byte_determinism(self, capsys):
        args = ("evolve", "--n", "2", "--r", "0.4", "--gt-max", "6", "--steps", "40")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run(capsys, "evolve", "--n", "0", "--r", "0.2",
                           "--gt-max", "2", "--steps", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(CSV_HEADER)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        # three chunks, the last one partial, and many blocks of rows
        args = ("evolve", "--n", "7", "--r", "0.65", "--gt-max", "33", "--steps", "8292")
        target = tmp_path / "series.csv"
        assert run(capsys, *args, "--out", str(target))[:2] == (0, "")
        code, out, _ = run(capsys, *args)
        assert code == 0 and len(out.split("\n")) == 8295
        assert target.read_bytes() == out.encode("ascii")

    def test_unwritable_out_path(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "0", "--r", "0",
                             "--gt-max", "2", "--steps", "5",
                             "--out", "/nonexistent-dir/series.csv")
        assert code == 3
        assert "cannot write" in err

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "evolve", "--n", "4", "--r", "0.7",
                           "--gt-max", "12", "--steps", "60")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            fields = csv_fields(line)
            assert fields[1] == 4
            assert fields[2] == 0.7
            assert fields[10] <= fields[12] + 1e-9  # discord <= mutual information

    def test_format_parse_inverse(self):
        batch = time_series(SweepConfig(n=1, r=0.3, gt_max=5.0, steps=7))
        lines = "".join(format_record(batch, 1, 0.3)).split("\n")
        assert len(lines) == 9 and lines[-1] == ""
        for line, gt, discord in zip(lines, batch.gt, batch.discord):
            fields = csv_fields(line)
            assert fields[1] == 1 and fields[2] == 0.3
            assert abs(fields[0] - gt) <= 1e-11 * max(1.0, abs(gt))
            assert abs(fields[10] - discord) <= 1e-11


class TestVerify:
    def test_pass_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "50", "--seed", "42")
        assert code == 0
        assert out.endswith("overall: PASS\n")
        assert "max |closed form - oracle|" in out

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "--samples", "30", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--samples", "30", "--seed", "7")
        assert out1 == out2

    def test_samples_zero(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "0", "--seed", "1")
        assert code == 1
        assert "samples" in err

    def test_impossible_tolerance_fails_with_2(self, capsys):
        # tolerance 0: the two discord routes differ by round-off on most
        # samples (up to 3.3e-16 here, so 1e-15 is no longer out of reach)
        code, out, _ = run(capsys, "verify", "--samples", "20", "--seed", "3",
                           "--tol-discord", "0")
        assert code == 2
        assert "overall: FAIL" in out
        assert "FAIL sample" in out


class TestVerifyChunks:
    def test_report_independent_of_chunk_size(self, monkeypatch):
        # tolerance 0 makes FAIL lines, so their order is compared too
        def report():
            return run_verification(samples=40, seed=11, tol_evolve=0.0).render()

        default = report()
        monkeypatch.setattr(verify, "VERIFY_CHUNK", 7)
        assert "FAIL sample" in default
        assert report() == default


class TestEnvelope:
    def test_threshold_above_range(self, capsys):
        code, out, _ = run(capsys, "envelope", "--n", "0", "--r", "1",
                           "--gt-max", "5", "--steps", "500",
                           "--measure", "discord", "--threshold", "2.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,gt_start,gt_end,peak_value"
        assert len(lines) == 2
        kind, start, end, peak = lines[1].split(",")
        assert kind == "collapse"
        assert float(start) == 0.0
        assert float(end) == 5.0

    def test_missing_measure(self, capsys):
        code, _, err = run(capsys, "envelope", "--n", "0", "--r", "1",
                           "--gt-max", "5", "--steps", "500")
        assert code == 1

    def test_revivals_in_fock_regime(self, capsys):
        code, out, _ = run(capsys, "envelope", "--n", "5", "--r", "0",
                           "--gt-max", "60", "--steps", "6000",
                           "--measure", "discord")
        assert code == 0
        revivals = [l for l in out.strip().split("\n")[1:]
                    if l.startswith("revival")]
        assert len(revivals) >= 2

    def test_aliasing_grid_warns(self, capsys):
        # Six beat periods at n = 10**4 in 20 000 steps: each step of 0.1885
        # spans six carrier periods pi/sqrt(n + 2), and the 12 revivals found
        # are an alias.  Stdout is the one recorded before the warning existed.
        code, out, err = run(capsys, "envelope", "--n", "10000", "--r", "0",
                             "--gt-max", "3770", "--steps", "20000", "--measure", "discord")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4998b9dfb51f37c5f36878982791e1e4e49740426d1d46a6aced2f46693ea048")
        assert sum(line.startswith("revival") for line in out.splitlines()) == 12
        assert err == ("cavitycorr: warning: the grid step 0.1885 is more than half the "
                       "carrier period pi/sqrt(n + 2) = 0.0314127854144, so the grid "
                       "samples an alias of the carrier and the events may be spurious\n")
        # the threshold, two grid points per carrier period, lies between
        # 240 029 and 240 030 steps
        for steps, warns in (("240029", True), ("240030", False)):
            code, _, err = run(capsys, "envelope", "--n", "10000", "--r", "0",
                               "--gt-max", "3770", "--steps", steps, "--measure", "discord")
            assert code == 0 and err.startswith("cavitycorr: warning:") == warns, steps

    @pytest.mark.parametrize("argv", [
        # the README's command and the golden envelope commands
        "envelope --n 5 --r 0 --gt-max 60 --steps 6000 --measure discord",
        "envelope --n 10 --r 0 --gt-max 60 --steps 6000 --measure discord",
        "envelope --n 5 --r 0 --gt-max 60 --steps 6000 --measure concurrence --threshold 0.01",
    ])
    def test_resolved_grids_do_not_warn(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and out.startswith("kind,gt_start,gt_end,peak_value\n")
        assert err == ""


class TestParsing:
    def test_fmt_is_12_significant_digits(self):
        line = "".join(format_record(
            time_series(SweepConfig(n=0, r=1 / 3, gt_max=1.0, steps=1)), 0, 1 / 3))
        r_field = line.split(",")[2]
        assert r_field == "0.333333333333"


# argument lists for which cli.main must print the same help, usage and
# error output, and parse the same namespace, as with every command's
# arguments added up front
PARSER_CASES = (
    [], ["--help"], ["-h"],
    ["evolve", "--help"], ["verify", "--help"], ["envelope", "--help"],
    ["nope"],
    ["evolve", "--n", "0"],
    ["evolve", "--n", "x", "--r", "0", "--gt-max", "1", "--steps", "2"],
    ["envelope", "--n", "1", "--r", "0", "--gt-max", "1", "--steps", "2",
     "--measure", "entropy"],
    ["--n", "1", "evolve"],
    ["evolve", "--n", "1", "--r", "0", "--gt", "1", "--st", "2"],
    ["verify", "--samples", "1", "--seed", "1", "--tol-e", "1e-9"],
)
_BUILD_PARSER = cli._build_parser
_COMMAND_STUBS = ("cmd_evolve", "cmd_verify", "cmd_envelope")


def _eager_parser():
    """The CLI's parser built up front with plain argparse: every command's
    parser with its arguments, and argparse's own formatter, which reads
    the terminal width each time."""
    parser = cli._Parser(prog="cavitycorr",
                         description="Correlation dynamics of two atoms crossing "
                                     "a lossless Fock-state cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, add in cli._COMMANDS:
        add(sub.add_parser(name, help=text))
    return parser


_VALUES = {int: st.integers(0, 10**6).map(str), float: st.floats(0.0, 1e6).map(repr),
           None: st.just("out.csv")}


@st.composite
def _command_lines(draw):
    """A valid argument list of one command: its required options and some
    optional ones in any order, each as ``--opt value`` or ``--opt=value``
    and spelled in full or as a unique prefix such as ``--gt`` or ``--st``."""
    sub = next(a for a in _eager_parser()._actions if a.dest == "command")
    name = draw(st.sampled_from(sorted(sub.choices)))
    actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
    argv = [name]
    for action in draw(st.permutations([a for a in actions
                                        if a.required or draw(st.booleans())])):
        full = action.option_strings[0]
        others = [o for a in actions if a is not action for o in a.option_strings]
        option = draw(st.sampled_from(
            [full[:k] for k in range(3, len(full))
             if not any(o.startswith(full[:k]) for o in others + ["--help"])] + [full]))
        value = draw(st.sampled_from(action.choices) if action.choices
                     else _VALUES[action.type])
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv


class TestParser:
    @pytest.mark.parametrize("columns", ["50", "120"])
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda a: " ".join(a) or "none")
    def test_output_and_namespace_match_an_eager_parser(self, capsys, monkeypatch,
                                                        columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        parsed = []
        for name in _COMMAND_STUBS:
            monkeypatch.setattr(cli, name, lambda args: parsed.append(vars(args)) or 0)
        results = []
        for build in (_BUILD_PARSER, _eager_parser):
            monkeypatch.setattr(cli, "_build_parser", build)
            parsed.clear()
            results.append((run(capsys, *argv), list(parsed)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("argv,built", [
        (["--help"], ["cavitycorr"]),
        (["nope"], ["cavitycorr"]),
        (["verify", "--samples", "1", "--seed", "1"], ["cavitycorr", "cavitycorr verify"]),
        (["evolve", "--n", "1", "--r", "0", "--gt-max", "1", "--steps", "2"],
         ["cavitycorr", "cavitycorr evolve"]),
        (["envelope", "--help"], ["cavitycorr", "cavitycorr envelope"]),
    ], ids=["--help", "nope", "verify", "evolve", "envelope --help"])
    def test_only_the_dispatched_command_builds_a_parser(self, capsys, monkeypatch,
                                                         argv, built):
        init, progs = argparse.ArgumentParser.__init__, []

        def counted(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            assert type(parser) is cli._Parser
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for name in _COMMAND_STUBS:
            monkeypatch.setattr(cli, name, lambda args: 0)
        run(capsys, *argv)
        assert progs == built

    def test_unknown_argument_gets_its_commands_usage(self, capsys, monkeypatch):
        # the dispatched command's parser parses all of its arguments, so it,
        # not the top-level parser, reports one it does not know
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "verify", "--samples", "1", "--seed", "1", "--bogus") == (1, "", (
            "usage: cavitycorr verify [-h] --samples SAMPLES --seed SEED [--n-max N_MAX]\n"
            "                         [--gt-max GT_MAX] [--tol-evolve TOL_EVOLVE]\n"
            "                         [--tol-discord TOL_DISCORD]\n"
            "cavitycorr verify: error: unrecognized arguments: --bogus\n"))

    @given(argv=_command_lines())
    def test_valid_command_lines_parse_as_with_an_eager_parser(self, argv):
        parsed = []
        with pytest.MonkeyPatch.context() as patch:
            for name in _COMMAND_STUBS:
                patch.setattr(cli, name, lambda args: parsed.append(vars(args)) or 0)
            assert main(argv) == 0
            patch.setattr(cli, "_build_parser", _eager_parser)
            assert main(argv) == 0
        assert len(parsed) == 2 and parsed[0] == parsed[1]


def _reference_rows(columns, n, r):
    """The formatter the numpy kernel replaced: one "%.12g" per value."""
    table = np.column_stack(columns)
    row = "%.12g," + f"{int(n)},{'%.12g' % (r + 0.0)}" + ",%.12g" * 10 + "\n"
    return (row * len(table)) % tuple(v + 0.0 for v in table.ravel().tolist())


def _assert_rows_exact(values, n=3, r=0.25):
    values = np.asarray(values)
    values = np.concatenate([values, np.zeros(-len(values) % 11, values.dtype)]).reshape(-1, 11)
    columns = list(values.T)
    got = "".join(_format_rows(columns, n, r)).split("\n")
    want = _reference_rows(columns, n, r).split("\n")
    # row by row, so that a failure names its rows without a diff of the text
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, f"{len(bad)} rows differ: {bad[:3]}"


def _edge_corpus():
    big = np.finfo(float).max
    bounds = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]
    values = [0.0, -0.0, 5e-324, 1e-300, big, np.inf, -np.inf, np.nan,
              9.99999999999995e-05, 999.9999999999999, 0.5, 0.25, 0.125, 1.5, 2.5,
              123.0, 0.001, 0.0012, 0.1, 0.30000000000000004, 1 / 3, 2 / 3]
    for b in bounds:
        values += [b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)]
    # both ends of every binade, subnormal ones too, the last one ending in
    # big: the kernel reads the decade from the exponent bits
    for e in range(-1074, 1023):
        values += [np.ldexp(1.0, e), np.nextafter(np.ldexp(1.0, e + 1), 0.0)]
    values += [np.ldexp(1.0, 1023)]
    # exact ties at the 12th digit: j / 2**(k + 1) with j odd is a multiple
    # of 10**-k plus half of it, for k = 11 - X in each decade X = -4..2
    for k in range(9, 16):
        j = int(10.0 ** (11 - k) * 2 ** (k + 1)) | 1
        values += [(j + 2 * i) / 2 ** (k + 1) for i in range(40)]
    rng = np.random.default_rng(10)
    values += list(10.0 ** rng.uniform(-6, 5, 4000))
    # short decimals, whose trailing zeros are dropped
    values += list(rng.integers(1, 10**6, 4000) / 10.0 ** rng.integers(0, 10, 4000))
    # 12 digits and a half-unit offset: the neighbourhood of the strict
    # half-unit test, ties included
    values += list((rng.integers(10**11, 10**12, 4000) + 0.5)
                   / 10.0 ** rng.integers(9, 16, 4000))
    values = np.array(values)
    return np.concatenate([values, -values])


class TestCsvKernel:
    def test_edge_corpus_matches_percent_format(self):
        _assert_rows_exact(_edge_corpus())

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_several_blocks_match_percent_format(self, monkeypatch, block_rows):
        monkeypatch.setattr(csvformat, "BLOCK_ROWS", block_rows)
        rows = 2 * block_rows + 5
        rng = np.random.default_rng(11)
        _assert_rows_exact(rng.standard_normal(rows * 11))
        # integer columns print as their floats; int32 ones have no float64 bits
        _assert_rows_exact(rng.integers(-2000, 2000, rows * 11, dtype=np.int32))

    @given(arrays(np.float64, st.tuples(st.integers(0, 30), st.just(11)),
                  elements=st.one_of(st.floats(), st.floats(-1e3, 1e3))),
           st.integers(0, 2**53), st.floats(0.0, 1.0))
    def test_matches_percent_format(self, values, n, r):
        columns = list(values.T)
        assert "".join(_format_rows(columns, n, r)) == _reference_rows(columns, n, r)

    def test_import_builds_no_table(self):
        code = ("import sys, cavitycorr, cavitycorr.cli; "
                "print('cavitycorr.csvformat' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(cavitycorr.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout == "False\n"


class TestGateHoles:
    def test_nan_tolerances_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "3", "--seed", "1",
                             "--tol-evolve", "nan", "--tol-discord", "nan")
        assert code == 1
        assert out == ""
        assert "tol_evolve must be a finite real number >= 0, got nan" in err

    @pytest.mark.parametrize("flag,value", [("--tol-discord", "-1e-3"),
                                            ("--tol-evolve", "inf")])
    def test_negative_or_infinite_tolerance_rejected(self, capsys, flag, value):
        code, _, err = run(capsys, "verify", "--samples", "3", "--seed", "1",
                           f"{flag}={value}")
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert f"{name} must be a finite real number >= 0, got {float(value)!r}" in err

    @pytest.mark.parametrize("flag", ["--window", "--threshold", "--min-duration"])
    def test_nan_envelope_parameters_rejected(self, capsys, flag):
        code, out, err = run(capsys, "envelope", "--n", "5", "--r", "0",
                             "--gt-max", "60", "--steps", "600",
                             "--measure", "discord", flag, "nan")
        assert code == 1
        assert out == ""
        name = {"--window": "window", "--threshold": "collapse_threshold",
                "--min-duration": "min_duration"}[flag]
        assert err == f"cavitycorr: {name} must be a finite real number > 0, got nan\n"

    def test_mode_flag_removed(self, capsys):
        code, _, err = run(capsys, "evolve", "--n", "0", "--r", "0.5",
                           "--gt-max", "1", "--steps", "2", "--mode", "paper")
        assert code == 1
        assert "--mode" in err

    def test_huge_steps_rejected(self, capsys):
        # beyond the float range steps * gt_max would raise OverflowError
        steps = "1" + "0" * 400
        code, out, err = run(capsys, "evolve", "--n", "1", "--r", "0.5",
                             "--gt-max", "1", "--steps", steps)
        assert code == 1
        assert out == ""
        assert err == f"cavitycorr: steps must be an integer in [1, {2**53}], got {steps}\n"

    def test_huge_n_max_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "2", "--seed", "1",
                             "--n-max", "10000000000000000000000")
        assert code == 1
        assert out == ""
        assert (f"n_max must be an integer in [0, {2**53}], got 10000000000000000000000"
                in err and "out of bounds" not in err)

    def test_overflowing_sample_angle_named(self, capsys):
        # a sample whose largest Rabi angle sqrt(n + 2) * gt overflows
        code, out, err = run(capsys, "verify", "--samples", "5", "--seed", "1",
                             "--n-max", "9007199254740992", "--gt-max", "1e301")
        assert code == 1
        assert out == ""
        assert "sqrt(n + 2) * gt overflows at n = " in err and ", gt = " in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "3", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "seed must be an integer >= 0, got -1" in err

    def test_negative_n_max_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "3", "--seed", "1", "--n-max", "-1")
        assert code == 1
        assert out == ""
        assert f"n_max must be an integer in [0, {2**53}], got -1" in err

    @pytest.mark.parametrize("name", ["samples", "seed", "n_max"])
    def test_non_integer_count_rejected(self, name):
        # a bool or a float would otherwise run, and be printed as given
        args = {"samples": 3, "seed": 1, "n_max": 2}
        bounds = {"samples": ">= 1", "seed": ">= 0", "n_max": f"in [0, {2**53}]"}[name]
        for value in (True, 2.5, 2.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be an integer {bounds}, got {value!r}")):
                run_verification(**(args | {name: value}))
        # n_max from 2**32 on draws n from whole words, its rejection
        # threshold 2**64 % (n_max + 1) beyond an np.int64
        for count in (2, 2**32, 2**53) if name == "n_max" else (2,):
            assert (run_verification(**(args | {name: np.int64(count)})).render()
                    == run_verification(**(args | {name: count})).render())

    def test_nan_brute_force_discord_fails(self, capsys, monkeypatch):
        # a NaN from the minimizer must not be skipped by the report's maxima
        real = measures._min_conditional_entropy

        def nan_for_high_p44(states):
            m, theta = real(states)
            return np.where(states.p44 > 0.4, np.nan, m), theta

        for module in (measures, sweep):
            monkeypatch.setattr(module, "_min_conditional_entropy", nan_for_high_p44)
        monkeypatch.setattr(verify, "_min_conditional_entropy", nan_for_high_p44,
                            raising=False)
        code, out, _ = run(capsys, "verify", "--samples", "60", "--seed", "1")
        assert code != 0
        assert "overall: PASS" not in out

    def test_nan_closed_form_discord_fails(self, capsys, monkeypatch):
        # a NaN closed-form discord compares false against the tolerance, so
        # it must stop verify before the report's maxima, naming its sample
        real = verify.discord_closed
        monkeypatch.setattr(verify, "discord_closed",
                            lambda states: np.where(states.p44 > 0.4, np.nan, real(states)))
        code, out, err = run(capsys, "verify", "--samples", "60", "--seed", "1")
        assert (code, out) == (1, "")
        _, states, ns, _ = next(verify._seeded_chunks(1, 60, 12, 20.0))
        first = int(np.argmax(states.p44 > 0.4))
        assert states.p44[first] > 0.4
        assert err.startswith(f"cavitycorr: sample {first}: closed-form discord must be "
                              f"finite, got nan at n={ns[first]} gt=")
        assert len(err.splitlines()) == 1 and "state=(" in err

    def test_largest_finite_angles_run(self, capsys):
        # steps * gt_max and sqrt(n + 2) * gt_max are finite; their product is not
        code, out, err = run(capsys, "evolve", "--n", "9007199254740992", "--r", "0",
                             "--gt-max", "1e299", "--steps", "1000")
        assert code == 0, err
        assert len(out.splitlines()) == 1002

    def test_overflowing_grid_writes_nothing(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "5", "--r", "0",
                             "--gt-max", "1e308", "--steps", "6")
        assert code == 1
        assert out == ""
        assert "overflow" in err


_FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e-300",
                           "1e-300", "0.5", "1", "2.5", "1e300", "1.7e308"])
# Counts stay small so that every example runs quickly.
_SMALL_INTS = st.sampled_from(["-5", "-1", "0", "1", "2", "3", "7"])
_LARGE_INTS = st.sampled_from(["-5", "0", "1", "12", "2147483648",
                               "9007199254740993", "1" + "0" * 40, "1" + "0" * 400])


def _assert_clean_exit(command, **flags):
    # --flag=value, so that argparse reads values such as -1e-300 as values
    argv = [command] + [f"--{name.replace('_', '-')}={value}"
                        for name, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        # verify's documented verification failure, e.g. at tolerance 0
        assert command == "verify" and out.getvalue().endswith("overall: FAIL\n"), argv
    else:
        assert code in (0, 1, 3), (argv, code)
    if code == 1:
        assert err.getvalue().strip(), argv


@given(n=_LARGE_INTS, r=_FLOATS, gt_max=_FLOATS, steps=_SMALL_INTS)
def test_evolve_flags_never_crash(n, r, gt_max, steps):
    _assert_clean_exit("evolve", n=n, r=r, gt_max=gt_max, steps=steps)


@given(n=_LARGE_INTS, r=_FLOATS, gt_max=_FLOATS, steps=_SMALL_INTS,
       window=_FLOATS, threshold=_FLOATS, min_duration=_FLOATS)
def test_envelope_flags_never_crash(n, r, gt_max, steps, window, threshold,
                                    min_duration):
    _assert_clean_exit("envelope", n=n, r=r, gt_max=gt_max, steps=steps,
                       measure="discord", window=window, threshold=threshold,
                       min_duration=min_duration)


@given(samples=_SMALL_INTS, seed=_LARGE_INTS, n_max=_LARGE_INTS, gt_max=_FLOATS,
       tol_evolve=_FLOATS, tol_discord=_FLOATS)
def test_verify_flags_never_crash(samples, seed, n_max, gt_max, tol_evolve,
                                  tol_discord):
    _assert_clean_exit("verify", samples=samples, seed=seed, n_max=n_max,
                       gt_max=gt_max, tol_evolve=tol_evolve, tol_discord=tol_discord)
