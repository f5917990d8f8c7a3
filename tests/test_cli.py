import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr.cli import CSV_HEADER, format_record, main, parse_record
from cavitycorr.sweep import DiscordMethod, SweepConfig, time_series
from cavitycorr import measures, sweep, verify
from cavitycorr.verify import run_verification


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
            record, n, r = parse_record(line)
            assert n == 4
            assert r == 0.7
            assert abs(record.state.trace() - 1.0) < 5e-9
            assert record.discord <= record.mutual_information + 1e-9

    def test_format_parse_inverse(self):
        records = time_series(SweepConfig(n=1, r=0.3, gt_max=5.0, steps=7))
        for rec in records:
            line = format_record(rec, 1, 0.3)
            back, n, r = parse_record(line, DiscordMethod.CLOSED_FORM)
            assert abs(back.gt - rec.gt) <= 1e-11 * max(1.0, abs(rec.gt))
            assert abs(back.discord - rec.discord) <= 1e-11


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
        code, out, _ = run(capsys, "verify", "--samples", "20", "--seed", "3",
                           "--tol-discord", "1e-15")
        assert code == 2
        assert "overall: FAIL" in out
        assert "FAIL sample" in out


class TestVerifyChunks:
    def test_report_independent_of_chunk_size(self, monkeypatch):
        # tolerance 0 makes FAIL lines, so their order is compared too
        def report():
            return run_verification(samples=40, seed=11, tol_evolve=0.0).render()

        default = report()
        monkeypatch.setattr(verify, "SWEEP_CHUNK", 7)
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


class TestParsing:
    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            parse_record("1,2,3")

    def test_fmt_is_12_significant_digits(self):
        line = format_record(
            time_series(SweepConfig(n=0, r=1 / 3, gt_max=1.0, steps=1))[0],
            0, 1 / 3)
        r_field = line.split(",")[2]
        assert r_field == "0.333333333333"


class TestGateHoles:
    def test_nan_tolerances_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "3", "--seed", "1",
                             "--tol-evolve", "nan", "--tol-discord", "nan")
        assert code == 1
        assert out == ""
        assert "tol_evolve must be finite and >= 0" in err

    @pytest.mark.parametrize("flag,value", [("--tol-discord", "-1e-3"),
                                            ("--tol-evolve", "inf")])
    def test_negative_or_infinite_tolerance_rejected(self, capsys, flag, value):
        code, _, err = run(capsys, "verify", "--samples", "3", "--seed", "1",
                           f"{flag}={value}")
        assert code == 1
        assert "must be finite and >= 0" in err

    @pytest.mark.parametrize("flag", ["--window", "--threshold", "--min-duration"])
    def test_nan_envelope_parameters_rejected(self, capsys, flag):
        code, out, err = run(capsys, "envelope", "--n", "5", "--r", "0",
                             "--gt-max", "60", "--steps", "600",
                             "--measure", "discord", flag, "nan")
        assert code == 1
        assert out == ""
        assert "must be positive" in err and "zero-size" not in err

    def test_mode_flag_removed(self, capsys):
        code, _, err = run(capsys, "evolve", "--n", "0", "--r", "0.5",
                           "--gt-max", "1", "--steps", "2", "--mode", "paper")
        assert code == 1
        assert "--mode" in err

    def test_huge_n_max_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "2", "--seed", "1",
                             "--n-max", "10000000000000000000000")
        assert code == 1
        assert out == ""
        assert "n_max must be at most 2**53" in err and "out of bounds" not in err

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
        assert "seed must be >= 0, got -1" in err

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
