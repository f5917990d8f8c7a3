"""Command line interface: evolution sweeps, verification, envelope analysis.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import shutil
import sys

import numpy as np

from .sweep import (
    DISCORD_METHODS,
    SweepBatch,
    SweepConfig,
    detect_collapse_revival,
    envelope,
    sweep_batches,
)

CSV_HEADER = ("gt,n,r,p11,p22,p33,p44,re_c23,im_c23,"
              "concurrence,discord,classical_corr,mutual_info")
EVENT_HEADER = "kind,gt_start,gt_end,peak_value"


def _fmt(v: float) -> str:
    # 12 significant digits; adding 0.0 turns -0.0 into 0.0, so output is byte-stable
    return "%.12g" % (v + 0.0)


def _format_rows(columns, n: int, r: float) -> list[str]:
    """CSV rows of the 11 float columns besides n and r, in ``format_rows``'s blocks.

    ``columns`` holds gt, p11..p44, re and im of c23 and the four measures,
    each a sequence of equal length.  Each field is ``_fmt`` of its value.
    """
    # imported here, so that start-up and the commands that write no CSV
    # rows do not load the kernel
    from .csvformat import format_rows
    return format_rows(np.column_stack(columns), f",{int(n)},{_fmt(r)},")


def format_record(batch: SweepBatch, n: int, r: float) -> list[str]:
    """The CSV records (rows) of a batch, newline-terminated, in blocks of rows."""
    s = batch.states
    return _format_rows([batch.gt, s.p11, s.p22, s.p33, s.p44, s.re_c23, s.im_c23,
                         batch.concurrence, batch.discord,
                         batch.classical_correlation, batch.mutual_information], n, r)


def _evolve_arguments(ev: argparse.ArgumentParser) -> None:
    ev.add_argument("--n", type=int, required=True, help="initial photon number")
    ev.add_argument("--r", type=float, required=True, help="Werner mixing parameter")
    ev.add_argument("--gt-max", type=float, required=True, help="largest Rabi angle")
    ev.add_argument("--steps", type=int, required=True, help="number of grid steps")
    ev.add_argument("--discord", choices=DISCORD_METHODS, default="closed",
                    help="discord evaluation route (default: closed)")
    ev.add_argument("--out", help="output path (default: stdout)")


def _verify_arguments(vf: argparse.ArgumentParser) -> None:
    vf.add_argument("--samples", type=int, required=True)
    vf.add_argument("--seed", type=int, required=True)
    # a flag not given stays out of args, and run_verification's default applies
    vf.add_argument("--n-max", type=int, default=argparse.SUPPRESS)
    vf.add_argument("--gt-max", type=float, default=argparse.SUPPRESS)
    vf.add_argument("--tol-evolve", type=float, default=argparse.SUPPRESS)
    vf.add_argument("--tol-discord", type=float, default=argparse.SUPPRESS)


def _envelope_arguments(en: argparse.ArgumentParser) -> None:
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--r", type=float, required=True)
    en.add_argument("--gt-max", type=float, required=True)
    en.add_argument("--steps", type=int, required=True)
    en.add_argument("--measure", choices=["discord", "concurrence"], required=True)
    en.add_argument("--window", type=float, default=2.0)
    en.add_argument("--threshold", type=float, default=0.02)
    en.add_argument("--min-duration", type=float, default=1.0)
    en.add_argument("--out", help="output path (default: stdout)")


# each command's name, help and the function that adds its arguments
_COMMANDS = (
    ("evolve", "CSV time series of one sweep", _evolve_arguments),
    ("verify", "cross-check closed forms against oracles", _verify_arguments),
    ("envelope", "CSV of collapse/revival events", _envelope_arguments),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Command:
    # argparse's subparsers action makes one per command from add_parser's
    # keyword arguments and calls parse_known_args on the chosen one only,
    # so only the command that runs builds its parser and arguments; that
    # parser parses them all, so it reports an unknown one under its usage
    def __init__(self, add_arguments, **kwargs):
        self.add_arguments, self.kwargs = add_arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        self.add_arguments(parser)
        return parser.parse_args(args, namespace), []


def _build_parser() -> _Parser:
    # argparse's HelpFormatter reads the terminal width each time one is
    # made, once per add_argument among others; read its default width,
    # the columns less 2, once per build
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="cavitycorr",
                     description="Correlation dynamics of two atoms crossing "
                                 "a lossless Fock-state cavity",
                     formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, text, add in _COMMANDS:
        sub.add_parser(name, help=text, formatter_class=formatter, add_arguments=add)
    return parser


def _write(texts, out_path) -> int:
    """Write each text of ``texts`` as soon as it is made, to stdout or ``out_path``."""
    if out_path is None:
        for text in texts:
            sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", newline="") as fh:
            for text in texts:
                fh.write(text)
    except OSError as exc:
        print(f"cavitycorr: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_evolve(args) -> int:
    cfg = SweepConfig(n=args.n, r=args.r, gt_max=args.gt_max, steps=args.steps,
                      discord_method=args.discord)
    chunks = (format_record(batch, cfg.n, cfg.r) for batch in sweep_batches(cfg))
    # the first chunk is made before anything is written, so a bad input
    # leaves no partial output
    first = [CSV_HEADER + "\n", *next(chunks)]
    return _write(itertools.chain(first, itertools.chain.from_iterable(chunks)), args.out)


def cmd_verify(args) -> int:
    # imported here, so that the other commands and --help do not load the
    # Fock oracle and the sampler
    from .verify import run_verification
    report = run_verification(**{k: v for k, v in vars(args).items() if k != "command"})
    sys.stdout.write(report.render())
    return 0 if report.passed else 2


def cmd_envelope(args) -> int:
    cfg = SweepConfig(n=args.n, r=args.r, gt_max=args.gt_max, steps=args.steps)
    gts, vals = [], []
    for batch in sweep_batches(cfg):
        gts.append(batch.gt)
        vals.append(getattr(batch, args.measure))
    gt = np.concatenate(gts)
    env = envelope(gt, np.concatenate(vals), args.window)
    events = detect_collapse_revival(gt, env, args.threshold, args.min_duration)
    # The populations oscillate as cos^2(sqrt(m) gt), m <= n + 2: with fewer
    # than two grid points per carrier period pi / sqrt(n + 2), the grid
    # samples an alias of the carrier.
    period = math.pi / math.sqrt(cfg.n + 2)
    if cfg.gt_max / cfg.steps > period / 2.0:
        print(f"cavitycorr: warning: the grid step {_fmt(cfg.gt_max / cfg.steps)} is more "
              f"than half the carrier period pi/sqrt(n + 2) = {_fmt(period)}, so the grid "
              "samples an alias of the carrier and the events may be spurious",
              file=sys.stderr)
    lines = [EVENT_HEADER] + [",".join([kind, _fmt(start), _fmt(end), _fmt(peak)])
                              for kind, start, end, peak in zip(*(a.tolist() for a in events))]
    return _write(["\n".join(lines) + "\n"], args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_envelope(args)
    except ValueError as exc:
        print(f"cavitycorr: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cavitycorr: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
