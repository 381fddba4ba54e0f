"""Command-line interface.

Subcommands: run (simulate a protocol run to a transcript file), verify
(check a transcript file), attack (Monte Carlo cheating trials), capacity
(traffic accounting).  Exit codes are a stable contract:

    0  success / verifier accepted
    1  usage, invalid parameters, unreadable, unwritable or unparseable
       file, or standard output closed early
    2  protocol aborted (transcript still written, abort reason recorded);
       never from run, whose honest play on valid geometry cannot abort
    3  verifier rejected

All randomness flows from the explicit seed flags.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from .adversary import ATTACKS, run_attack
from .analysis import capacity_report
from .netsim import simulate
from .spacetime import (GeometryError, ProtocolParams, exact_str, printable,
                        shown_time)
from .transcript_io import (TranscriptFormatError, parse_transcript,
                            transcript_pieces)
from .verifier import Verdict, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_REJECT = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 per the CLI contract."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# A numeric flag is bounded like a time in a transcript file: at most 256
# characters, and a decimal exponent of at most 256 either way, so building
# its Fraction costs time bounded by the text.
_MAX_FLAG_CHARS = 256
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([+-]?[0-9]+))?"
                     r"|[+-]?[0-9]+/0*[1-9][0-9]*")


def _exact_flag(text: str) -> Fraction:
    """An exact rational from a flag: an integer, a decimal with an optional
    exponent, or p/q.  Checked before any Fraction is built."""
    shape = len(text) <= _MAX_FLAG_CHARS and _NUMBER.fullmatch(text)
    if not shape or abs(int(shape.group(1) or 0)) > _MAX_FLAG_CHARS:
        raise argparse.ArgumentTypeError(
            f"expected an integer, decimal or p/q of at most {_MAX_FLAG_CHARS} "
            f"characters with an exponent of at most {_MAX_FLAG_CHARS}, "
            f"got {text[:40]!r}")
    return Fraction(text)


def _add_geometry(p: argparse.ArgumentParser, dx="1", delta="0.005", dt="0.01"):
    p.add_argument("--dx", type=_exact_flag, default=dx,
                   help="site separation, light-seconds")
    p.add_argument("--delta", type=_exact_flag, default=delta,
                   help="lab placement tolerance")
    p.add_argument("--dt", type=_exact_flag, default=dt,
                   help="per-round challenge window")


def _params(args) -> ProtocolParams:
    return ProtocolParams(args.m, args.dx, args.delta, args.dt,
                          intra_delay=args.intra_delay)


def verdict_to_json_obj(verdict: Verdict) -> dict:
    """The verdict as JSON.  aggregation_time is the exact_str text of the
    aggregation time while it is printable (every parsed file's is), and
    shown_time's "about 2^k" magnitude past that."""
    issued_at = verdict.issued_at
    return {
        "outcome": verdict.outcome,
        "bit": verdict.bit,
        "reason": verdict.reason,
        "detail": verdict.detail,
        "reject_position": (None if verdict.reject_position is None
                            else list(verdict.reject_position)),
        "aggregation_time": (None if issued_at is None
                             else exact_str(issued_at) if printable(issued_at)
                             else shown_time(issued_at)),
    }


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector, and restore its earlier state
    on every exit.  On a large transcript run and verify build about 10**6
    tuples and lists, none in a cycle, which the collector would otherwise
    walk again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_cyclic_gc_paused()
def _cmd_run(args) -> int:
    params = _params(args)
    result = simulate(params, args.rounds, args.bit, args.alice_seed,
                      args.bob_seed, dual_unveil=args.dual_unveil)
    # every field is checked here, so a refused transcript writes nothing
    pieces = transcript_pieces(result.transcript)
    if args.out == "-":
        sys.stdout.writelines(pieces)
    else:
        try:
            # newline="\n" writes the file's own bytes on every platform
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if result.transcript.abort is not None:
        print(f"protocol aborted: {result.transcript.abort}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


@_cyclic_gc_paused()
def _cmd_verify(args) -> int:
    try:
        with open(args.transcript, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise TranscriptFormatError(f"not UTF-8: {exc}") from None
        transcript = parse_transcript(text)
    except OSError as exc:
        print(f"cannot read {args.transcript}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TranscriptFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = verify(transcript)
    print(json.dumps(verdict_to_json_obj(verdict), indent=2))
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def _cmd_attack(args) -> int:
    params = _params(args)
    outcome = run_attack(params, args.rounds, args.strategy, args.trials,
                         args.seed)
    print(json.dumps(outcome.to_json_obj(), indent=2))
    return EXIT_OK


def _cmd_capacity(args) -> int:
    report = capacity_report(args.m, args.dx, args.delta, args.dt, args.baud)
    if args.format == "table":
        print(report.to_table())
    else:
        print(json.dumps(report.to_json_obj(), indent=2))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rbc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a protocol run")
    run.add_argument("--m", type=int, required=True, help="security parameter")
    run.add_argument("--rounds", type=int, required=True)
    run.add_argument("--bit", type=int, choices=(0, 1), required=True)
    run.add_argument("--alice-seed", type=int, required=True)
    run.add_argument("--bob-seed", type=int, required=True)
    run.add_argument("--out", required=True, help="output path, - for stdout")
    run.add_argument("--dual-unveil", action="store_true",
                     help="both Alice agents unveil")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="verify a transcript file")
    ver.add_argument("transcript", help="path to a transcript JSON file")
    ver.set_defaults(func=_cmd_verify)

    att = sub.add_parser("attack", help="Monte Carlo cheating trials")
    att.add_argument("--m", type=int, required=True)
    att.add_argument("--rounds", type=int, required=True)
    att.add_argument("--strategy", required=True, choices=ATTACKS)
    att.add_argument("--trials", type=int, required=True)
    att.add_argument("--seed", type=int, required=True)
    att.set_defaults(func=_cmd_attack)
    # the capacity does not depend on intra_delay, so only simulating
    # commands take it
    for p in (run, att):
        _add_geometry(p)
        p.add_argument("--intra-delay", type=_exact_flag, default=None,
                       help="same-site delay, at most min(2*delta, delta + dt)")

    cap = sub.add_parser("capacity", help="traffic vs channel-rate accounting")
    cap.add_argument("--m", type=int, required=True)
    cap.add_argument("--baud", type=_exact_flag, required=True,
                     help="channel rate, bits/second")
    cap.add_argument("--format", choices=("json", "table"), default="json")
    _add_geometry(cap, dx="0.1", delta="0.00001", dt="0.0001")
    cap.set_defaults(func=_cmd_capacity)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (rbc verify t.json | head -1).
        # Point stdout at devnull so the flush at exit raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
