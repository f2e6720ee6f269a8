"""Command-line interface.

Commands map one-to-one onto library operations; every command with the same
arguments and cached data produces byte-identical output.  Exit codes:

  0  success (including an offline cross-check verdict)
  2  usage error (bad flags, malformed ids, unreadable term files,
     an unwritable --recurrence-out path or OEIS cache directory)
  3  computation error (search exhausted, oracle bound exceeded, a malformed
     or non-UTF-8 cached b-file, ...)
  4  cross-check mismatch

A reader that closes stdout early ends the console script by SIGPIPE,
where the platform has it, with nothing on stderr.

Output formats: plain (one decimal integer per line), bfile (lines
"n a(n)"), structured (JSON).  Decimal expansions are correctly rounded
decimal divisions of the exact fraction, never binary floating point.

`build_parser` declares the whole command line and builds it once per
process, on first use, with its map from command name to subcommand parser;
every `main` call shares them, so handlers must not mutate a parser or its
defaults, and every default is immutable.  A call whose first token names a
command is parsed once, by that command's parser; the full parser, whose
subparsers action would scan every token a second time, parses only the
rest (no arguments, an option or an unknown word first).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path

from .bigint import from_decimal, to_decimal
from .counting import (
    classic_derangement,
    multiset_derangement,
    uniform_terms,
    wrong_rank_probability,
)
from .errors import MultiDerangeError, SequenceParseError
from .oeis import OeisClient, OeisReport, _check_id
from .recurrences import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ORDER,
    format_recurrence,
    guess_recurrence,
    recurrence_to_json,
    uniform_table,
)
from .sequences import SequenceSlice, format_bfile, format_plain, parse_terms_file

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTATION = 3
EXIT_MISMATCH = 4

DEFAULT_SEED = 60
DECK_MULTISET = (4,) * 13


def decimal_approx(value: Fraction) -> str:
    """Decimal rendering to 15 significant digits by one correctly rounded
    decimal division.

    Rounds half to even and strips trailing zeros; falls back to scientific
    notation only for leading exponents beyond +-60.
    """
    if value == 0:
        return "0"
    context = Context(prec=15, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    q = context.divide(Decimal(value.numerator), Decimal(value.denominator)).normalize(context)
    return f"{q:f}" if -60 <= q.adjusted() <= 60 else f"{q:e}"


def _fraction_text(value) -> str:
    if value.denominator == 1:
        return to_decimal(value.numerator)
    return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The whole command line and its command name -> subcommand parser map,
    built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="multiderange",
        description="Exact derangement counts of multisets, sequence tables, "
        "recurrence guessing, and OEIS cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derange", help="count derangements of n distinct items")
    p.add_argument("n", type=_int_at_least(0))
    _add_format(p)
    p.set_defaults(run=_cmd_derange)

    p = sub.add_parser("multi", help="count derangements of a multiset")
    p.add_argument("multiplicities", type=_int_at_least(1), nargs="+", metavar="a")
    _add_format(p)
    p.set_defaults(run=_cmd_multi)

    p = sub.add_parser("deck", help="shortcut for 'multi 4 ... 4' (13 fours)")
    _add_format(p)
    p.set_defaults(run=_cmd_multi, multiplicities=DECK_MULTISET)

    p = sub.add_parser("prob", help="exact probability that nothing stays in place")
    p.add_argument("multiplicities", type=_int_at_least(1), nargs="+", metavar="a")
    p.add_argument("--format", choices=["plain", "structured"], default="plain")
    p.set_defaults(run=_cmd_prob)

    p = sub.add_parser("table", help="emit a row or column of the uniform family")
    p.add_argument("--fixed", choices=["k", "n"], required=True,
                   help="which parameter stays fixed while the other runs 0..upto")
    p.add_argument("--value", type=_int_at_least(0), required=True)
    p.add_argument("--upto", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                   help="terms computed directly before the first guess; while guessing "
                   "fails, the seed doubles up to the size at which every candidate within "
                   "--max-order and --max-degree has enough terms (201 at the defaults), then "
                   f"the rest is computed directly (default {DEFAULT_SEED})")
    p.add_argument("--direct-only", action="store_true",
                   help="skip guessing; evaluate every term from the moment formula")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail at the first failed guess instead of growing the seed")
    p.add_argument("--recurrence-out", type=Path, metavar="PATH",
                   help="write the guessed recurrence here instead of stderr, "
                   "or null when none was guessed")
    _add_search_caps(p)
    _add_format(p)
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("guess", help="fit a recurrence to a file of terms")
    p.add_argument("--terms-file", type=Path, required=True,
                   help="plain (one integer per line) or b-file, auto-detected")
    _add_search_caps(p)
    p.set_defaults(run=_cmd_guess)

    p = sub.add_parser("oeis-check", help="compare local terms against OEIS data")
    p.add_argument("--id", type=_sequence_id, required=True, metavar="A######")
    p.add_argument("--fixed", choices=["k", "n"], required=True)
    p.add_argument("--value", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(1), required=True,
                   help="how many local terms, from index 0, to check against the "
                   "published ones; only the terms the b-file also has are computed")
    p.add_argument("--online", action="store_true",
                   help="allow fetching from the network when not cached")
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--format", choices=["plain", "structured"], default="plain")
    p.set_defaults(run=_cmd_oeis_check)

    return parser, sub.choices


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["plain", "bfile", "structured"], default="plain")


def _add_search_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-order", type=_int_at_least(1), default=DEFAULT_MAX_ORDER)
    p.add_argument("--max-degree", type=_int_at_least(0), default=DEFAULT_MAX_DEGREE)


def _int_at_least(low: int):
    """argparse type: an int >= low, so a bad value is a usage error.

    The text is read with the b-file grammar of bigint.from_decimal: an
    optional sign and ASCII digits, so '1_0', ' 5' and non-ASCII digits,
    which int() would take, are usage errors too.
    """

    def parse(text: str) -> int:
        value = from_decimal(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _sequence_id(text: str) -> str:
    """argparse type: an OEIS id, so a malformed one is a usage error."""
    try:
        _check_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.run(args)
    except MultiDerangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What `build_parser()[0].parse_args(argv)` returns, with the same usage
    errors, from one parse when argv starts with a command."""
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run() -> None:
    """The console script and `python -m multiderange`: main, whose code is
    the exit status.  Where the platform has SIGPIPE its default action is
    restored first, so a reader that closes stdout early ends the process
    quietly, as it ends any filter, instead of a BrokenPipeError traceback."""
    import signal  # only the entry point needs it; tests call main in-process

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


# -- command handlers --------------------------------------------------------

def _cmd_derange(args) -> int:
    _emit_value(args.format, index=args.n, value=classic_derangement(args.n),
                extra={"n": args.n})
    return EXIT_OK


def _cmd_multi(args) -> int:
    count = multiset_derangement(tuple(args.multiplicities))
    _emit_value(args.format, index=len(args.multiplicities), value=count.value,
                extra={"multiset": list(args.multiplicities)})
    return EXIT_OK


def _cmd_prob(args) -> int:
    probability = wrong_rank_probability(tuple(args.multiplicities))
    decimal = decimal_approx(probability)
    if args.format == "structured":
        _print_json({
            "multiset": list(args.multiplicities),
            "numerator": to_decimal(probability.numerator),
            "denominator": to_decimal(probability.denominator),
            "decimal": decimal,
        })
    else:
        sys.stdout.write(f"{_fraction_text(probability)} ≈ {decimal}\n")
    return EXIT_OK


def _cmd_table(args) -> int:
    table = uniform_table(
        f"fixed_{args.fixed}", args.value, args.upto,
        args.upto + 1 if args.direct_only else args.seed,
        max_order=args.max_order, max_degree=args.max_degree,
        fallback=not args.no_fallback,
        number=Decimal,  # extended terms stay Decimal through to the text: see extend_sequence
    )
    grown = [length for length, _ in table.failures[1:]] + [table.seed_length]
    for (length, exc), size in zip(table.failures, grown):
        then = "computing directly" if size > args.upto else f"growing the seed to {size} terms"
        print(f"guessing failed on {length} seed terms ({exc}); {then}", file=sys.stderr)

    rec = table.recurrence
    serialized = "null" if rec is None else recurrence_to_json(rec)
    if args.recurrence_out:
        try:  # before the table, so that a usage error leaves stdout empty
            args.recurrence_out.write_text(serialized + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.recurrence_out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.format == "structured":
        _print_json({
            "fixed": args.fixed,
            "value": args.value,
            "offset": 0,
            "terms": [to_decimal(t) for t in table.terms.terms],
            "recurrence": json.loads(serialized),
        })
    else:
        _write_terms(args.format, table.terms)

    if rec is not None and not args.recurrence_out:
        print(serialized, file=sys.stderr)
    return EXIT_OK


def _cmd_guess(args) -> int:
    try:
        text = args.terms_file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.terms_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        terms = parse_terms_file(text)
    except SequenceParseError as exc:
        print(f"error: {args.terms_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rec = guess_recurrence(terms, args.max_order, args.max_degree)
    sys.stdout.write(format_recurrence(rec) + "\n")
    sys.stdout.write(recurrence_to_json(rec) + "\n")
    return EXIT_OK


def _cmd_oeis_check(args) -> int:
    local = uniform_terms(f"fixed_{args.fixed}", args.value)
    client = OeisClient(cache_dir=args.cache_dir, online=args.online)
    try:
        report = client.cross_check(local, args.id, args.count)
    except OSError as exc:  # filling its cache is the client's only file system write
        print(f"error: cannot write {client.cache_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        _print_json(dataclasses.asdict(report))
    else:
        sys.stdout.write(_report_text(report))
    if report.verdict == "mismatch_at":
        return EXIT_MISMATCH
    if report.verdict == "not_found":
        return EXIT_COMPUTATION
    return EXIT_OK


def _report_text(report: OeisReport) -> str:
    if report.verdict == "match":
        return (
            f"{report.sequence_id}: match over {report.compared} terms "
            f"(local offset {report.local_offset}, remote offset {report.remote_offset})\n"
        )
    if report.verdict == "mismatch_at":
        return (
            f"{report.sequence_id}: mismatch at n={report.mismatch_index} "
            f"(compared {report.compared} terms)\n"
        )
    if report.verdict == "not_found":
        return f"{report.sequence_id}: not found in the remote database\n"
    return f"{report.sequence_id}: offline (no cached terms; rerun with --online)\n"


# -- shared helpers ----------------------------------------------------------

def _emit_value(fmt: str, *, index: int, value: int, extra: dict) -> None:
    if fmt == "structured":
        _print_json({**extra, "value": to_decimal(value)})
    else:
        _write_terms(fmt, SequenceSlice(index, (value,)))


def _write_terms(fmt: str, terms: SequenceSlice) -> None:
    sys.stdout.write(format_bfile(terms) if fmt == "bfile" else format_plain(terms))


def _print_json(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")

