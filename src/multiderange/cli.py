"""Command-line interface.

Commands map one-to-one onto library operations; every command with the same
arguments and cached data produces byte-identical output.  Exit codes:

  0  success (including an offline cross-check verdict)
  2  usage error (bad flags, malformed ids, unreadable term files,
     an unwritable --recurrence-out path)
  3  computation error (search exhausted, oracle bound exceeded, ...)
  4  cross-check mismatch

Output formats: plain (one decimal integer per line), bfile (lines
"n a(n)"), structured (JSON).  Decimal expansions are correctly rounded
decimal divisions of the exact fraction, never binary floating point.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path

from .bigint import to_decimal
from .counting import (
    classic_derangement,
    multiset_derangement,
    uniform_prefix,
    wrong_rank_probability,
)
from .errors import (
    InsufficientData,
    MultiDerangeError,
    RecurrenceNotFound,
    SequenceParseError,
)
from .oeis import OeisClient, OeisReport, _check_id
from .recurrences import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ORDER,
    format_recurrence,
    guess_and_extend_uniform,
    guess_recurrence,
    recurrence_to_json,
)
from .sequences import SequenceSlice, format_bfile, format_plain, parse_terms_file

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTATION = 3
EXIT_MISMATCH = 4

DEFAULT_SEED = 60
DECK_MULTISET = (4,) * 13


def decimal_approx(value: Fraction, significant: int = 15) -> str:
    """Decimal rendering to `significant` digits by one correctly rounded
    decimal division.

    Rounds half to even and strips trailing zeros; falls back to scientific
    notation only for leading exponents beyond +-60.
    """
    if value == 0:
        return "0"
    context = Context(prec=significant, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    q = context.divide(Decimal(value.numerator), Decimal(value.denominator)).normalize(context)
    return f"{q:f}" if -60 <= q.adjusted() <= 60 else f"{q:e}"


def _fraction_text(value) -> str:
    if value.denominator == 1:
        return to_decimal(value.numerator)
    return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiderange",
        description="Exact derangement counts of multisets, sequence tables, "
        "recurrence guessing, and OEIS cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derange", help="count derangements of n distinct items")
    p.add_argument("n", type=_int_at_least(0))
    _add_format(p)

    p = sub.add_parser("multi", help="count derangements of a multiset")
    p.add_argument("multiplicities", type=_int_at_least(1), nargs="+", metavar="a")
    _add_format(p)

    p = sub.add_parser("deck", help="shortcut for 'multi 4 ... 4' (13 fours)")
    _add_format(p)

    p = sub.add_parser("prob", help="exact probability that nothing stays in place")
    p.add_argument("multiplicities", type=_int_at_least(1), nargs="+", metavar="a")
    p.add_argument("--format", choices=["plain", "structured"], default="plain")

    p = sub.add_parser("table", help="emit a row or column of the uniform family")
    p.add_argument("--fixed", choices=["k", "n"], required=True,
                   help="which parameter stays fixed while the other runs 0..upto")
    p.add_argument("--value", type=_int_at_least(0), required=True)
    p.add_argument("--upto", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                   help=f"terms computed directly before guessing (default {DEFAULT_SEED})")
    p.add_argument("--direct-only", action="store_true",
                   help="skip guessing; evaluate every term from the moment formula")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail instead of recomputing directly when guessing fails")
    p.add_argument("--recurrence-out", type=Path, metavar="PATH",
                   help="write the guessed recurrence here instead of stderr")
    _add_search_caps(p)
    _add_format(p)

    p = sub.add_parser("guess", help="fit a recurrence to a file of terms")
    p.add_argument("--terms-file", type=Path, required=True,
                   help="plain (one integer per line) or b-file, auto-detected")
    _add_search_caps(p)

    p = sub.add_parser("oeis-check", help="compare local terms against OEIS data")
    p.add_argument("--id", required=True, metavar="A######")
    p.add_argument("--fixed", choices=["k", "n"], required=True)
    p.add_argument("--value", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(1), required=True,
                   help="number of local terms to compute, starting at index 0")
    p.add_argument("--online", action="store_true",
                   help="allow fetching from the network when not cached")
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--format", choices=["plain", "structured"], default="plain")

    return parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["plain", "bfile", "structured"], default="plain")


def _add_search_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-order", type=_int_at_least(1), default=DEFAULT_MAX_ORDER)
    p.add_argument("--max-degree", type=_int_at_least(0), default=DEFAULT_MAX_DEGREE)


def _int_at_least(low: int):
    """argparse type: an int >= low, so a bad value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "fixed" in args:  # table and oeis-check
        args.direction = f"fixed_{args.fixed}"
    try:
        return _DISPATCH[args.command](parser, args)
    except MultiDerangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def run() -> None:
    sys.exit(main())


# -- command handlers --------------------------------------------------------

def _cmd_derange(parser, args) -> int:
    _emit_value(args.format, index=args.n, value=classic_derangement(args.n),
                extra={"n": args.n})
    return EXIT_OK


def _cmd_multi(parser, args) -> int:
    count = multiset_derangement(tuple(args.multiplicities))
    _emit_value(args.format, index=len(args.multiplicities), value=count.value,
                extra={"multiset": list(args.multiplicities)})
    return EXIT_OK


def _cmd_deck(parser, args) -> int:
    count = multiset_derangement(DECK_MULTISET)
    _emit_value(args.format, index=len(DECK_MULTISET), value=count.value,
                extra={"multiset": list(DECK_MULTISET)})
    return EXIT_OK


def _cmd_prob(parser, args) -> int:
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


def _cmd_table(parser, args) -> int:
    recurrence = None
    if args.direct_only or args.upto < args.seed:
        terms = uniform_prefix(args.direction, args.value, args.upto + 1)
    else:
        try:
            extended, recurrence = guess_and_extend_uniform(
                args.direction, args.value, args.seed, args.upto,
                max_order=args.max_order, max_degree=args.max_degree,
            )
            terms = list(extended.terms)
        except MultiDerangeError as exc:
            if args.no_fallback:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_COMPUTATION
            print(f"guessing failed ({exc}); computing directly", file=sys.stderr)
            terms = uniform_prefix(args.direction, args.value, args.upto + 1)

    produced = SequenceSlice(0, tuple(terms))
    if args.format == "structured":
        document = {
            "fixed": args.fixed,
            "value": args.value,
            "offset": 0,
            "terms": [to_decimal(t) for t in produced.terms],
            "recurrence": json.loads(recurrence_to_json(recurrence)) if recurrence else None,
        }
        _print_json(document)
    elif args.format == "bfile":
        sys.stdout.write(format_bfile(produced))
    else:
        sys.stdout.write(format_plain(produced))

    if recurrence is not None:
        serialized = recurrence_to_json(recurrence)
        if args.recurrence_out:
            try:
                args.recurrence_out.write_text(serialized + "\n")
            except OSError as exc:
                print(f"error: cannot write {args.recurrence_out}: {exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            print(serialized, file=sys.stderr)
    return EXIT_OK


def _cmd_guess(parser, args) -> int:
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
    try:
        rec = guess_recurrence(terms, args.max_order, args.max_degree)
    except InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except RecurrenceNotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    sys.stdout.write(format_recurrence(rec) + "\n")
    sys.stdout.write(recurrence_to_json(rec) + "\n")
    return EXIT_OK


def _cmd_oeis_check(parser, args) -> int:
    try:
        _check_id(args.id)
    except ValueError as exc:
        parser.error(str(exc))
    local = SequenceSlice(0, tuple(uniform_prefix(args.direction, args.value, args.count)))
    client = OeisClient(cache_dir=args.cache_dir, online=args.online)
    report = client.cross_check(local, args.id)
    if args.format == "structured":
        _print_json({
            "sequence_id": report.sequence_id,
            "verdict": report.verdict,
            "compared": report.compared,
            "mismatch_index": report.mismatch_index,
            "local_offset": report.local_offset,
            "remote_offset": report.remote_offset,
        })
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
        document = dict(extra)
        document["value"] = to_decimal(value)
        _print_json(document)
    elif fmt == "bfile":
        sys.stdout.write(f"{index} {to_decimal(value)}\n")
    else:
        sys.stdout.write(f"{to_decimal(value)}\n")


def _print_json(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")


_DISPATCH = {
    "derange": _cmd_derange,
    "multi": _cmd_multi,
    "deck": _cmd_deck,
    "prob": _cmd_prob,
    "table": _cmd_table,
    "guess": _cmd_guess,
    "oeis-check": _cmd_oeis_check,
}
