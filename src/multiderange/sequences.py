"""Offset-tagged integer sequence slices and their text formats.

A slice is a contiguous run of exact integer terms starting at an absolute
index (the offset).  Terms are ints, except in the `table` command, which
formats the integral Decimals that recurrences.extend_sequence produced
from a Decimal seed; bigint.to_decimal renders both.  Two text formats are
supported:

  * plain  - one decimal integer per line;
  * b-file - lines "n a(n)" with a single separating space, consecutive
    ascending n, newline-terminated, no blank lines.

plain_lines and bfile_lines render a slice one line at a time, each term's
text made only when its line is taken, so a writer that consumes them line
by line never holds more than one line of text; format_plain and
format_bfile join the same lines into one string.

The b-file format doubles as the on-disk cache format of the OEIS client,
so parsing is lenient about comment lines starting with '#'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bigint import from_decimal, to_decimal
from .errors import SequenceParseError


@dataclass(frozen=True)
class SequenceSlice:
    offset: int
    terms: tuple[int, ...]

    @property
    def end(self) -> int:
        """One past the last absolute index."""
        return self.offset + len(self.terms)

    def term(self, n: int) -> int:
        """Term at absolute index n."""
        if not self.offset <= n < self.end:
            raise IndexError(f"index {to_decimal(n)} outside "
                             f"[{to_decimal(self.offset)}, {to_decimal(self.end)})")
        return self.terms[n - self.offset]

    def __len__(self) -> int:
        return len(self.terms)


def bfile_lines(s: SequenceSlice) -> Iterator[str]:
    return (f"{to_decimal(n)} {to_decimal(v)}\n" for n, v in zip(range(s.offset, s.end), s.terms))


def plain_lines(s: SequenceSlice) -> Iterator[str]:
    return (f"{to_decimal(v)}\n" for v in s.terms)


def format_bfile(s: SequenceSlice) -> str:
    return "".join(bfile_lines(s))


def format_plain(s: SequenceSlice) -> str:
    return "".join(plain_lines(s))


def parse_bfile(text: str) -> SequenceSlice:
    offset: int | None = None
    expected = 0
    terms: list[int] = []
    for lineno, raw, fields in _data_lines(text):
        if len(fields) != 2:
            raise SequenceParseError(f"line {lineno}: expected 'n a(n)', got {raw!r}")
        index, value = _parse_int(lineno, fields[0]), _parse_int(lineno, fields[1])
        if offset is None:
            offset = index
        elif index != expected:
            raise SequenceParseError(
                f"line {lineno}: index {to_decimal(index)} breaks the run "
                f"(expected {to_decimal(expected)})"
            )
        expected = index + 1
        terms.append(value)
    if offset is None:
        raise SequenceParseError("no terms found")
    return SequenceSlice(offset, tuple(terms))


def parse_plain(text: str) -> SequenceSlice:
    terms = [_parse_int(lineno, raw.strip()) for lineno, raw, _ in _data_lines(text)]
    if not terms:
        raise SequenceParseError("no terms found")
    return SequenceSlice(0, tuple(terms))


def parse_terms_file(text: str) -> SequenceSlice:
    """Auto-detect plain vs b-file content: two-field lines mean b-file."""
    for _, _, fields in _data_lines(text):
        return parse_bfile(text) if len(fields) == 2 else parse_plain(text)
    raise SequenceParseError("no terms found")


def _data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, its fields) of every line that is neither blank
    nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line.split()


def _parse_int(lineno: int, text: str) -> int:
    try:
        return from_decimal(text)
    except ValueError as exc:
        raise SequenceParseError(f"line {lineno}: {exc}") from exc
