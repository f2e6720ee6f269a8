"""Exception types shared across the package.

Every number in a message is rendered by bigint.to_decimal, so a message
prints at any size (see bigint).
"""
from __future__ import annotations

from .bigint import to_decimal


class MultiDerangeError(Exception):
    """Base class for all package-specific errors."""


class InternalInconsistency(MultiDerangeError):
    """An exact computation produced a value that violates a proven postcondition.

    Signals an arithmetic bug in this package, never bad user input.
    """


class InstanceTooLarge(MultiDerangeError):
    """A problem instance exceeds a bound: the configured bound of an oracle
    method, or sys.maxsize for a multiplicity, the largest whose factorial
    can be formed."""


class InsufficientData(MultiDerangeError):
    """Too few sequence terms to attempt any recurrence fit."""

    def __init__(self, min_terms: int, got: int):
        super().__init__(
            f"need at least {to_decimal(min_terms)} terms to attempt a fit, got {to_decimal(got)}"
        )
        self.min_terms = min_terms


class RecurrenceNotFound(MultiDerangeError):
    """No candidate the terms could fit within the (order, degree) caps was
    accepted; stopped_short says that some candidate within the caps had
    too few terms to be fitted at all."""

    def __init__(self, max_order: int, max_degree: int, stopped_short: bool):
        super().__init__(
            f"no recurrence found with order <= {to_decimal(max_order)} "
            f"and coefficient degree <= {to_decimal(max_degree)}"
            + ("; the scan stopped short of the caps for lack of terms" if stopped_short else "")
        )


class _AtIndex(MultiDerangeError):
    """An error at one sequence index, kept as .index; the subclass's
    _message names it as {n}."""

    def __init__(self, index: int):
        super().__init__(self._message.format(n=to_decimal(index)))
        self.index = index


class HoldoutMismatch(_AtIndex):
    """A guessed recurrence failed on a row that reaches a term withheld
    from the guesser; index is the shift n of the first such row."""

    _message = "guessed recurrence fails at n={n}, on a row that reaches a held-out term"


class LeadingCoefficientZero(_AtIndex):
    """The leading recurrence coefficient vanishes at an index needed for extension."""

    _message = (
        "leading coefficient is zero at n={n}; supply initial terms past this singular point"
    )


class NonIntegralStep(_AtIndex):
    """A recurrence extension step required an inexact integer division.

    Integer sequences must stay integer; an inexact step proves the
    recurrence or the initial terms are wrong.
    """

    _message = "inexact division while extending at n={n}"


class SequenceParseError(MultiDerangeError):
    """A term list (b-file or plain text) could not be parsed."""


class UnknownSequence(MultiDerangeError):
    """The remote database has no entry for the requested sequence id."""


class NetworkUnavailable(MultiDerangeError):
    """Remote terms were requested but no network source is available."""
