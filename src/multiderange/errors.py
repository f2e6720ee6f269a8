"""Exception types shared across the package."""
from __future__ import annotations


class MultiDerangeError(Exception):
    """Base class for all package-specific errors."""


class InternalInconsistency(MultiDerangeError):
    """An exact computation produced a value that violates a proven postcondition.

    Signals an arithmetic bug in this package, never bad user input.
    """


class InstanceTooLarge(MultiDerangeError):
    """A problem instance exceeds the configured bound of an oracle method."""


class InsufficientData(MultiDerangeError):
    """Too few sequence terms to attempt any recurrence fit."""

    def __init__(self, min_terms: int, got: int):
        super().__init__(
            f"need at least {min_terms} terms to attempt a fit, got {got}"
        )
        self.min_terms = min_terms
        self.got = got


class RecurrenceNotFound(MultiDerangeError):
    """No candidate the terms could fit within the (order, degree) caps was
    accepted; stopped_short says that some candidate within the caps had
    too few terms to be fitted at all."""

    def __init__(self, max_order: int, max_degree: int, stopped_short: bool):
        super().__init__(
            f"no recurrence found with order <= {max_order} "
            f"and coefficient degree <= {max_degree}"
            + ("; the scan stopped short of the caps for lack of terms" if stopped_short else "")
        )
        self.max_order = max_order
        self.max_degree = max_degree


class HoldoutMismatch(MultiDerangeError):
    """A guessed recurrence failed on a row that reaches a term withheld
    from the guesser; index is the shift n of the first such row."""

    def __init__(self, index: int):
        super().__init__(
            f"guessed recurrence fails at n={index}, on a row that reaches a held-out term"
        )
        self.index = index


class LeadingCoefficientZero(MultiDerangeError):
    """The leading recurrence coefficient vanishes at an index needed for extension."""

    def __init__(self, index: int):
        super().__init__(
            f"leading coefficient is zero at n={index}; "
            f"supply initial terms past this singular point"
        )
        self.index = index


class NonIntegralStep(MultiDerangeError):
    """A recurrence extension step required an inexact integer division.

    Integer sequences must stay integer; an inexact step proves the
    recurrence or the initial terms are wrong.
    """

    def __init__(self, index: int):
        super().__init__(f"inexact division while extending at n={index}")
        self.index = index


class SequenceParseError(MultiDerangeError):
    """A term list (b-file or plain text) could not be parsed."""


class UnknownSequence(MultiDerangeError):
    """The remote database has no entry for the requested sequence id."""


class NetworkUnavailable(MultiDerangeError):
    """Remote terms were requested but no network source is available."""
