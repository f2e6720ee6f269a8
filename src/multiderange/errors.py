"""Exception types shared across the package.

An error that names numbers keeps them as its args, exactly as raised,
and renders them into its class's _message only when printed, each
through bigint.to_decimal, so it prints at any size (see bigint); repr
shows the values, and every error pickles and copies.  The other errors
carry one message, formatted where they are raised.
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
    can be formed, and for the symbol count of a uniform instance."""


class _Valued(MultiDerangeError):
    """An error whose args are the numbers its _message names, in order."""

    _message: str

    def __str__(self) -> str:
        return self._message.format(*map(to_decimal, self.args))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(to_decimal, self.args))})"


class InsufficientData(_Valued):
    """Too few sequence terms to attempt any recurrence fit; args are
    (min_terms, got)."""

    _message = "need at least {} terms to attempt a fit, got {}"
    min_terms = property(lambda self: self.args[0])


class RecurrenceNotFound(_Valued):
    """No candidate the terms could fit within the (order, degree) caps was
    accepted; args are (max_order, max_degree, stopped_short), the last
    saying that some candidate within the caps had too few terms to be
    fitted at all."""

    _message = "no recurrence found with order <= {} and coefficient degree <= {}"

    def __str__(self) -> str:
        clause = "; the scan stopped short of the caps for lack of terms"
        return super().__str__() + (clause if self.args[2] else "")


class _AtIndex(_Valued):
    """An error at one sequence index, its one arg, also read as .index."""

    index = property(lambda self: self.args[0])


class HoldoutMismatch(_AtIndex):
    """A guessed recurrence failed on a row that reaches a term withheld
    from the guesser; index is the shift n of the first such row."""

    _message = "guessed recurrence fails at n={}, on a row that reaches a held-out term"


class LeadingCoefficientZero(_AtIndex):
    """The leading recurrence coefficient vanishes at an index needed for extension."""

    _message = "leading coefficient is zero at n={}; supply initial terms past this singular point"


class NonIntegralStep(_AtIndex):
    """A recurrence extension step required an inexact integer division.

    Integer sequences must stay integer; an inexact step proves the
    recurrence or the initial terms are wrong.
    """

    _message = "inexact division while extending at n={}"


class SequenceParseError(MultiDerangeError):
    """A term list (b-file or plain text) could not be parsed."""


class UnknownSequence(MultiDerangeError):
    """The remote database has no entry for the requested sequence id."""


class NetworkUnavailable(MultiDerangeError):
    """Remote terms were requested but no network source is available."""
