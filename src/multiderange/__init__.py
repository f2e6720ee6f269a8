"""Exact derangement counting for multisets, with Laguerre-moment evaluation,
empirical recurrence guessing, and OEIS cross-checking."""
from .counting import (
    brute_force_count,
    classic_derangement,
    macmahon_count,
    multiset_derangement,
    total_arrangements,
    uniform_count,
    wrong_rank_probability,
)
from .errors import (
    HoldoutMismatch,
    InstanceTooLarge,
    InsufficientData,
    InternalInconsistency,
    LeadingCoefficientZero,
    MultiDerangeError,
    NetworkUnavailable,
    NonIntegralStep,
    RecurrenceNotFound,
    SequenceParseError,
    UnknownSequence,
)
from .laguerre import exp_moment, laguerre
from .oeis import OeisClient, OeisReport
from .recurrences import (
    Recurrence,
    VerificationReport,
    extend_sequence,
    format_recurrence,
    guess_and_extend_uniform,
    guess_recurrence,
    recurrence_from_json,
    recurrence_to_json,
    verify_recurrence,
)
from .sequences import SequenceSlice, format_bfile, format_plain, parse_bfile

__version__ = "0.1.0"

__all__ = [
    "OeisClient",
    "OeisReport",
    "Recurrence",
    "SequenceSlice",
    "VerificationReport",
    "brute_force_count",
    "classic_derangement",
    "exp_moment",
    "extend_sequence",
    "format_bfile",
    "format_plain",
    "format_recurrence",
    "guess_and_extend_uniform",
    "guess_recurrence",
    "laguerre",
    "macmahon_count",
    "multiset_derangement",
    "parse_bfile",
    "recurrence_from_json",
    "recurrence_to_json",
    "total_arrangements",
    "uniform_count",
    "verify_recurrence",
    "wrong_rank_probability",
    "MultiDerangeError",
    "InternalInconsistency",
    "InstanceTooLarge",
    "InsufficientData",
    "RecurrenceNotFound",
    "HoldoutMismatch",
    "LeadingCoefficientZero",
    "NonIntegralStep",
    "SequenceParseError",
    "UnknownSequence",
    "NetworkUnavailable",
]
