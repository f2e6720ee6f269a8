"""Decimal text conversion for integers of unbounded size.

All int <-> decimal text in this package goes through these two helpers.
CPython caps that conversion (sys.get_int_max_str_digits, default 4300
digits) because its str() and int() are quadratic; counts in this package
routinely exceed the cap.  Each helper tries the plain conversion first.
Only a value past the cap is split in halves until every piece is under
it, and the pieces are joined with subquadratic multiplies (Brent &
Zimmermann, Modern Computer Arithmetic, section 1.7; CPython 3.12's
_pylong does the same).  The interpreter's cap is read, never changed.
from_decimal reads one grammar at every length, an optional sign and
ASCII digits: int() alone also takes underscores, surrounding whitespace
and non-ASCII digits, but only below the cap.

to_decimal also takes an integral Decimal (exponent 0), as `table` holds
its extended terms: str() of a Decimal is linear in the digit count and has
no cap, so such terms are printed as they are and never converted to int,
which would be quadratic again.
"""
from __future__ import annotations

import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)

# Exact integer arithmetic on Decimals: any rounding traps.  Decimal
# operations that take no context argument (+, *, divmod, unary plus and
# minus, abs(), ...) round to the calling thread's context, so exact code
# either calls this context's methods and the context-free copy_* methods,
# or runs those operators inside `with localcontext(_EXACT):`, as
# recurrences.extend_sequence does.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)


def to_decimal(n: int | Decimal) -> str:
    """Decimal text of an int or an integral Decimal, at any size."""
    try:
        return str(n)
    except ValueError:  # an int past the digit cap
        pass
    # Pieces of at most 3 bits per allowed digit (2^3 < 10) stay under the
    # cap; Decimal(int) is quadratic too, so pieces are kept that small.
    bits = 3 * sys.get_int_max_str_digits()
    powers: dict[int, Decimal] = {}

    def join(m: int, width: int) -> Decimal:
        # m < 2^width; m = hi * 2^half + lo.
        if width <= bits:
            return Decimal(m)
        half = width >> 1
        if half not in powers:
            powers[half] = _EXACT.power(2, half)
        hi = m >> half
        return _EXACT.fma(join(hi, width - half), powers[half], join(m - (hi << half), half))

    magnitude = abs(n)
    text = str(join(magnitude, magnitude.bit_length()))
    return "-" + text if n < 0 else text


def from_decimal(text: str) -> int:
    """The int of decimal text: an optional sign and ASCII digits, nothing
    else, at every length."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    limit = sys.get_int_max_str_digits()
    if not limit or len(digits) <= limit:
        return int(text)
    powers: dict[int, int] = {}

    def join(start: int, stop: int) -> int:
        # digits[start:stop] = hi * 10^half + lo.
        width = stop - start
        if width <= limit:
            return int(digits[start:stop])
        half = width >> 1
        if half not in powers:
            powers[half] = 10**half
        return join(start, stop - half) * powers[half] + join(stop - half, stop)

    value = join(0, len(digits))
    return -value if text.startswith("-") else value
