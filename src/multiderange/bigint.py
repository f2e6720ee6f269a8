"""Decimal text conversion for integers of unbounded size.

CPython caps int <-> str conversion (sys.get_int_max_str_digits, default
4300) to guard against quadratic blowup; counts in this package routinely
exceed that.  GMP converts subquadratically and without a cap, so all
decimal serialization and parsing funnels through these two helpers.

to_decimal also takes an integral Decimal (exponent 0), as `table` holds
its extended terms: str() of a Decimal is linear in the digit count and has
no cap, so such terms are printed as they are and never converted to int,
which would be quadratic again.
"""
from __future__ import annotations

from decimal import Decimal

try:
    from gmpy2 import mpz as _mpz

    def to_decimal(n: int | Decimal) -> str:
        if isinstance(n, Decimal):
            return str(n)
        return _mpz(n).digits(10)

    def from_decimal(text: str) -> int:
        return int(_mpz(text.strip(), 10))

except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    import sys

    sys.set_int_max_str_digits(0)  # 0 disables the conversion cap

    def to_decimal(n: int | Decimal) -> str:
        return str(n)

    def from_decimal(text: str) -> int:
        return int(text.strip())
