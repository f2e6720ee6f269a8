"""Dense univariate polynomial arithmetic: an integer core and an exact
rational layer on top of it.

An integer polynomial is a sequence of ints; index m holds the coefficient
of x^m.  `int_mul`, `int_product` and `int_power` work on these, and they
are what the counting path uses.

A rational polynomial is a tuple of Fractions, normalized so that the zero
polynomial is the empty tuple and a nonzero one never ends in a stored zero;
equal polynomials are equal tuples.  `mul`, `product` and `power` are thin
wrappers over the integer core: they clear the operands' denominators once,
multiply the integer coefficients, and divide the result back once.

Every product goes through one dispatch on the shorter operand's length.
Below 64 coefficients the schoolbook loop runs, however long the other
operand is; from 64 up each operand is packed into a single big number
(Kronecker substitution), so the whole convolution becomes one big-number
product.  With gmpy2 the operands are packed into byte slots of an mpz and
GMP multiplies them.  Without it they are packed into zero-padded
base-10^w slots of a `Decimal`, and libmpdec multiplies them with its
number-theoretic transform in softly linear time, where CPython's own int
multiply would be Karatsuba.  Every path is exact and gives identical
coefficients.  The 64 was measured without gmpy2; see _convolve.

Products of many factors are evaluated over a balanced tree: pairing factors
of similar degree keeps intermediate degrees (and coefficient sizes) small,
which is what makes thousand-fold products of fixed-degree factors feasible.
"""
from __future__ import annotations

import math
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
from fractions import Fraction
from typing import Iterable, Sequence

from .bigint import from_decimal, to_decimal

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpz = int

Poly = tuple[Fraction, ...]

ZERO: tuple[Fraction, ...] = ()
ONE: tuple[Fraction, ...] = (Fraction(1),)

# Products whose shorter operand has fewer coefficients than this run the
# schoolbook loop; see _convolve.
_KRONECKER_MIN_LEN = 64

# Exact integer arithmetic on Decimals: any rounding traps.  Decimal
# operations that take no context argument (abs(), unary minus, ...) round
# to the calling thread's context, so the decimal path uses only this
# context's methods and the context-free copy_* methods.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)


def poly(coeffs: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    """Build a normalized polynomial from ascending coefficients."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def add(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coefficientwise sum, normalized."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact convolution product."""
    pnums, pden = scaled_integers(p)
    qnums, qden = scaled_integers(q)
    return _unscale(int_mul(pnums, qnums), pden * qden)


def product(factors: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Product of all factors over a balanced pairing tree; [] gives 1."""
    scaled = [scaled_integers(f) for f in factors]
    return _unscale(int_product([nums for nums, _ in scaled]), math.prod(den for _, den in scaled))


def power(p: Sequence[Fraction], e: int) -> tuple[Fraction, ...]:
    """p**e by repeated squaring; p**0 = 1."""
    nums, den = scaled_integers(p)
    return _unscale(int_power(nums, e), den**e)


def scaled_integers(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators: return (integer coefficients, common denominator).

    The polynomial equals sum(nums[m] * x^m) / den exactly.
    """
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in p], den


def _unscale(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, den) for c in nums)


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact convolution product of integer polynomials."""
    if not a or not b:
        return []
    return _convolve(a, b)


def int_product(factors: Sequence[Sequence[int]]) -> Sequence[int]:
    """Product of integer polynomials over a balanced pairing tree; [] gives [1]."""
    items = list(factors)
    if not items:
        return [1]
    while len(items) > 1:
        paired = [int_mul(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def int_power(p: Sequence[int], e: int) -> Sequence[int]:
    """p**e for an integer polynomial, by repeated squaring; p**0 = [1]."""
    if e < 0:
        raise ValueError("negative exponent")
    result: Sequence[int] = [1]
    base = p
    while e:
        if e & 1:
            result = int_mul(result, base)
        e >>= 1
        if e:
            base = int_mul(base, base)
    return result


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # One test on the shorter operand.  Measured without gmpy2 on products
    # of Laguerre factors (multiplicities 1-6), schoolbook vs decimal slots:
    # square products cross over between 64 and 72 coefficients (60x60:
    # 0.62 vs 0.78 ms; 72x72: 1.18 vs 0.74 ms; 128x128: 5.1 vs 2.5 ms).
    # Long x short products stay in schoolbook, because the packing cost
    # grows with the longer operand: 1025x9 2.0 vs 110 ms, 1025x49 17 vs
    # 72 ms, and schoolbook still wins at 1025x64 (27 vs 76 ms).
    if min(len(a), len(b)) < _KRONECKER_MIN_LEN:
        return _convolve_schoolbook(a, b)
    return _convolve_kronecker(a, b)


def _convolve_schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """One pass over the longer operand per coefficient of the shorter one."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(b):
        for j, r in enumerate(a, i):
            out[j] += c * r
    return out


def _entry_bound(a: Sequence[int], b: Sequence[int]) -> int:
    """Bound on |entry| of the convolution of a and b; 0 if either is zero."""
    return min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))


def _convolve_bytes(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution via packing into big integers.

    Each operand is split into nonnegative and negative parts, every part is
    packed into one integer with fixed-width slots, and the four cross
    products are recombined.  Slot width is chosen so no convolution entry
    of |a| * |b| can overflow its slot, hence byte slicing recovers the
    coefficients exactly.
    """
    bound = _entry_bound(a, b)
    if not bound:
        return [0] * (len(a) + len(b) - 1)
    width = (bound.bit_length() + 8) // 8 + 1  # bytes per slot, with headroom

    def split(coeffs: Sequence[int]) -> tuple[int, int]:
        pos = bytearray(width * len(coeffs))
        neg = bytearray(width * len(coeffs))
        for i, c in enumerate(coeffs):
            if c > 0:
                pos[i * width:(i + 1) * width] = c.to_bytes(width, "little")
            elif c < 0:
                neg[i * width:(i + 1) * width] = (-c).to_bytes(width, "little")
        return int.from_bytes(pos, "little"), int.from_bytes(neg, "little")

    a_pos, a_neg = split(a)
    b_pos, b_neg = split(b)
    ap, an, bp, bn = _mpz(a_pos), _mpz(a_neg), _mpz(b_pos), _mpz(b_neg)
    plus = int(ap * bp + an * bn)
    minus = int(ap * bn + an * bp)

    n_out = len(a) + len(b) - 1
    total = width * (n_out + 1)
    plus_bytes = plus.to_bytes(total, "little")
    minus_bytes = minus.to_bytes(total, "little")
    return [
        int.from_bytes(plus_bytes[k * width:(k + 1) * width], "little")
        - int.from_bytes(minus_bytes[k * width:(k + 1) * width], "little")
        for k in range(n_out)
    ]


def _convolve_decimal(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution via one exact Decimal product of base-10^w slots.

    Each operand becomes A = sum(a_i * 10^(w*i)), formed exactly as the
    difference of two digit strings (its positive and its negated negative
    coefficients, each zero-padded to w digits).  One multiply gives
    sum(c_k * 10^(w*k)).  The slot width w makes 10^w exceed twice any
    |c_k|, so reading the product back in balanced base-10^w digits (a slot
    at or above 10^w / 2 is negative and borrows one from the next slot)
    recovers every c_k exactly.
    """
    bound = _entry_bound(a, b)
    n_out = len(a) + len(b) - 1
    if not bound:
        return [0] * n_out
    # 30103/100000 exceeds log10(2), so 10^width > 2 * bound.
    width = (2 * bound).bit_length() * 30103 // 100000 + 1
    packed = _EXACT.multiply(_pack_decimal(a, width), _pack_decimal(b, width))

    text = str(packed.copy_abs()).zfill(width * n_out)
    base = 10**width
    half = base // 2
    out = []
    carry = 0
    for end in range(len(text), len(text) - width * n_out, -width):
        c = from_decimal(text[end - width:end]) + carry
        carry = c >= half
        out.append(c - base if carry else c)
    if packed.is_signed():
        return [-c for c in out]
    return out


def _pack_decimal(coeffs: Sequence[int], width: int) -> Decimal:
    zeros = "0" * width
    pos = "".join(to_decimal(c).zfill(width) if c > 0 else zeros for c in reversed(coeffs))
    neg = "".join(to_decimal(-c).zfill(width) if c < 0 else zeros for c in reversed(coeffs))
    return _EXACT.subtract(Decimal(pos), Decimal(neg))


# GMP multiplies packed bytes fast; without it, CPython's int multiply is
# Karatsuba, and libmpdec's transform multiply on decimal slots is faster.
_convolve_kronecker = _convolve_decimal if _mpz is int else _convolve_bytes
