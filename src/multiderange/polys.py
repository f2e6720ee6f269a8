"""Dense univariate polynomial arithmetic: an integer core and an exact
rational layer on top of it.

An integer polynomial is a sequence of ints; index m holds the coefficient
of x^m.  `int_mul` and `int_product` work on these, and they are what the
counting path uses: its product tree, and the short products that set up
its coefficient recurrence.

A rational polynomial is a tuple of Fractions, normalized so that the zero
polynomial is the empty tuple and a nonzero one never ends in a stored zero;
equal polynomials are equal tuples.  `mul`, `product` and `power` are thin
wrappers over the integer core: they clear the operands' denominators once,
multiply the integer coefficients, and divide the result back once.

Every product made here goes through one dispatch on the shorter operand's
length (counting's packed route multiplies CPython ints instead).  Below 64
coefficients the schoolbook loop runs, however long the other operand is;
from 64 up each operand is packed into a single big number (Kronecker
substitution): zero-padded base-10^w slots of a `Decimal`, which libmpdec
multiplies with its number-theoretic transform in softly linear time, where
CPython's own int multiply would be Karatsuba.  Both paths are exact and
give identical coefficients; see int_mul for the 64.

Products of many factors, powers included, are evaluated over a balanced
tree: pairing factors of similar degree keeps intermediate degrees (and
coefficient sizes) small, which is what makes thousand-fold products of
fixed-degree factors feasible.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .bigint import _EXACT, from_decimal, to_decimal

Poly = tuple[Fraction, ...]

# Products whose shorter operand has fewer coefficients than this run the
# schoolbook loop; see int_mul.
_KRONECKER_MIN_LEN = 64


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
    return poly(out)


def mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact convolution product."""
    return product((p, q))


def product(factors: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Product of all factors over a balanced pairing tree; [] gives 1."""
    scaled = [scaled_integers(f) for f in factors]
    return _unscale(int_product([nums for nums, _ in scaled]), math.prod(den for _, den in scaled))


def power(p: Sequence[Fraction], e: int) -> tuple[Fraction, ...]:
    """p**e over the balanced tree of e copies of p; p**0 = 1."""
    if e < 0:
        raise ValueError("negative exponent")
    nums, den = scaled_integers(p)
    return _unscale(int_product([nums] * e), den**e)


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
    # One test on the shorter operand.  Measured on products of Laguerre
    # factors (multiplicities 1-6), schoolbook vs decimal slots:
    # square products cross over between 64 and 72 coefficients (60x60:
    # 0.62 vs 0.78 ms; 72x72: 1.18 vs 0.74 ms; 128x128: 5.1 vs 2.5 ms).
    # Long x short products with a short operand below 64 stay in
    # schoolbook, because the packing cost grows with the longer operand:
    # 1025x9 2.0 vs 110 ms, 1025x49 17 vs 72 ms; 1025x64 goes to Kronecker,
    # though schoolbook still wins there (27 vs 76 ms).
    if min(len(a), len(b)) < _KRONECKER_MIN_LEN:
        return _convolve_schoolbook(a, b)
    return _convolve_decimal(a, b)


def int_product(factors: Sequence[Sequence[int]]) -> Sequence[int]:
    """Product of integer polynomials over a balanced pairing tree; [] gives [1].

    A pair whose operands are the same objects as the previous pair's reuses
    that pair's product, so n copies of one factor (a power, or a run of
    cached equal factors) cost about log2(n) multiplies, not n - 1.
    """
    items = list(factors)
    if not items:
        return [1]
    while len(items) > 1:
        paired: list[Sequence[int]] = []
        for i in range(0, len(items) - 1, 2):
            if i and items[i] is items[i - 2] and items[i + 1] is items[i - 1]:
                paired.append(paired[-1])
            else:
                paired.append(int_mul(items[i], items[i + 1]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


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
