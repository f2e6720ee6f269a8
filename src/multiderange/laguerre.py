"""Simple Laguerre polynomials and the exponential moment functional.

The degree-a Laguerre polynomial used here is

    L_a(x) = sum over alpha of (-1)^alpha * C(a, alpha) * x^alpha / alpha!

and the moment functional maps a polynomial p to the integral of
e^(-x) * p(x) over [0, infinity), which equals sum(coeff[m] * m!) because
the m-th exponential moment is m!.  Everything stays exact; no quadrature
is involved.

The Laguerre system is orthonormal under this functional, which is what
collapses derangement counts of multisets into single moments of Laguerre
products.

The counting path works on integers only: `scaled_laguerre(a)` is a! * L_a,
whose coefficients (-1)^alpha * C(a, alpha) * a! / alpha! are integers, and
`integer_moment` applies the functional to an integer polynomial.
`laguerre` and `exp_moment` are the rational forms of the same two
operations.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polys import Poly, scaled_integers

# Append-only cache by degree.  Racing inserts are benign: every writer
# stores the same immutable tuple for a given key.
_scaled_cache: dict[int, tuple[int, ...]] = {}


def scaled_laguerre(a: int) -> tuple[int, ...]:
    """a! * L_a as integer coefficients, cached per process."""
    if a < 0:
        raise ValueError("degree must be nonnegative")
    cached = _scaled_cache.get(a)
    if cached is not None:
        return cached
    fa = math.factorial(a)
    coeffs = tuple(
        (-1) ** alpha * math.comb(a, alpha) * (fa // math.factorial(alpha))
        for alpha in range(a + 1)
    )
    _scaled_cache[a] = coeffs
    return coeffs


def laguerre(a: int) -> Poly:
    """The degree-a simple Laguerre polynomial: scaled_laguerre(a) / a!."""
    scaled = scaled_laguerre(a)
    fa = math.factorial(a)
    return tuple(Fraction(c, fa) for c in scaled)


def integer_moment(nums: Sequence[int]) -> int:
    """Exponential moment of an integer polynomial: sum of nums[m] * m!.

    Evaluated by Horner's rule as nums[0] + 1*(nums[1] + 2*(nums[2] + ...)),
    so every step multiplies by a small int; no factorial is ever formed.
    """
    total = 0
    for m in range(len(nums) - 1, 0, -1):
        total = (total + nums[m]) * m
    return total + nums[0] if nums else 0


def exp_moment(p: Poly) -> Fraction:
    """Apply the exponential moment functional: sum of coeff[m] * m!."""
    nums, den = scaled_integers(p)
    return Fraction(integer_moment(nums), den)
