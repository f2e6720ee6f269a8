"""Counting derangements: classic, multiset (three independent methods), and
the uniform-multiplicity family.

A multiset instance is the multiplicity vector (a_1, ..., a_n): a_i copies of
symbol i.  Its derangements are the distinct arrangements in which no
position holds the same symbol as the sorted reference word 1^a_1 ... n^a_n.

Three routes to the same count:

  * multiset_derangement - the production path: a signed exponential moment
    of the product of the matching Laguerre polynomials.  Scales to
    thousand-symbol instances.
  * brute_force_count    - enumeration of distinct multiset permutations with
    the position constraint applied while building (small instances only).
  * macmahon_count       - coefficient extraction from the generating
    function 1 / (1 - e_2 - 2*e_3 - ... - (n-1)*e_n) over a truncated
    multivariate series (small instances only).

The two bounded methods exist to cross-validate the first, so their bounds
are plain keyword arguments that tests can lift.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable

from . import polys
from .errors import InstanceTooLarge, InternalInconsistency
from .laguerre import integer_moment, scaled_laguerre

# Default safety bounds for the oracle-grade methods.
BRUTE_FORCE_LIMIT = 10
MACMAHON_MAX_SYMBOLS = 6
MACMAHON_MAX_MULTIPLICITY = 6


@dataclass(frozen=True)
class Multiset:
    """Multiplicity vector (a_1, ..., a_n); every a_i >= 1, n may be 0."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        for a in self.multiplicities:
            if a < 1:
                raise ValueError(f"multiplicities must be >= 1, got {a}")

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def __len__(self) -> int:
        return len(self.multiplicities)


@dataclass(frozen=True)
class DerangementCount:
    value: int
    instance: Multiset


def as_multiset(m: Multiset | Iterable[int]) -> Multiset:
    if isinstance(m, Multiset):
        return m
    return Multiset(tuple(m))


def classic_derangement(n: int) -> int:
    """Number of permutations of n distinct items with no fixed point.

    Computed by iterating D_{k+1} = (k+1) D_k + (-1)^{k+1} upward from
    D_0 = 1 (so D_1 = 0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = 1
    for k in range(n):
        d = (k + 1) * d + (-1 if k % 2 == 0 else 1)
    return d


def total_arrangements(m: Multiset | Iterable[int]) -> int:
    """Multinomial coefficient total! / (a_1! * ... * a_n!)."""
    ms = as_multiset(m)
    out = 1
    placed = 0
    for a in ms.multiplicities:
        placed += a
        out *= comb(placed, a)
    return out


def multiset_derangement(m: Multiset | Iterable[int]) -> DerangementCount:
    """Exact derangement count via the signed Laguerre moment.

    The count equals (-1)^total times the exponential moment of the product
    of L_{a_i}.  It is evaluated on integers: the moment of the product of
    the a_i! * L_{a_i}, divided once by the product of the a_i!.  The
    division must be exact and the signed result nonnegative; both are
    checked before returning.
    """
    ms = as_multiset(m)
    ordered = sorted(ms.multiplicities, reverse=True)
    moment = integer_moment(polys.int_product([scaled_laguerre(a) for a in ordered]))
    scale = prod(factorial(a) for a in ordered)
    return DerangementCount(_signed_count(moment, ms.total, scale), ms)


def uniform_count(n: int, k: int) -> int:
    """Derangement count of the multiset with k repeated n times.

    Evaluated as the signed moment of (k! * L_k) ** n divided by (k!)^n;
    n = 0 or k = 0 gives 1 (the empty word is vacuously deranged).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    moment = integer_moment(polys.int_power(scaled_laguerre(k), n))
    return _signed_count(moment, n * k, factorial(k) ** n)


def uniform_fixed_k_prefix(k: int, count: int) -> list[int]:
    """[F(0), ..., F(count-1)] where F(n) counts derangements of k^n copies.

    Shares one running product (k! * L_k)^n across the prefix.  Each step
    multiplies it by the short factor k! * L_k through `polys.int_mul`,
    whose dispatch keeps this long x short product in the schoolbook loop.
    """
    short = scaled_laguerre(k)
    scale_step = factorial(k)
    out = []
    running = [1]
    scale = 1
    for n in range(count):
        if n:
            running = polys.int_mul(running, short)
            scale *= scale_step
        out.append(_signed_count(integer_moment(running), n * k, scale))
    return out


def uniform_fixed_n_prefix(n: int, count: int) -> list[int]:
    """[F(0), ..., F(count-1)] where F(k) counts derangements of k^n copies."""
    return [uniform_count(n, k) for k in range(count)]


def uniform_prefix(direction: str, value: int, count: int) -> list[int]:
    """The first `count` terms of the uniform family along `direction`.

    "fixed_k" runs over the number of symbols n with multiplicity `value`;
    "fixed_n" runs over the multiplicity k with `value` symbols.
    """
    if direction == "fixed_k":
        return uniform_fixed_k_prefix(value, count)
    if direction == "fixed_n":
        return uniform_fixed_n_prefix(value, count)
    raise ValueError(f"direction must be 'fixed_k' or 'fixed_n', got {direction!r}")


def _signed_count(moment: int, total: int, scale: int = 1) -> int:
    """(-1)^total * moment / scale, which must be a nonnegative integer.

    A nonzero remainder or a negative result means the computation went
    wrong.  The messages leave the numbers out: their decimal text can pass
    the interpreter's int -> str digit limit.
    """
    signed = -moment if total % 2 else moment
    quotient, remainder = divmod(signed, scale)
    if remainder:
        raise InternalInconsistency("moment is not divisible by its scale")
    if quotient < 0:
        raise InternalInconsistency("moment has the wrong sign")
    return quotient


def brute_force_count(m: Multiset | Iterable[int], *, limit: int | None = None) -> int:
    """Count derangements by recursive symbol-count descent.

    Walks distinct multiset permutations only (equal copies are never
    distinguished), pruning any branch that would keep the reference
    symbol in place.
    """
    ms = as_multiset(m)
    bound = BRUTE_FORCE_LIMIT if limit is None else limit
    total = ms.total
    if total > bound:
        raise InstanceTooLarge(f"total {total} exceeds brute-force bound {bound}")
    reference = [i for i, a in enumerate(ms.multiplicities) for _ in range(a)]
    remaining = list(ms.multiplicities)
    n_symbols = len(remaining)

    def walk(pos: int) -> int:
        if pos == total:
            return 1
        banned = reference[pos]
        found = 0
        for sym in range(n_symbols):
            if sym != banned and remaining[sym]:
                remaining[sym] -= 1
                found += walk(pos + 1)
                remaining[sym] += 1
        return found

    return walk(0)


def macmahon_count(
    m: Multiset | Iterable[int],
    *,
    max_symbols: int | None = None,
    max_multiplicity: int | None = None,
) -> int:
    """Count derangements by coefficient extraction from the classical
    generating function 1 / (1 - e_2 - 2*e_3 - ... - (n-1)*e_n).

    The geometric series is accumulated over a multivariate series truncated
    to exponent a_i in variable i.  Every term of the denominator's
    complement has total degree >= 2 and no constant term, so the truncated
    accumulation stabilizes on the target coefficient.
    """
    ms = as_multiset(m)
    n = len(ms)
    sym_bound = MACMAHON_MAX_SYMBOLS if max_symbols is None else max_symbols
    mult_bound = (
        MACMAHON_MAX_MULTIPLICITY if max_multiplicity is None else max_multiplicity
    )
    if n > sym_bound:
        raise InstanceTooLarge(f"{n} symbols exceeds bound {sym_bound}")
    if n and max(ms.multiplicities) > mult_bound:
        raise InstanceTooLarge(
            f"multiplicity {max(ms.multiplicities)} exceeds bound {mult_bound}"
        )
    if n == 0:
        return 1

    caps = ms.multiplicities
    # E = sum over squarefree monomials of weight w >= 2, with coefficient w-1.
    growth: dict[tuple[int, ...], int] = {}
    for mask in range(1 << n):
        weight = mask.bit_count()
        if weight >= 2:
            exponents = tuple((mask >> i) & 1 for i in range(n))
            growth[exponents] = weight - 1

    accumulated: dict[tuple[int, ...], int] = {(0,) * n: 1}
    term = accumulated.copy()
    while term:
        term = _mul_truncated(term, growth, caps)
        for expo, coeff in term.items():
            accumulated[expo] = accumulated.get(expo, 0) + coeff
    return accumulated.get(caps, 0)


def _mul_truncated(
    series: dict[tuple[int, ...], int],
    factor: dict[tuple[int, ...], int],
    caps: tuple[int, ...],
) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in series.items():
        for e2, c2 in factor.items():
            combined = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= cap for x, cap in zip(combined, caps)):
                out[combined] = out.get(combined, 0) + c1 * c2
    return out


def wrong_rank_probability(m: Multiset | Iterable[int]) -> Fraction:
    """Exact probability that a uniform arrangement deranges every position."""
    ms = as_multiset(m)
    if ms.total < 1:
        raise ValueError("probability needs a nonempty multiset")
    return Fraction(multiset_derangement(ms).value, total_arrangements(ms))
