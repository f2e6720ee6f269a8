"""Counting derangements: classic, multiset (three independent methods), and
the uniform-multiplicity family.

A multiset instance is its multiplicity vector (a_1, ..., a_n), passed as any
iterable of ints and read once into a plain tuple: a_i >= 1 copies of symbol
i, and n may be 0.  Its derangements are the distinct arrangements in which
no position holds the same symbol as the sorted reference word
1^a_1 ... n^a_n.  Every count is returned as a plain int.

Three routes to the same count:

  * multiset_derangement - the production path: a signed exponential moment
    of the product Q of the matching Laguerre polynomials.  Scales to
    thousand-symbol instances.  `uniform_count` is the same path on one
    group of equal multiplicities.
  * brute_force_count    - enumeration of distinct multiset permutations with
    the position constraint applied while building (small instances only).
  * macmahon_count       - coefficient extraction from the generating
    function 1 / (1 - e_2 - 2*e_3 - ... - (n-1)*e_n) over a truncated
    multivariate series (small instances only).

The two bounded methods exist to cross-validate the first, so their bounds
are plain keyword arguments that tests can lift.

The production path builds Q one of three ways, and one rule on the grouped
multiplicities picks between them (see _PACKED_MAX_BITS).  A small Q is
read off a single big integer: each distinct factor evaluated at 256^w,
raised to its count and multiplied (Kronecker substitution in CPython
ints).  Above that size, when a few distinct multiplicities repeat many
times, Q's coefficients come from a first-order recurrence that needs only
small-by-big multiplies and exact divisions; otherwise the factors are
multiplied over `polys.int_product`'s balanced tree.
"""
from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from . import polys
from .bigint import to_decimal
from .errors import InstanceTooLarge, InternalInconsistency
from .laguerre import integer_moment, scaled_laguerre

# Default safety bounds for the oracle-grade methods.
BRUTE_FORCE_LIMIT = 10
MACMAHON_MAX_SYMBOLS = 6
MACMAHON_MAX_MULTIPLICITY = 6


def _multiplicities(m: Iterable[int]) -> tuple[int, ...]:
    """m as a tuple, every entry checked >= 1 (it may be empty)."""
    ms = tuple(m)
    for a in ms:
        if a < 1:
            raise ValueError(f"multiplicities must be >= 1, got {to_decimal(a)}")
    return ms


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


def total_arrangements(m: Iterable[int]) -> int:
    """Multinomial coefficient total! / (a_1! * ... * a_n!)."""
    out = 1
    placed = 0
    for a in _multiplicities(m):
        placed += a
        out *= comb(placed, a)
    return out


def multiset_derangement(m: Iterable[int]) -> int:
    """Exact derangement count via the signed Laguerre moment.

    The count equals (-1)^total times the exponential moment of the product
    of L_{a_i}.  It is evaluated on integers: the moment of the product of
    the a_i! * L_{a_i}, divided once by the product of the a_i!.  The
    division must be exact and the signed result nonnegative; both are
    checked before returning.
    """
    groups: dict[int, int] = {}
    for a in _multiplicities(m):
        groups[a] = groups.get(a, 0) + 1
    return _grouped_count(groups)


def uniform_count(n: int, k: int) -> int:
    """Derangement count of the multiset with k repeated n times.

    The same int as multiset_derangement((k,) * n), without building the
    tuple; n = 0 or k = 0 gives 1 (the empty word is vacuously deranged).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k and n > sys.maxsize:
        raise InstanceTooLarge(f"symbol count {to_decimal(n)} exceeds sys.maxsize ({sys.maxsize})")
    return _grouped_count({k: n} if n and k else {})


# Q = prod (a! * L_a)^c_a is packed into one integer when that integer,
# (deg Q + 1) slots of w bytes (see _packed_slot_bytes), has at most 2^16
# bits.  Small products are a few C-level multiplies against the Python
# loops of the other two routes; large ones lose to them, since CPython's
# multiply is Karatsuba.  The limit sits between the crossovers
# with the recurrence (45-55k bits) and with the tree (~100k bits).
# Measured in-process, best of 5 or 7, Q only, as the other route's time
# over the packed time (bit-equal every time), on seeded groupings of
# multiplicities 1-10:
#   against the recurrence: 20-55k bits (deg Q 96-150) 1.04-2.3, 56-65k
#     bits 0.75-0.96, 66-200k bits (deg Q 175-320) 0.22-0.8; single
#     groups of 2s, 3s, 4s or 6s 1.1-4.4 up to 50k bits, 0.62-0.94 from
#     45k bits;
#   against the tree: 28-65k bits (deg Q 90-147) 1.1-1.75, 65-110k bits
#     0.94-1.6, 120-200k bits 0.6-1.27;
#   the deck {4: 13} (5.5k bits) 0.026 vs 0.089 ms through the
#   recurrence.  Every small_queries shape (at most 16 sixes, 21.7k bits)
#   is packed.
# Above the limit, Q goes through the coefficient recurrence when
# R = prod a! * L_a over the distinct a has degree below 64 and Q's degree
# is at least 8 times R's; everything else goes through the product tree.
# The recurrence makes deg Q * deg R small-by-big multiplies, the tree a few
# big-by-big ones.  Measured in-process, best of 3, Q and its moment, tree
# vs recurrence (bit-equal every time), before the packed route went in;
# [5] x 8, [5] x 4 and the seeded mix now take that route:
#   taken by the recurrence: 500 fours 0.44 vs 0.018 s, 1000 fours 2.2 vs
#     0.048 s, (1..10) x 20 0.25 vs 0.066 s, [63] x 8 0.071 vs 0.052 s,
#     [40] x 8 0.012 vs 0.0073 s, [5] x 8 0.19 vs 0.17 ms;
#   kept on the tree: 1..20 0.0039 vs 0.18 s, [160] x 5 0.22 vs 0.73 s,
#     [63] x 4 10.6 vs 11.2 ms, [5] x 4 0.04 vs 0.10 ms, and a seeded mix
#     of 700 instances of 2-16 symbols with multiplicities 1-6 (none with
#     deg Q >= 6 deg R) 0.076 vs 0.27 s.
_PACKED_MAX_BITS = 1 << 16
_RECURRENCE_MAX_DEG_R = 64
_RECURRENCE_MIN_REPEAT = 8


def _grouped_count(groups: dict[int, int]) -> int:
    """Derangement count of the multiset with groups[a] copies of
    multiplicity a, every a and groups[a] >= 1 (no groups: the empty word)."""
    deg_r = sum(groups)
    deg_q = sum(a * c for a, c in groups.items())
    width = _packed_slot_bytes(groups)  # forms every factor: too large an a raises here
    scale = prod(factorial(a) ** c for a, c in groups.items())
    if (deg_q + 1) * 8 * width <= _PACKED_MAX_BITS:
        q = _product_packed(groups, deg_q, width)
    elif deg_r < _RECURRENCE_MAX_DEG_R and deg_q >= _RECURRENCE_MIN_REPEAT * deg_r:
        q = _product_recurrence(groups, deg_q, scale)
    else:
        q = _product_tree(groups)
    return _signed_count(integer_moment(q), deg_q, scale)


def _packed_slot_bytes(groups: dict[int, int]) -> int:
    """Smallest w with 256^w > 2B, where B = prod (sum |coefficients of
    a! * L_a|)^c_a bounds every |q_m|."""
    bound = prod(sum(map(abs, scaled_laguerre(a))) ** c for a, c in groups.items())
    return bound.bit_length() // 8 + 1


def _product_packed(groups: dict[int, int], deg_q: int, width: int) -> list[int]:
    """Q's coefficients from one big integer, Q(256^w) = prod P_a(256^w)^c_a,
    with w = width = _packed_slot_bytes(groups) and deg Q = deg_q.

    Each distinct P_a = a! * L_a is evaluated exactly at 256^w, signed
    coefficients and all, so any integer factors give their exact product.
    Every |q_m| is below half of 256^w, so adding half to each slot puts
    every slot in [0, 256^w): one to_bytes reads them all, and slot m minus
    half is q_m, with no carry to propagate.
    """
    shift = 8 * width
    value = 1
    for a, c in groups.items():
        packed = 0
        for coeff in reversed(scaled_laguerre(a)):
            packed = (packed << shift) + coeff
        value *= packed**c
    n = deg_q + 1
    half = 1 << (shift - 1)
    value += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = value.to_bytes(n * width, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)
    ]


def _product_tree(groups: dict[int, int]) -> Sequence[int]:
    """Q over polys.int_product's balanced tree, largest factors first."""
    return polys.int_product(
        [scaled_laguerre(a) for a in sorted(groups, reverse=True) for _ in range(groups[a])]
    )


def _product_recurrence(groups: dict[int, int], deg_q: int, q0: int) -> list[int]:
    """Q's deg_q + 1 coefficients from the first-order ODE R * Q' = S * Q.

    With P_a = a! * L_a, R = prod P_a over the distinct a and
    S = sum c_a * P_a' * (R / P_a), so that S / R is Q's logarithmic
    derivative (J. C. P. Miller's power formula, Knuth TAOCP vol. 2, 4.7,
    extended to products; the first-order case of D-finite closure).  R / P_a
    is the product of the other factors.  Reading off the coefficient of
    x^(m-1) gives

        m * r_0 * q_m = sum_{i>=1} (s_{i-1} - (m - i) * r_i) * q_{m-i},

    from q_0 = q0 = prod (a!)^c_a.  Every q_m is an integer, so each division
    must be exact; a remainder means a factor is wrong.
    """
    factors = {a: scaled_laguerre(a) for a in groups}
    r = polys.int_product(list(factors.values()))
    deg_r = len(r) - 1
    s = [0] * deg_r
    for a, p in factors.items():
        others = polys.int_product([f for b, f in factors.items() if b != a])
        term = polys.int_mul([i * c for i, c in enumerate(p)][1:], others)
        for i, c in enumerate(term):
            s[i] += groups[a] * c
    # Step m weighs q_{m-1}, ..., q_{m-deg R} by u_i - m * r_i, where
    # u_i = s_{i-1} + i * r_i.
    u = [s[i - 1] + i * r[i] for i in range(1, deg_r + 1)]
    tail = r[1:]
    q = [q0]
    for m in range(1, deg_q + 1):
        weights = [x - m * y for x, y in zip(u, tail)]
        acc = sum(map(int.__mul__, weights, q[: -deg_r - 1 : -1]))
        q_m, remainder = divmod(acc, m * r[0])
        if remainder:
            raise InternalInconsistency("product coefficient is not divisible by its step")
        q.append(q_m)
    return q


def uniform_terms(direction: str, value: int) -> Iterator[int]:
    """F(0), F(1), ... of the uniform family along `direction`, one term per
    next(); the direction is checked at the call.

    "fixed_k" runs over the number of symbols n with multiplicity `value`;
    "fixed_n" runs over the multiplicity k with `value` symbols.
    """
    if direction == "fixed_k":
        return _fixed_k_terms(value)
    if direction == "fixed_n":
        return (uniform_count(value, k) for k in itertools.count())
    raise ValueError(f"direction must be 'fixed_k' or 'fixed_n', got {direction!r}")


def _fixed_k_terms(k: int) -> Iterator[int]:
    """The fixed-k terms from one running product (k! * L_k)^n.  Each step
    multiplies it by the short factor k! * L_k (k + 1 coefficients) through
    `polys.int_mul`, which picks by the shorter operand: the schoolbook loop
    for k < 63, Kronecker substitution for k >= 63 from the second step on.
    """
    short = scaled_laguerre(k)
    scale_step = factorial(k)
    running = [1]
    scale = 1
    for n in itertools.count():
        yield _signed_count(integer_moment(running), n * k, scale)
        running = polys.int_mul(running, short)
        scale *= scale_step


def uniform_prefix(direction: str, value: int, count: int) -> list[int]:
    """The first `count` terms of uniform_terms(direction, value)."""
    return list(itertools.islice(uniform_terms(direction, value), count))


def uniform_fixed_k_prefix(k: int, count: int) -> list[int]:
    """[F(0), ..., F(count-1)] where F(n) counts derangements of k^n copies.

    uniform_prefix("fixed_k", k, count) under its old name.  Its only caller
    is perfbench/workloads.py; it can go once the benchmark calls
    uniform_prefix.
    """
    return uniform_prefix("fixed_k", k, count)


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


def brute_force_count(m: Iterable[int], *, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Count derangements by recursive symbol-count descent.

    Walks distinct multiset permutations only (equal copies are never
    distinguished), pruning any branch that would keep the reference
    symbol in place.
    """
    ms = _multiplicities(m)
    total = sum(ms)
    if total > limit:
        raise InstanceTooLarge(
            f"total {to_decimal(total)} exceeds brute-force bound {to_decimal(limit)}"
        )
    reference = [i for i, a in enumerate(ms) for _ in range(a)]
    remaining = list(ms)
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
    m: Iterable[int],
    *,
    max_symbols: int = MACMAHON_MAX_SYMBOLS,
    max_multiplicity: int = MACMAHON_MAX_MULTIPLICITY,
) -> int:
    """Count derangements by coefficient extraction from the classical
    generating function 1 / (1 - e_2 - 2*e_3 - ... - (n-1)*e_n).

    The geometric series is accumulated over a multivariate series truncated
    to exponent a_i in variable i.  Every term of the denominator's
    complement has total degree >= 2 and no constant term, so the truncated
    accumulation stabilizes on the target coefficient.
    """
    caps = _multiplicities(m)
    n = len(caps)
    if n > max_symbols:
        raise InstanceTooLarge(f"{n} symbols exceeds bound {max_symbols}")
    if n and max(caps) > max_multiplicity:
        raise InstanceTooLarge(
            f"multiplicity {to_decimal(max(caps))} exceeds bound {to_decimal(max_multiplicity)}"
        )
    if n == 0:
        return 1

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


def wrong_rank_probability(m: Iterable[int]) -> Fraction:
    """Exact probability that a uniform arrangement deranges every position."""
    ms = _multiplicities(m)
    if not ms:
        raise ValueError("probability needs a nonempty multiset")
    return Fraction(multiset_derangement(ms), total_arrangements(ms))
