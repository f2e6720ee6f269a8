"""Guessing, verifying, and applying linear recurrences with polynomial
coefficients.

A recurrence of order r is sum over j of p_j(n) * s(n+j) = 0 with integer
polynomial coefficients p_0 .. p_r, p_r not identically zero.  Guessing
fits such a recurrence to an exact term prefix: candidate (order, degree)
pairs are tried in increasing order+degree, and a candidate is accepted only
when its homogeneous system over all usable shifts is overdetermined by a
fixed margin and has a solution of the candidate's order.

Rank mod p never exceeds the rational rank, so a prime with full column
rank proves a system has no solution.  A screen decides which candidates
are fitted, in the degree-major column layout: column e*(r+1) + j holds
n^e * s(n+j).  The rows of an (r, d) system depend only on r, so each
(r, d) system is the leading (r+1)*(d+1)-column block of its order's system
of the largest feasible degree, and the RREF of a leading block is the
leading block of the RREF.  The first time the scan reaches order r, that
largest system is brought to RREF mod the screen's prime, once.  A
candidate's rank there is the number of pivots left of its block boundary,
and a candidate with full rank is rejected without a fit.

One exact solver fits every other candidate.  It reduces the system mod a
descending stream of other 31-bit primes, again rejecting on full column
rank, with the columns in shift-major order: all the columns of s(n) first,
then those of s(n+1), ...  The RREF nullspace basis of that layout has one
vector per free column, 1 there and 0 past it and at every other free
column, so its first order-r vector is the order-r solution with the
least-degree leading polynomial.  Basis vectors are combined across primes
by CRT and rationally reconstructed once a probe coordinate reconstructs
to the same fraction at two consecutive moduli.  Rank and pivot columns
mod p can only be worse than over the rationals, never better, so only
primes with the best pivot shape seen so far are combined: more pivots
first, then earlier pivot columns.

One exact check accepts: a reconstructed vector is returned only as a
recurrence of the candidate's order (nonzero top coefficient block) that
verify_recurrence passes on every available term.  A vector with a zero top
block is a relation of lower order, and every lower order of the same
degree had its own candidate earlier in the scan and was rejected there, so
such a vector cannot hold on all the terms.  Once every basis vector
reconstructs exactly and has a zero top block, the candidate is rejected.
A returned recurrence can therefore only fail beyond the data it was
fitted on, never on it.
No floating point is involved anywhere.

Guessed recurrences are empirical: they are verified, never certified.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import localcontext
from math import gcd, isqrt, lcm

import numpy as np

from .bigint import _EXACT, from_decimal, to_decimal
from .counting import uniform_prefix
from .errors import (
    HoldoutMismatch,
    InsufficientData,
    LeadingCoefficientZero,
    NonIntegralStep,
    RecurrenceNotFound,
)
from .sequences import SequenceSlice

# Equations beyond unknowns required before a fit may be accepted.
GUESS_MARGIN = 10

# Default search caps; generous for uniform-family sequences while keeping
# exhausted searches affordable.
DEFAULT_MAX_ORDER = 12
DEFAULT_MAX_DEGREE = 12

# The prime of the per-order screen.  One RREF mod this prime per order
# rejects most candidates of that order.
# 2^31 - 1 is prime and its squares fit comfortably in int64.
_FIRST_PRIME = (1 << 31) - 1


@dataclass(frozen=True)
class Recurrence:
    """Normalized annihilator: coefficient content 1, positive leading sign.

    coeff_polys[j] holds p_j as ascending integer coefficients with no
    trailing zeros; the empty tuple is the zero polynomial.
    """

    coeff_polys: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    def coefficient(self, j: int, n: int) -> int:
        """p_j evaluated at n."""
        value = 0
        for c in reversed(self.coeff_polys[j]):
            value = value * n + c
        return value


@dataclass(frozen=True)
class VerificationReport:
    checked: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def guess_recurrence(
    s: SequenceSlice, max_order: int, max_degree: int
) -> Recurrence:
    """Fit the first acceptable recurrence in the (order, degree) search.

    Candidates are scanned by increasing order+degree, then increasing
    order, so low-order fits win.  Each candidate needs
    (order+1)*(degree+1) + order + GUESS_MARGIN terms; if no candidate has
    that much data, InsufficientData reports the smallest workable count.
    Raises RecurrenceNotFound when the whole grid is exhausted.

    The first time the scan reaches an order, that order's system of the
    largest feasible degree is reduced mod _FIRST_PRIME, once, and only its
    pivot columns are kept.  A candidate whose leading column block has
    full rank there is rejected without a fit; any other is fitted.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError("search caps must allow order >= 1, degree >= 0")
    length = len(s.terms)
    candidates = sorted(
        (
            (r, d)
            for r in range(1, max_order + 1)
            for d in range(max_degree + 1)
        ),
        key=lambda rd: (rd[0] + rd[1], rd[0]),
    )
    feasible = [
        (r, d) for r, d in candidates if length >= _terms_needed(r, d)
    ]
    if not feasible:
        raise InsufficientData(
            min(_terms_needed(r, d) for r, d in candidates), length
        )
    # The big terms are reduced mod the first prime once, for every screen.
    first = SequenceSlice(s.offset, tuple(t % _FIRST_PRIME for t in s.terms))
    screens: dict[int, tuple[int, ...]] = {}
    for r, d in feasible:
        if r not in screens:
            top_degree = max(d_top for r_top, d_top in feasible if r_top == r)
            screens[r] = _reduce(first, r, top_degree, _FIRST_PRIME)[1]
        n_cols = (r + 1) * (d + 1)
        if bisect_left(screens[r], n_cols) == n_cols:
            continue  # full column rank mod the first prime: no solution
        rec = _fit(s, r, d)
        if rec is not None:
            return rec
    raise RecurrenceNotFound(max_order, max_degree)


def verify_recurrence(rec: Recurrence, s: SequenceSlice) -> VerificationReport:
    """Check the recurrence residual at every applicable shift of s."""
    r = rec.order
    if len(s.terms) < r + 1:
        raise ValueError(f"need at least {r + 1} terms to check an order-{r} recurrence")
    failures = []
    checked = 0
    for n in range(s.offset, s.end - r):
        residual = sum(
            rec.coefficient(j, n) * s.terms[n - s.offset + j] for j in range(r + 1)
        )
        checked += 1
        if residual:
            failures.append(n)
    return VerificationReport(checked, tuple(failures))


def extend_sequence(rec: Recurrence, init: SequenceSlice, upto: int) -> SequenceSlice:
    """Iterate the recurrence to produce terms through absolute index upto.

    Every step divides by the leading coefficient; the division must be
    exact over the integers, and a zero leading value is a singular point
    the caller must seed past.

    New terms have the type of the seed terms: int seeds give ints, and
    integral Decimal seeds give integral Decimals.  The loop runs in the
    exact context bigint._EXACT, where any rounding traps, and unary plus
    clears the sign of a zero quotient so it prints as 0.  The `table`
    command extends a Decimal copy of its seed and prints the terms with
    str(), which is linear in the digit count; str(int) and int(Decimal)
    are quadratic in CPython, so those terms never go back to int.  Every
    function that returns terms to library callers returns ints.
    """
    r = rec.order
    if len(init.terms) < r:
        raise ValueError(f"need at least {r} initial terms, got {len(init.terms)}")
    terms = list(init.terms)
    offset = init.offset
    with localcontext(_EXACT):
        # A zero of the seed's type, so an order-0 step keeps that type too.
        zero = terms[0] * 0 if terms else 0
        while offset + len(terms) <= upto:
            n = offset + len(terms) - r
            lead = rec.coefficient(r, n)
            if lead == 0:
                raise LeadingCoefficientZero(n)
            acc = zero
            for j in range(r):
                acc += rec.coefficient(j, n) * terms[n - offset + j]
            quotient, remainder = divmod(-acc, lead)
            if remainder:
                raise NonIntegralStep(n)
            terms.append(+quotient)
    return SequenceSlice(offset, tuple(terms))


def guess_uniform(
    direction: str,
    fixed_value: int,
    seed_count: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> tuple[SequenceSlice, Recurrence]:
    """Seed with direct counts, guess, and check the held-out terms.

    direction and fixed_value select the family as in
    `counting.uniform_prefix`.  The last GUESS_MARGIN (10) seed terms are
    withheld from the guesser and then checked exactly; a miss raises
    HoldoutMismatch rather than returning a fit that already failed once.
    Returns the seed (int terms, indices 0..seed_count-1) and the
    recurrence, ready for extend_sequence.
    """
    terms = uniform_prefix(direction, fixed_value, seed_count)
    seed = SequenceSlice(0, tuple(terms))
    shown = SequenceSlice(0, seed.terms[:-GUESS_MARGIN])
    rec = guess_recurrence(shown, max_order, max_degree)
    report = verify_recurrence(rec, seed)
    if not report.ok:
        raise HoldoutMismatch(report.failures[0])
    return seed, rec


def guess_and_extend_uniform(
    direction: str,
    fixed_value: int,
    seed_count: int,
    upto: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> tuple[SequenceSlice, Recurrence]:
    """guess_uniform, then extend the int seed through index upto."""
    if upto < seed_count:
        raise ValueError("upto must reach past the seed terms")
    seed, rec = guess_uniform(
        direction, fixed_value, seed_count, max_order=max_order, max_degree=max_degree
    )
    return extend_sequence(rec, seed, upto), rec


# -- serialization ----------------------------------------------------------

def recurrence_to_json(rec: Recurrence, variable: str = "n") -> str:
    document = {
        "order": rec.order,
        "variable": variable,
        "coeff_polys": [[to_decimal(c) for c in pj] for pj in rec.coeff_polys],
    }
    return json.dumps(document, sort_keys=True)


def recurrence_from_json(text: str) -> Recurrence:
    """The recurrence of a recurrence_to_json document; ValueError if the
    text is not such a document."""
    document = json.loads(text)
    if not (
        isinstance(document, dict)
        and type(document.get("order")) is int
        and isinstance(document.get("coeff_polys"), list)
        and all(
            isinstance(pj, list) and all(isinstance(c, str) for c in pj)
            for pj in document["coeff_polys"]
        )
    ):
        raise ValueError("expected an integer order and coeff_polys as lists of decimal strings")
    polys = tuple(
        tuple(from_decimal(c) for c in pj) for pj in document["coeff_polys"]
    )
    if len(polys) != document["order"] + 1:
        raise ValueError("order field disagrees with coefficient count")
    if not polys or not any(polys[-1]):
        raise ValueError("a recurrence needs a nonzero leading coefficient polynomial")
    return _normalized(polys)


def format_recurrence(rec: Recurrence, variable: str = "n", name: str = "s") -> str:
    """Human-readable rendering, highest shift first, e.g. 's(n+1) - s(n) = 0'."""
    parts: list[str] = []
    for j in range(rec.order, -1, -1):
        pj = rec.coeff_polys[j]
        if not pj:
            continue
        shift = f"{name}({variable}+{j})" if j else f"{name}({variable})"
        text, negative = _poly_text(pj, variable)
        sign = "-" if negative else "+"
        if not parts:
            parts.append(f"-{text}{shift}" if negative else f"{text}{shift}")
        else:
            parts.append(f"{sign} {text}{shift}")
    return " ".join(parts) + " = 0" if parts else "0 = 0"


def _poly_text(pj: tuple[int, ...], variable: str) -> tuple[str, bool]:
    """Render a coefficient polynomial as a multiplier prefix.

    Returns (text, leading_is_negative); text is empty for +-1 constants and
    parenthesized for genuine polynomials, with the overall sign pulled out
    only in the constant case.
    """
    if len(pj) == 1:
        c = pj[0]
        return ("" if abs(c) == 1 else f"{to_decimal(abs(c))}*", c < 0)
    negative = all(c <= 0 for c in pj)
    if negative:
        pj = tuple(-c for c in pj)
    monomials = []
    for e in range(len(pj) - 1, -1, -1):
        c = pj[e]
        if not c:
            continue
        if e == 0:
            body = to_decimal(abs(c))
        else:
            var = variable if e == 1 else f"{variable}^{e}"
            body = var if abs(c) == 1 else f"{to_decimal(abs(c))}*{var}"
        if not monomials:
            monomials.append(body if c > 0 else f"-{body}")
        else:
            monomials.append(f"+ {body}" if c > 0 else f"- {body}")
    return f"({' '.join(monomials)})*", negative


# -- fitting internals ------------------------------------------------------

def _terms_needed(r: int, d: int) -> int:
    return (r + 1) * (d + 1) + r + GUESS_MARGIN


def _fit(s: SequenceSlice, r: int, d: int) -> Recurrence | None:
    """The order-r recurrence of the (r, d) system, or None if it has none.

    Every prime of _prime_stream reduces the terms and the system afresh,
    in vectorized int64, with the columns in shift-major order: column
    j*(d+1) + e holds n^e * s(n+j), so a solution's last nonzero coordinate
    gives its order and then the degree of its top polynomial.  Rank mod p
    never exceeds the rational rank, so full column rank mod p certifies
    that only the zero vector solves the system.  Otherwise the RREF
    nullspace basis mod p (see _nullspace_mod_p) is combined across primes
    by CRT.

    After each combined prime one probe coordinate is rationally
    reconstructed.  Only when it gives the same fraction at two consecutive
    moduli is the whole basis reconstructed, vector by vector in basis
    order, up to the first vector that fails.  A coordinate with no
    reconstruction becomes the new probe, so an attempt waits for the
    coordinate that stopped the last one.  The rule only decides when to
    attempt: acceptance is unchanged, and once enough primes are combined
    the probe stays stable and attempts come at every prime.

    A reconstructed vector whose top coefficient block is nonzero and which
    passes verify_recurrence on every term of s is returned.  A vector with
    a zero top block is a lower-order relation, which the (r' < r, d)
    candidates scanned before this one already rejected; it is checked only
    on the order-r rows, the shifts the system sees.  When every basis
    vector reconstructs and passes there, the vectors span the exact
    nullspace and all have zero top blocks, so no order-r recurrence exists
    and None is returned.  Anything else means too few primes, and more are
    combined.  Since an attempt never passes over a failed vector, the
    vector returned is the first order-r vector of the rational basis, the
    order-r solution with the least-degree leading polynomial, however many
    primes it took.

    Pivots mod p never come earlier than the rational ones, so the pivot
    shape to trust is the best seen so far: more pivots first, then the
    lexicographically smaller pivot columns.  A prime with a worse shape is
    skipped, and one with a better shape restarts the combination.  Only
    finitely many primes are unlucky, so the loop ends.
    """
    n_cols = (r + 1) * (d + 1)
    # Column j*(d+1) + e of the fit is column e*(r+1) + j of _system.
    shift_major = [e * (r + 1) + j for j in range(r + 1) for e in range(d + 1)]
    best_shape: tuple | None = None
    for p in _prime_stream():
        # take, unlike [:, shift_major], returns C order: rows stay contiguous
        # for the row operations of _rref_mod_p.
        matrix = _system(s, r, d, p).take(shift_major, axis=1)
        pivots = _rref_mod_p(matrix, p)
        if len(pivots) == n_cols:
            return None  # full rank mod p: certified trivial nullspace
        basis = _nullspace_mod_p(matrix, pivots, p)
        shape = (-len(pivots), pivots)
        if best_shape is not None and shape > best_shape:
            continue  # p is unlucky
        if shape != best_shape:
            best_shape = shape
            combined, modulus = basis, p
            probe, settled = (0, 0), None
        else:
            combined = [
                _crt_merge(old, modulus, new, p)
                for old, new in zip(combined, basis)
            ]
            modulus *= p
        value = _rational_reconstruct(combined[probe[0]][probe[1]], modulus)
        stable = value is not None and value == settled
        settled = value
        if not stable:
            continue
        for i, vector in enumerate(combined):
            pairs = _reconstruct_vector(vector, modulus)
            if len(pairs) < n_cols:
                probe, settled = (i, len(pairs)), None
                break
            rec = _vector_to_recurrence(pairs, r, d)
            # The order-r rows: the shifts at which every (r, d) vector is checked.
            rows = SequenceSlice(s.offset, s.terms[:len(s.terms) - r + rec.order])
            if not verify_recurrence(rec, rows).ok:
                break
            if rec.order == r:
                return rec
        else:
            return None  # exact solutions exist, but none has order r
    raise RuntimeError("prime stream exhausted")


def _system(s: SequenceSlice, r: int, d: int, p: int) -> np.ndarray:
    """The (r, d) system of s mod p, one row per shift n, with degree-major
    columns: column e*(r+1) + j holds n^e * s(n+j).

    Entries stay below p < 2^31, so every product formed during modular
    elimination fits in int64 with room to spare.
    """
    terms_mod = np.array([t % p for t in s.terms], dtype=np.int64)
    n_rows = len(terms_mod) - r
    shifts = np.stack([terms_mod[j:j + n_rows] for j in range(r + 1)], axis=1)
    n_values = np.arange(s.offset, s.offset + n_rows, dtype=np.int64) % p
    powers = np.empty((n_rows, d + 1), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, d + 1):
        powers[:, e] = powers[:, e - 1] * n_values % p
    return (powers[:, :, None] * shifts[:, None, :] % p).reshape(n_rows, -1)


def _reduce(s: SequenceSlice, r: int, d: int, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The degree-major (r, d) system of s mod p in reduced row echelon
    form, and its pivot columns."""
    matrix = _system(s, r, d, p)
    return matrix, _rref_mod_p(matrix, p)


def _rref_mod_p(m: np.ndarray, p: int) -> tuple[int, ...]:
    """In-place reduced row echelon form mod p; returns the pivot columns."""
    n_rows, n_cols = m.shape
    rank = 0
    pivot_cols: list[int] = []
    for col in range(n_cols):
        below = m[rank:, col]
        nonzero = np.flatnonzero(below)
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        if pivot_row != rank:
            m[[rank, pivot_row]] = m[[pivot_row, rank]]
        inverse = pow(int(m[rank, col]), p - 2, p)
        m[rank, col:] = m[rank, col:] * inverse % p
        factors = m[:, col].copy()
        factors[rank] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            m[hit, col:] = (m[hit, col:] - factors[hit, None] * m[rank, col:]) % p
        pivot_cols.append(col)
        rank += 1
        if rank == n_rows:
            break
    return tuple(pivot_cols)


def _nullspace_mod_p(m: np.ndarray, pivot_cols: tuple[int, ...], p: int) -> list[list[int]]:
    """The nullspace mod p of a system in RREF, one basis vector per free
    column f in ascending order: coordinate f is 1, every other free
    coordinate is 0, and the coordinate of each pivot is minus its row's
    entry in column f.

    A row is zero left of its pivot, so each vector is also 0 past f.  Over
    a fit's shift-major columns the first order-r vector is therefore the
    order-r solution whose leading polynomial has the least degree, and the
    basis is the reduction mod p of the unique rational basis of this form
    whenever p preserves the pivot columns.
    """
    n_cols = m.shape[1]
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), n_cols), dtype=np.int64)
    basis[:, free_cols] = np.eye(len(free_cols), dtype=np.int64)
    basis[:, pivot_cols] = -m[:len(pivot_cols), free_cols].T % p
    return basis.tolist()


def _crt_merge(combined: list[int], modulus: int, vector: list[int], p: int) -> list[int]:
    """Values mod modulus*p that agree with combined mod modulus and vector mod p."""
    inverse = pow(modulus % p, p - 2, p)
    return [c + modulus * ((v - c) * inverse % p) for c, v in zip(combined, vector)]


def _reconstruct_vector(combined: list[int], modulus: int) -> list[tuple[int, int]]:
    """Rational reconstructions of the coordinates in order, up to the first
    that has none; the result is shorter than combined exactly then."""
    pairs = []
    for value in combined:
        pair = _rational_reconstruct(value, modulus)
        if pair is None:
            break
        pairs.append(pair)
    return pairs


def _rational_reconstruct(value: int, modulus: int) -> tuple[int, int] | None:
    """The unique fraction num/den in lowest terms with den > 0 and |num|,
    den bounded by sqrt(modulus/2) that equals value mod modulus, as the
    pair (num, den), if any."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, value % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _prime_stream():
    """The primes below _FIRST_PRIME in descending order, the primes of
    every fit."""
    for n in range(_FIRST_PRIME - 2, 1 << 30, -2):
        if _is_prime(n):
            yield n


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vector_to_recurrence(pairs: list[tuple[int, int]], r: int, d: int) -> Recurrence:
    """The recurrence of a reconstructed shift-major vector of fractions
    (num, den), with the denominators cleared."""
    common = lcm(*(den for _, den in pairs))
    vector = [num * (common // den) for num, den in pairs]
    width = d + 1
    return _normalized(vector[j * width:(j + 1) * width] for j in range(r + 1))


def _normalized(polys: Iterable[Iterable[int]]) -> Recurrence:
    """The Recurrence of these coefficient polynomials, normalized.

    Trailing zero coefficients and zero top polynomials are stripped, the
    content is divided out, and the leading sign is made positive.
    """
    lists = []
    for pj in polys:
        coeffs = list(pj)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        lists.append(coeffs)
    while len(lists) > 1 and not lists[-1]:
        lists.pop()
    content = gcd(*(c for coeffs in lists for c in coeffs)) or 1
    if lists[-1] and lists[-1][-1] < 0:
        content = -content
    return Recurrence(tuple(tuple(c // content for c in coeffs) for coeffs in lists))
