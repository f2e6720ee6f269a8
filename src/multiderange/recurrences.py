"""Guessing, verifying, and applying linear recurrences with polynomial
coefficients.

A recurrence of order r is sum over j of p_j(n) * s(n+j) = 0 with integer
polynomial coefficients p_0 .. p_r, p_r not identically zero.  Guessing
fits such a recurrence to an exact term prefix: candidate (order, degree)
pairs are tried in increasing order+degree, and a candidate is accepted only
when its homogeneous system over all usable shifts is overdetermined by a
fixed margin and has a solution of the candidate's order.

One exact solver decides every candidate.  It reduces the system mod a
descending stream of 31-bit primes.  A prime with full column rank proves
the system has no solution; otherwise nullspace vectors are combined across
primes by CRT and rationally reconstructed.  Rank and pivot columns mod p
can only be worse than over the rationals, never better, so only primes
with the best pivot shape seen so far are combined: more pivots first, then
earlier pivot columns.

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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .bigint import from_decimal, to_decimal
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

# First prime of every fit, so a single rank check mod this prime rejects
# most candidates.  2^31 - 1 is prime and its squares fit comfortably in int64.
_FIRST_PRIME = (1 << 31) - 1

# Primes combined before the first reconstruction attempt; each later attempt
# waits for twice as many.  Each prime adds ~9 digits to the CRT modulus.
_FIRST_ROUND = 8


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
    residues: dict[int, np.ndarray] = {}
    for r, d in feasible:
        rec = _fit(s, r, d, residues)
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
    """
    r = rec.order
    if len(init.terms) < r:
        raise ValueError(f"need at least {r} initial terms, got {len(init.terms)}")
    terms = list(init.terms)
    offset = init.offset
    while offset + len(terms) <= upto:
        n = offset + len(terms) - r
        lead = rec.coefficient(r, n)
        if lead == 0:
            raise LeadingCoefficientZero(n)
        acc = 0
        for j in range(r):
            acc += rec.coefficient(j, n) * terms[n - offset + j]
        quotient, remainder = divmod(-acc, lead)
        if remainder:
            raise NonIntegralStep(n)
        terms.append(quotient)
    return SequenceSlice(offset, tuple(terms))


def guess_and_extend_uniform(
    direction: str,
    fixed_value: int,
    seed_count: int,
    upto: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> tuple[SequenceSlice, Recurrence]:
    """Seed with direct counts, guess, check held-out terms, then extend.

    direction and fixed_value select the family as in
    `counting.uniform_prefix`.  The last GUESS_MARGIN (10) seed terms are
    withheld from the guesser and then checked exactly; a miss raises
    HoldoutMismatch rather than returning a fit that already failed once.
    """
    if upto < seed_count:
        raise ValueError("upto must reach past the seed terms")
    terms = uniform_prefix(direction, fixed_value, seed_count)
    seed = SequenceSlice(0, tuple(terms))
    shown = SequenceSlice(0, tuple(terms[:-GUESS_MARGIN]))
    rec = guess_recurrence(shown, max_order, max_degree)
    report = verify_recurrence(rec, seed)
    if not report.ok:
        raise HoldoutMismatch(report.failures[0])
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
    document = json.loads(text)
    polys = tuple(
        tuple(from_decimal(c) for c in pj) for pj in document["coeff_polys"]
    )
    if len(polys) != document["order"] + 1:
        raise ValueError("order field disagrees with coefficient count")
    return Recurrence(polys)


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


def _fit(
    s: SequenceSlice, r: int, d: int, residues: dict[int, "np.ndarray"]
) -> Recurrence | None:
    """The order-r recurrence of the (r, d) system, or None if it has none.

    Per prime of _prime_stream the system is brought to reduced row echelon
    form over the prime field in vectorized int64.  Rank mod p never exceeds
    the rational rank, so full column rank mod p certifies that only the
    zero vector solves the system; the first prime alone rejects most
    candidates this way.  Otherwise the canonical nullspace basis mod p is
    combined across primes by CRT, and after 8, 16, 32, ... combined primes
    each basis vector is rationally reconstructed.

    The first reconstruction, in basis order, whose top coefficient block
    is nonzero and which passes verify_recurrence on every term of s is
    returned.  A vector with a zero top block is a lower-order relation,
    which the (r' < r, d) candidates scanned before this one already
    rejected; it is checked only on the order-r rows, the shifts the system
    sees.  When every basis vector reconstructs and passes there, the
    vectors span the exact nullspace and all have zero top blocks, so no
    order-r recurrence exists and None is returned.  Anything else means
    too few primes, and more are combined.

    Pivots mod p never come earlier than the rational ones, so the pivot
    shape to trust is the best seen so far: more pivots first, then the
    lexicographically smaller pivot columns.  A prime with a worse shape is
    skipped, and one with a better shape restarts the combination.  Only
    finitely many primes are unlucky, so the loop ends.

    `residues` maps each prime to the terms reduced mod it; the caller
    shares it across candidates so the big terms are reduced once per prime.
    """
    n_cols = (r + 1) * (d + 1)
    best_shape: tuple | None = None
    for p in _prime_stream():
        if p not in residues:
            residues[p] = np.array([t % p for t in s.terms], dtype=np.int64)
        matrix = _modp_matrix(residues[p], s.offset, r, d, p)
        pivots = _rref_mod_p(matrix, p)
        if len(pivots) == n_cols:
            return None  # full rank mod p: certified trivial nullspace
        shape = (-len(pivots), pivots)
        if best_shape is not None and shape > best_shape:
            continue  # p is unlucky
        basis = _nullspace_mod_p(matrix, pivots, p)
        if shape != best_shape:
            best_shape = shape
            combined, modulus = basis, p
            used, next_attempt = 1, _FIRST_ROUND
        else:
            combined = [
                _crt_merge(old, modulus, new, p)
                for old, new in zip(combined, basis)
            ]
            modulus *= p
            used += 1
        if used < next_attempt:
            continue
        next_attempt *= 2
        spans_nullspace = True
        for vector in combined:
            candidate = _reconstruct_vector(vector, modulus)
            if candidate is None:
                spans_nullspace = False
                continue
            rec = _vector_to_recurrence(candidate, r, d)
            # The order-r rows: the shifts at which every (r, d) vector is checked.
            rows = SequenceSlice(s.offset, s.terms[:len(s.terms) - r + rec.order])
            if not verify_recurrence(rec, rows).ok:
                spans_nullspace = False
            elif rec.order == r:
                return rec
        if spans_nullspace:
            return None  # exact solutions exist, but none has order r
    raise RuntimeError("prime stream exhausted")


def _modp_matrix(terms_mod: "np.ndarray", offset: int, r: int, d: int, p: int) -> "np.ndarray":
    """The full candidate system reduced mod p, as an int64 array.

    Entries stay below p < 2^31, so every product formed during modular
    elimination fits in int64 with room to spare.
    """
    n_rows = len(terms_mod) - r
    shifts = np.stack([terms_mod[j:j + n_rows] for j in range(r + 1)], axis=1)
    n_values = np.arange(offset, offset + n_rows, dtype=np.int64) % p
    powers = np.empty((n_rows, d + 1), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, d + 1):
        powers[:, e] = powers[:, e - 1] * n_values % p
    return (shifts[:, :, None] * powers[:, None, :] % p).reshape(n_rows, -1)


def _rref_mod_p(m: "np.ndarray", p: int) -> tuple[int, ...]:
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


def _nullspace_mod_p(m: "np.ndarray", pivot_cols: tuple[int, ...], p: int) -> list[list[int]]:
    """Canonical nullspace basis of a matrix in RREF mod p.

    One vector per free column in ascending order, with that free
    coordinate set to 1 and the other free coordinates 0 - the reduction
    mod p of the unique rational RREF nullspace basis whenever p preserves
    the pivot shape.
    """
    n_cols = m.shape[1]
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vector = [0] * n_cols
        vector[free] = 1
        for k, col in enumerate(pivot_cols):
            vector[col] = int(-m[k, free]) % p
        basis.append(vector)
    return basis


def _crt_merge(combined: list[int], modulus: int, vector: list[int], p: int) -> list[int]:
    """Values mod modulus*p that agree with combined mod modulus and vector mod p."""
    inverse = pow(modulus % p, p - 2, p)
    return [c + modulus * ((v - c) * inverse % p) for c, v in zip(combined, vector)]


def _reconstruct_vector(combined: list[int], modulus: int) -> list[int] | None:
    """Rational reconstruction of every coordinate, cleared to coprime ints."""
    fractions = []
    for value in combined:
        fraction = _rational_reconstruct(value, modulus)
        if fraction is None:
            return None
        fractions.append(fraction)
    return _clear_to_coprime(fractions)


def _rational_reconstruct(value: int, modulus: int) -> Fraction | None:
    """Unique fraction a/b with a, b bounded by sqrt(modulus/2), if any."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, value % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def _clear_to_coprime(values: list[Fraction]) -> list[int]:
    common = 1
    for v in values:
        common = common * v.denominator // gcd(common, v.denominator)
    ints = [int(v * common) for v in values]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return [v // content for v in ints] if content else ints


def _prime_stream():
    """Deterministic descending stream of 31-bit primes.

    _FIRST_PRIME is a known prime, and most candidates are decided by it
    alone, so it is yielded without the primality test each fit would
    otherwise repeat.
    """
    yield _FIRST_PRIME
    n = _FIRST_PRIME - 2
    while n > 1 << 30:
        if _is_prime(n):
            yield n
        n -= 2


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


def _vector_to_recurrence(vector: list[int], r: int, d: int) -> Recurrence:
    width = d + 1
    polys = []
    for j in range(r + 1):
        coeffs = vector[j * width:(j + 1) * width]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        polys.append(tuple(coeffs))
    while len(polys) > 1 and not polys[-1]:
        polys.pop()
    leading = polys[-1]
    if leading and leading[-1] < 0:
        polys = [tuple(-c for c in pj) for pj in polys]
    return Recurrence(tuple(polys))
