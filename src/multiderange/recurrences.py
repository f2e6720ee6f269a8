"""Guessing, verifying, and applying linear recurrences with polynomial
coefficients.

A recurrence of order r is sum over j of p_j(n) * s(n+j) = 0 with integer
polynomial coefficients p_0 .. p_r, p_r not identically zero.  Guessing
fits such a recurrence to an exact term prefix: candidate (order, degree)
pairs are tried in increasing order+degree, and a candidate is accepted only
when its homogeneous system over all usable shifts is overdetermined by a
fixed margin and has a solution of the candidate's order.

Rank mod p never exceeds the rational rank, so a prime with full column
rank proves a system has no solution, and so does full rank on a subset of
its rows.  Every forward elimination mod p goes through one kernel,
_echelon_mod_p, whose pivot columns are those of the reduced row echelon
form; it subtracts products of residues in [0, p) and reduces the trailing
block only every _deferral(p) updates.  _inverse_mod_p back-substitutes
in its own loop, deferred the same way: two forward passes of the kernel
made the inverse 24-29% slower.  A screen decides which candidates are
fitted, in the degree-major column layout: column e*(r+1) + j holds
n^e * s(n+j).  The first time the scan reaches order r, the last
columns + GUESS_MARGIN rows of one system of that order are reduced mod
the screen's prime.  Each lower-degree system is a leading column block,
whose pivots are those of the whole system left of its boundary, so every
degree below that of the first free column is rejected without a fit.
An order-(r-1) relation padded with a zero top block solves the order-r
rows, so order r is reduced only up to the degree at which order r-1 was
passed; every degree above the reduced one is passed to its fit.

One exact solver fits every other candidate.  It reduces the candidate's
system over every row mod one prime of a descending stream of primes below
2^30, once, with the columns in shift-major order: all the columns of
s(n) first, then those of s(n+1), ...  Full column rank rejects again.
Otherwise the rational nullspace has one canonical basis vector per free
column of its reduced row echelon form, 1 there and 0 past it and at every
other free column, and the first of them with a nonzero top (order-r)
block is the order-r solution with the least-degree leading polynomial:
that is the vector returned.  The fit lifts the vectors of the prime's free
columns, up to its first free column of the top block, p-adically (Dixon)
with one inverse of the pivot block B mod p, taken by forward elimination
of [B | I] and a back-substitution; each step updates the exact residuals
of all pivot rows at once, from int64 products of limbs of the rows'
powers of n with the step's digits.  The vectors are rationally
reconstructed once a probe coordinate reconstructs to the same fraction
at two consecutive powers of p.  The prime is accepted only if every
vector is zero past its own column and passes the exact check below; then
the vectors are the canonical ones (see _fit).  Any other outcome moves on
to the next prime.

One exact check accepts: a reconstructed vector is returned only as a
recurrence of the candidate's order (nonzero top coefficient block) whose
residual is zero at every row of the system, which for that order is
every shift of the available terms, the check of verify_recurrence.  A
vector with a zero top block is a relation of lower order, and every lower
order of the same degree had its own candidate earlier in the scan and was
rejected there, so such a vector cannot hold on all the terms.  When an
accepted prime has no free column in the top block, the candidate is
rejected.  A returned recurrence can therefore only fail beyond the data it was
fitted on, never on it.
No floating point is involved anywhere.

Guessed recurrences are empirical: they are verified, never certified.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import localcontext
from itertools import islice
from math import gcd, isqrt, lcm

from . import counting
from .bigint import _EXACT, from_decimal, to_decimal
from .errors import (
    HoldoutMismatch,
    InsufficientData,
    LeadingCoefficientZero,
    MultiDerangeError,
    NonIntegralStep,
    RecurrenceNotFound,
)
from .sequences import SequenceSlice

# numpy is imported only inside the functions that use it (_system,
# _echelon_mod_p, _inverse_mod_p, _lift): loading it takes longer than any
# command that guesses no recurrence, and those commands never need it.

# Equations beyond unknowns required before a fit may be accepted.
GUESS_MARGIN = 10

# Default search caps; generous for uniform-family sequences while keeping
# exhausted searches affordable.
DEFAULT_MAX_ORDER = 12
DEFAULT_MAX_DEGREE = 12

# The prime of the per-order screen, the largest below 2^27: one CPython
# digit, below the fit primes (2^29, 2^30), and small enough that the
# elimination reduces its trailing block only every 512 updates.
_SCREEN_PRIME = 134217689


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
    (order+1)*(degree+1) + order + GUESS_MARGIN terms, so no order or
    degree past the term count can be fitted and the scan never builds
    them; if no candidate has that much data, InsufficientData reports the
    count order 1, degree 0 needs.  Raises RecurrenceNotFound, naming the
    caps, when every candidate the terms cover is rejected; it says whether
    some candidate within the caps lacked terms.

    Order r is screened once (_screen), up to the least degree that passed
    at order r-1; its degrees below the least that passes are rejected.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError("search caps must allow order >= 1, degree >= 0")
    length = len(s.terms)
    feasible = sorted(
        (
            (r, d)
            for r in range(1, min(max_order, length) + 1)
            for d in range(min(max_degree, length) + 1)
            if length >= _terms_needed(r, d)
        ),
        key=lambda rd: (rd[0] + rd[1], rd[0]),
    )
    if not feasible:
        raise InsufficientData(_terms_needed(1, 0), length)
    # The big terms are reduced mod the screen's prime once, for every screen.
    residues = SequenceSlice(s.offset, tuple(t % _SCREEN_PRIME for t in s.terms))
    passed: dict[int, int] = {}  # order -> the least degree its screen passes
    for r, d in feasible:
        if r not in passed:
            top_degree = max(d_top for r_top, d_top in feasible if r_top == r)
            passed[r] = _screen(residues, r, min(top_degree, passed.get(r - 1, top_degree)))
        if d < passed[r]:
            continue  # full column rank mod the screen's prime: no solution
        rec = _fit(s, r, d)
        if rec is not None:
            return rec
    stopped_short = len(feasible) < max_order * (max_degree + 1)
    raise RecurrenceNotFound(max_order, max_degree, stopped_short)


def verify_recurrence(rec: Recurrence, s: SequenceSlice) -> VerificationReport:
    """Check the recurrence residual at every applicable shift of s."""
    r = rec.order
    if len(s.terms) < r + 1:
        raise ValueError(f"need at least {r + 1} terms to check an order-{r} recurrence")
    shifts = range(s.offset, s.end - r)
    failures = tuple(n for n in shifts if _residual(rec, s, n))
    return VerificationReport(len(shifts), failures)


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


def guess_seed(seed: SequenceSlice, max_order: int, max_degree: int) -> Recurrence:
    """Guess from all but the last GUESS_MARGIN (10) seed terms, then check
    those held-out terms exactly: guess_recurrence has already checked every
    row of the shown terms, so only the rows that reach a held-out term run.

    A miss raises HoldoutMismatch at the first failing shift rather than
    returning a fit that already failed once, so the recurrence returned
    holds on the whole seed.  InsufficientData counts seed terms, the
    shown ones plus those held out.
    """
    shown = SequenceSlice(seed.offset, seed.terms[:-GUESS_MARGIN])
    try:
        rec = guess_recurrence(shown, max_order, max_degree)
    except InsufficientData as exc:
        raise InsufficientData(exc.min_terms + GUESS_MARGIN, len(seed.terms)) from exc
    start = len(shown.terms) - rec.order
    report = verify_recurrence(rec, SequenceSlice(seed.offset + start, seed.terms[start:]))
    if not report.ok:
        raise HoldoutMismatch(report.failures[0])
    return rec


def guess_and_extend_uniform(
    direction: str,
    fixed_value: int,
    seed_count: int,
    upto: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> tuple[SequenceSlice, Recurrence]:
    """guess_seed on the first seed_count terms of
    counting.uniform_terms(direction, fixed_value), then extend the int seed
    through index upto; a failed guess raises its error."""
    if upto < seed_count:
        raise ValueError("upto must reach past the seed terms")
    table = uniform_table(
        direction, fixed_value, upto, seed_count,
        max_order=max_order, max_degree=max_degree, fallback=False, number=int,
    )
    return table.terms, table.recurrence


@dataclass(frozen=True)
class UniformTable:
    """The result of uniform_table.

    seed_length counts the terms computed directly, and failures holds each
    failed guess, in order, as (the seed length it used, its error).
    """

    terms: SequenceSlice
    recurrence: Recurrence | None  # None: the seed is the whole table
    seed_length: int
    failures: tuple[tuple[int, MultiDerangeError], ...]


def uniform_table(
    direction: str,
    value: int,
    upto: int,
    seed_count: int,
    *,
    max_order: int,
    max_degree: int,
    fallback: bool,
    number: Callable[[int], object],
) -> UniformTable:
    """F(0) .. F(upto) of counting.uniform_terms(direction, value): a seed of
    seed_count terms computed directly, then the recurrence guess_seed fits
    to it, extended by extend_sequence.

    The seed is converted by `number` before the extension, so the extended
    terms have its type: int for library callers, Decimal for the text of
    the `table` command (see extend_sequence).  Terms computed directly stay
    int.  A seed that reaches index upto is the table, and nothing is
    guessed.

    When the guess or the extension fails, fallback=False raises its error.
    Otherwise the seed grows with the next terms of the same iterator, so
    no term is computed twice.  It doubles, by at least one term, up to
    _terms_needed(max_order, max_degree) + GUESS_MARGIN terms (201 at the
    default caps), the size at which every candidate within the caps has
    enough shown terms.  A failure at that size or past it computes the
    rest of the table directly.
    """
    stream = counting.uniform_terms(direction, value)
    terms = list(islice(stream, min(seed_count, upto + 1)))
    largest = _terms_needed(max_order, max_degree) + GUESS_MARGIN
    failures = []
    while len(terms) <= upto:
        try:
            rec = guess_seed(SequenceSlice(0, tuple(terms)), max_order, max_degree)
            seed = SequenceSlice(0, tuple(map(number, terms)))
            return UniformTable(extend_sequence(rec, seed, upto), rec, len(terms), tuple(failures))
        except MultiDerangeError as exc:
            if not fallback:
                raise
            failures.append((len(terms), exc))
        size = upto + 1 if len(terms) >= largest else min(max(2 * len(terms), 1), largest)
        terms.extend(islice(stream, min(size, upto + 1) - len(terms)))
    return UniformTable(SequenceSlice(0, tuple(terms)), None, len(terms), tuple(failures))


# -- serialization ----------------------------------------------------------

def recurrence_to_json(rec: Recurrence) -> str:
    document = {
        "order": rec.order,
        "variable": "n",
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


def format_recurrence(rec: Recurrence) -> str:
    """Human-readable rendering, highest shift first, e.g. 's(n+1) - s(n) = 0'."""
    parts: list[str] = []
    for j in range(rec.order, -1, -1):
        pj = rec.coeff_polys[j]
        if not pj:
            continue
        shift = f"s(n+{j})" if j else "s(n)"
        text, negative = _poly_text(pj)
        sign = "-" if negative else "+"
        if not parts:
            parts.append(f"-{text}{shift}" if negative else f"{text}{shift}")
        else:
            parts.append(f"{sign} {text}{shift}")
    return " ".join(parts) + " = 0" if parts else "0 = 0"


def _poly_text(pj: tuple[int, ...]) -> tuple[str, bool]:
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
            var = "n" if e == 1 else f"n^{e}"
            body = var if abs(c) == 1 else f"{to_decimal(abs(c))}*{var}"
        if not monomials:
            monomials.append(body if c > 0 else f"-{body}")
        else:
            monomials.append(f"+ {body}" if c > 0 else f"- {body}")
    return f"({' '.join(monomials)})*", negative


# -- fitting internals ------------------------------------------------------

def _terms_needed(r: int, d: int) -> int:
    return (r + 1) * (d + 1) + r + GUESS_MARGIN


def _residual(rec: Recurrence, s: SequenceSlice, n: int) -> int:
    """sum over j of p_j(n) * s(n+j): row n of s's system times rec's
    coefficient vector."""
    return sum(
        rec.coefficient(j, n) * s.terms[n - s.offset + j] for j in range(rec.order + 1)
    )


def _screen(residues: SequenceSlice, r: int, d: int) -> int:
    """The least degree of order r that the screen passes, at most d + 1.

    The last columns + GUESS_MARGIN rows of the (r, d) system of the
    residues are reduced mod _SCREEN_PRIME.  Every column left of the first
    free column is a pivot, so each candidate of a lower degree has full
    column rank on these rows, and over all of them.
    """
    system = _system(residues, r, d, _SCREEN_PRIME)
    pivots = _echelon_mod_p(system[-(system.shape[1] + GUESS_MARGIN):], _SCREEN_PRIME)[0]
    free = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
    return free // (r + 1)


def _fit(s: SequenceSlice, r: int, d: int) -> Recurrence | None:
    """The order-r recurrence of the (r, d) system A, or None if it has none.

    Each prime p of _prime_stream reduces A over every row, once, in
    vectorized int64, with the columns in shift-major order: column
    j*(d+1) + e holds n^e * s(n+j), so a solution's last nonzero coordinate
    gives its order and then the degree of its top polynomial.  Rank mod p
    never exceeds the rational rank, so full column rank mod p certifies
    that only the zero vector solves the system.

    Otherwise the free columns mod p are taken in order up to and including
    the first one in the top (order-r) block, or all of them if that block
    has none, and _lift solves for their vectors p-adically.  After each
    lift step one probe coordinate is rationally reconstructed.  Only when
    it gives the same fraction at two consecutive moduli are the vectors
    reconstructed, in order, up to the first that fails; a coordinate with
    no reconstruction becomes the new probe and the lift goes on.  The rule
    only decides when to attempt.

    p is accepted only if every reconstructed vector v_c is zero at every
    pivot past its column c, and so zero past c, and its residual is zero
    at every row of A (the exact check).  Then the v_c are the canonical
    rational basis vectors of their columns.  A v in N(A) whose last
    nonzero coordinate is c makes column c a combination of earlier
    columns, so c is free over Q.  Rank mod p never exceeds the rational
    rank on any leading column block, so up to the last lifted column
    there are no more rational free columns than free columns mod p; the
    lifted columns are all rational free columns, so the two sets agree
    there.  v_c is then 1 at c, 0 at every other rational free column up
    to c and 0 past c, which determines it.  If the last lifted column lies
    in the top block, its vector is the first canonical vector of order r,
    the one returned.  If the top block holds no free column mod p, every
    free column mod p is free over Q, and the rational nullity is at most
    the nullity mod p, so the top block holds no rational free column
    either and None is returned.

    The zero check is needed: the free columns mod p need not contain the
    rational ones.  A rational pivot column can become free mod p, and its
    lifted vector can be a true null vector that is nonzero past its
    column.  Any other outcome, a nonzero past the column or a failed
    exact check (from an unlucky prime, or an attempt made too early),
    moves on to the next prime.  Only finitely many primes are unlucky.

    A prime is also rejected as soon as a lifted vector shows a nonzero
    residual mod p^k on one of the last 4 non-pivot rows, checked after
    steps k = 2, 4, 8, ... (mod p those rows are combinations of the pivot
    rows).  The vector is z mod p^k, z the rational solution of the pivot
    rows with its free values, and p is accepted only if every such z is
    exact, with a zero residual on every row.  Without this check, an
    unlucky p for a candidate with no solution lifts to the height of z.

    The stream holds the primes between 2^29 and 2^30, so a fit never
    reduces mod the screen's prime: terms unlucky for it pass the screen
    wherever their reduction has a relation, and every such fit would lift
    at that prime before rejecting it.
    """
    n_cols = (r + 1) * (d + 1)
    # Column j*(d+1) + e of the fit is column e*(r+1) + j of _system.
    shift_major = [e * (r + 1) + j for j in range(r + 1) for e in range(d + 1)]
    for p in _prime_stream():
        system = _system(s, r, d, p)[:, shift_major]
        pivots, pivot_rows = _echelon_mod_p(system.copy(), p)
        if len(pivots) == n_cols:
            return None  # full rank mod p: certified trivial nullspace
        free = [c for c in range(n_cols) if c not in pivots]
        last = next((i for i, c in enumerate(free) if c >= r * (d + 1)), len(free) - 1)
        free = free[:last + 1]
        rows = set(pivot_rows)
        checked = [i for i in range(len(s.terms) - r) if i not in rows][-4:]
        probe, settled = (0, 0), None
        lift = _lift(s, d, p, system, pivots, pivot_rows, free)
        for step, (vectors, modulus) in enumerate(lift, 1):
            if step > 1 and step & (step - 1) == 0 and any(
                _residual(_as_recurrence(vector, d), s, s.offset + i) % modulus
                for vector in vectors for i in checked
            ):
                break  # p is rejected: some lifted vector is not exact
            value = _rational_reconstruct(vectors[probe[0]][probe[1]], modulus)
            stable = value is not None and value == settled
            settled = value
            if not stable:
                continue
            for i, (c, vector) in enumerate(zip(free, vectors)):
                pairs = _reconstruct_vector(vector, modulus)
                if len(pairs) < n_cols:
                    probe, settled = (i, len(pairs)), None  # lift further
                    break
                rec = _vector_to_recurrence(pairs, d)
                if any(num for num, _ in pairs[c + 1:]) or any(
                    _residual(rec, s, n) for n in range(s.offset, s.end - r)
                ):
                    break  # p is rejected: nonzero past c, or not exact
                if rec.order == r:
                    return rec
            else:
                return None  # exact solutions exist, but none has order r
            if settled is not None:
                break  # p was rejected, not just lifted too little: next prime
    raise RuntimeError("prime stream exhausted")


def _lift(
    s: SequenceSlice, d: int, p: int, system: np.ndarray,
    pivots: tuple[int, ...], pivot_rows: tuple[int, ...], free: list[int],
) -> Iterator[tuple[list[list[int]], int]]:
    """Dixon's p-adic lifting (J. D. Dixon, "Exact solution of linear
    equations using p-adic expansions", Numer. Math. 40, 1982): yields,
    after each step k = 1, 2, ..., the vectors of the free columns mod p^k
    and p^k.

    system is the shift-major system A mod p, and pivots and pivot_rows
    are its pivot columns and pivot rows R.  The pivot block B, R's
    entries in the pivot columns, is invertible mod p; _inverse_mod_p
    takes B^-1 mod p by forward elimination of [B | I] and a
    back-substitution, and the lift negates it once.  The vector of free
    column c is 1 at c, 0 at every other free column, and solves the rows
    R over Q: B z = -A_R e_c.  Each step takes the next base-p digit of z
    from the exact residual, which is then updated and divided by p
    exactly.

    Row n of A times a vector is sum over j of z_j(n) * s(n+j), with z_j the
    vector's shift-j polynomial.  A step's vector holds digits below p, so
    the z_j(n) of every pivot row come from int64 products: each power n^e
    is split once into limbs of w = _limb_width(d) bits, the lower ones in
    [0, 2^w) and the top one signed (so negative n and n past int64 work),
    and one matmul per limb plane takes its products with the step's
    digits.  The limb products are recombined exactly as object arrays and
    multiplied into the rows' terms, r+1 big-by-small products per row,
    with no per-row Python loop.  _residual, the exact check of every
    accepted vector, does not use this arithmetic, so an error in it could
    only reject a prime.
    """
    import numpy as np

    n_cols = system.shape[1]
    r = n_cols // (d + 1) - 1
    inverse = -_inverse_mod_p(system[np.ix_(pivot_rows, pivots)], p) % p
    # reshape keeps the 2-D shapes when there are no pivot rows.
    window = np.array(
        [s.terms[i:i + r + 1] for i in pivot_rows], dtype=object
    ).reshape(len(pivot_rows), r + 1)
    powers = np.array(
        [[(s.offset + i) ** e for e in range(d + 1)] for i in pivot_rows], dtype=object
    ).reshape(len(pivot_rows), d + 1)
    vectors = [[int(col == c) for col in range(n_cols)] for c in free]
    # Column c holds n^e * s(n+j) with c = j*(d+1) + e.
    residuals = [powers[:, c % (d + 1)] * window[:, c // (d + 1)] for c in free]
    width = _limb_width(d)
    bits = max((abs(x).bit_length() for x in powers.flat), default=0)
    # Limbs 0..top: every |n^e| < 2^(width*(top+1)), so the top limb is in
    # [-2^width, 2^width).
    top = max(0, -(-bits // width) - 1)
    mask = (1 << width) - 1
    planes = np.array(
        [(powers >> (width * k)) & mask for k in range(top)] + [powers >> (width * top)],
        dtype=np.int64,
    )
    modulus = 1
    while True:
        for i, vector in enumerate(vectors):
            residue = (residuals[i] % p).astype(np.int64)
            # inverse @ residue by 16-bit halves of the residue: with fewer
            # than 2^15 pivots no int64 sum overflows.
            digits = (inverse @ (residue >> 16) % p * 65536 + inverse @ (residue & 65535)) % p
            step = np.zeros(n_cols, dtype=np.int64)
            step[list(pivots)] = digits
            for col, digit in zip(pivots, digits.tolist()):
                vector[col] += digit * modulus
            products = planes @ step.reshape(r + 1, d + 1).T
            values = products[top].astype(object)
            for k in range(top - 1, -1, -1):
                values = (values << width) + products[k].astype(object)
            residuals[i] = (residuals[i] + (values * window).sum(axis=1)) // p
        modulus *= p
        yield vectors, modulus


def _limb_width(d: int) -> int:
    """The limb width w of _lift's powers n^e, e <= d.  A limb is at most
    2^w in magnitude and a digit is below p < 2^30, so a sum of d+1 of
    their products is below (d+1) * 2^(w+30) < 2^62 in magnitude."""
    return 62 - 30 - (d + 1).bit_length()


def _system(s: SequenceSlice, r: int, d: int, p: int) -> np.ndarray:
    """The (r, d) system of s mod p, one row per shift n, with degree-major
    columns: column e*(r+1) + j holds n^e * s(n+j).

    Entries are in [0, p) with p < 2^31, as _echelon_mod_p requires of its
    input.
    """
    import numpy as np

    index = np.arange(len(s.terms) - r)
    terms_mod = np.array([t % p for t in s.terms], dtype=np.int64)
    shifts = terms_mod[index[:, None] + np.arange(r + 1)]
    # Reduced first: index + s.offset can overflow int64.
    n_values = (index + s.offset % p) % p
    powers = np.empty((len(index), d + 1), dtype=np.int64)
    powers[:, 0] = 1
    for e in range(1, d + 1):
        powers[:, e] = powers[:, e - 1] * n_values % p
    products = powers[:, :, None] * shifts[:, None, :] % p
    return products.reshape(len(index), (d + 1) * (r + 1))


def _echelon_mod_p(m: np.ndarray, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """In-place row echelon form mod p by forward elimination; returns the
    pivot columns and the original indices of the pivot rows.

    Each column's pivot is the first nonzero entry at or below the current
    row; it is scaled to 1 and only the rows below it are eliminated.  The
    pivot columns are those of the reduced row echelon form, the leading
    rank rows are unit upper triangular on them, and every row past the
    rank is zero.  The pivot rows are independent mod p, hence over Q.

    Entries of m are in [0, p) on entry and on return.  In between, the
    trailing block is reduced only every _deferral(p) updates (see there);
    each column is reduced before its pivot search and each pivot row
    before it is scaled, so every pivot, pivot row and zero test is the one
    of elimination that reduces after every update.
    """
    import numpy as np

    n_rows, n_cols = m.shape
    order = np.arange(n_rows)
    interval, pending = _deferral(p), 0
    rank = 0
    pivot_cols: list[int] = []
    for col in range(n_cols):
        column = m[rank:, col]
        column %= p
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        if pivot_row != rank:
            m[[rank, pivot_row]] = m[[pivot_row, rank]]
            order[[rank, pivot_row]] = order[[pivot_row, rank]]
        row = m[rank, col:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        below = m[rank + 1:, col + 1:]
        if pending == interval:
            below %= p
            pending = 0
        below -= np.multiply.outer(m[rank + 1:, col], row[1:])
        pending += 1
        m[rank + 1:, col] = 0
        pivot_cols.append(col)
        rank += 1
        if rank == n_rows:
            break
    return tuple(pivot_cols), tuple(order[:rank].tolist())


def _inverse_mod_p(b: np.ndarray, p: int) -> np.ndarray:
    """B^-1 mod p of a square B invertible mod p.

    _echelon_mod_p brings [B | I] to [U | M], with U = M B unit upper
    triangular.  Back-substitution over U, applied to the right half only,
    turns M into U^-1 M = B^-1; it reduces the rows above row i only every
    _deferral(p) steps, and row i before it is used.
    """
    import numpy as np

    rank = len(b)
    m = np.hstack([b, np.eye(rank, dtype=np.int64)])
    _echelon_mod_p(m, p)
    inverse = m[:, rank:]
    interval, pending = _deferral(p), 0
    for i in range(rank - 1, 0, -1):
        # Row i of U has its unit pivot at column i: clear that column from
        # the rows above.
        if pending == interval:
            inverse[:i] %= p
            pending = 0
        inverse[i] %= p
        inverse[:i] -= np.multiply.outer(m[:i, i], inverse[i])
        pending += 1
    inverse %= p
    return inverse


def _deferral(p: int) -> int:
    """How many updates an int64 entry in [0, p) can take before it must be
    reduced mod p: each update subtracts a product of two residues in
    [0, p), at most (p-1)^2, and the entry stays above -2^63.  512 at the
    screen's prime, 8 at the fit primes."""
    return ((1 << 63) - p) // (p - 1) ** 2


def _reconstruct_vector(combined: list[int], modulus: int) -> list[tuple[int, int]]:
    """Rational reconstructions of the coordinates in order, up to the first
    that has none; the result is shorter than combined exactly then.

    The coordinates of a vector mostly share their denominators, so each is
    first tried against common, the lcm of the denominators found so far.
    Every such denominator is prime to modulus: a pair (num, den) of
    _rational_reconstruct has num = den * value mod modulus, so a factor
    that den shared with modulus would divide num too.  If x = value *
    common mod modulus, in balanced form, and common are both within the
    bound of _rational_reconstruct, then x/common in lowest terms is a
    fraction within the bound equal to value mod modulus; that fraction is
    unique, so it is the pair _rational_reconstruct would return.  Only the
    other coordinates run the extended Euclid.
    """
    bound = isqrt(modulus // 2)
    pairs: list[tuple[int, int]] = []
    common = 1
    for value in combined:
        if common <= bound:
            x = value * common % modulus
            if x > modulus // 2:
                x -= modulus
            if abs(x) <= bound:
                g = gcd(x, common)
                pairs.append((x // g, common // g))
                continue
        pair = _rational_reconstruct(value, modulus)
        if pair is None:
            break
        pairs.append(pair)
        common = lcm(common, pair[1])
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
    """The primes below 2^30 in descending order, the primes of every fit.

    Each is one 30-bit digit of a CPython int, so the fit's big-int
    reductions mod p (the terms in _system, the residuals in _lift) are
    divisions by a single digit, about twice as fast as by the two digits
    of a prime near 2^31.  The screen's prime, below 2^27, is not among
    them.
    """
    for n in range((1 << 30) - 1, 1 << 29, -2):
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


def _vector_to_recurrence(pairs: list[tuple[int, int]], d: int) -> Recurrence:
    """The recurrence of a reconstructed shift-major vector of fractions
    (num, den), with the denominators cleared."""
    common = lcm(*(den for _, den in pairs))
    vector = [num * (common // den) for num, den in pairs]
    return _normalized(_as_recurrence(vector, d).coeff_polys)


def _as_recurrence(vector: list[int], d: int) -> Recurrence:
    """The shift-major vector's coefficient polynomials, as they are: not
    normalized."""
    return Recurrence(tuple(tuple(vector[j:j + d + 1]) for j in range(0, len(vector), d + 1)))


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
