import itertools
import json
import math
import random
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiderange import recurrences
from multiderange.counting import classic_derangement, uniform_prefix
from multiderange.errors import (
    HoldoutMismatch,
    InsufficientData,
    LeadingCoefficientZero,
    NonIntegralStep,
    RecurrenceNotFound,
)
from multiderange.recurrences import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ORDER,
    GUESS_MARGIN,
    Recurrence,
    extend_sequence,
    format_recurrence,
    guess_and_extend_uniform,
    guess_recurrence,
    recurrence_from_json,
    recurrence_to_json,
    uniform_table,
    verify_recurrence,
)
from multiderange.sequences import SequenceSlice


def derangement_slice(upto):
    return SequenceSlice(0, tuple(classic_derangement(n) for n in range(upto + 1)))


def franel(k):
    return sum(math.comb(k, j) ** 3 for j in range(k + 1))


# order-2 derangement annihilator, defined directly for use as a fixture
DERANGEMENT_REC = Recurrence(((-1, -1), (-1, -1), (1,)))

# s(n+1) = (n+1) s(n), the factorial recurrence
FACTORIAL_REC = Recurrence(((-1, -1), (1,)))


@pytest.fixture
def guess_trace(monkeypatch):
    """Records the guesser's reductions: "screens" holds (prime, row count,
    pivots) for each reduction outside a fit, and "fits" holds each _fit
    call as a dict with its candidate and "primes", the (prime, pivots) of
    each reduction of its whole system, in order.  A fit reduces its system
    once per prime, so every prime but a fit's last was rejected."""
    screens, fits, current = [], [], []
    echelon, fit = recurrences._echelon_mod_p, recurrences._fit

    def tracing_echelon(m, p):
        pivots, pivot_rows = echelon(m, p)
        if not current:
            screens.append((p, m.shape[0], pivots))
        elif m.shape[0] == current[-1]["rows"]:  # not a pivot block's [B | I]
            current[-1]["primes"].append((p, pivots))
            # A fit that rejects every prime would run the stream forever.
            assert len(current[-1]["primes"]) < 100
        return pivots, pivot_rows

    def tracing_fit(s, r, d):
        fits.append({"candidate": (r, d), "rows": len(s.terms) - r, "primes": []})
        current.append(fits[-1])
        try:
            return fit(s, r, d)
        finally:
            current.pop()

    monkeypatch.setattr(recurrences, "_echelon_mod_p", tracing_echelon)
    monkeypatch.setattr(recurrences, "_fit", tracing_fit)
    return {"screens": screens, "fits": fits}


class TestGuess:
    def test_constant_sequence(self):
        rec = guess_recurrence(SequenceSlice(0, (1,) * 20), 3, 3)
        assert rec.coeff_polys == ((-1,), (1,))
        assert format_recurrence(rec) == "s(n+1) - s(n) = 0"

    def test_zero_sequence(self):
        # Every row is zero: the fit's prime has no pivots, and the unit
        # vectors of its free columns are exact from the first lift step.
        rec = guess_recurrence(SequenceSlice(0, (0,) * 20), 3, 3)
        assert rec.coeff_polys == ((), (1,))

    def test_geometric_sequence(self):
        rec = guess_recurrence(SequenceSlice(0, tuple(2**i for i in range(20))), 3, 3)
        assert rec.coeff_polys == ((-2,), (1,))

    def test_derangements_give_order_two_degree_one(self):
        rec = guess_recurrence(derangement_slice(29), 12, 12)
        assert rec == DERANGEMENT_REC
        assert verify_recurrence(rec, derangement_slice(100)).ok

    def test_factorials(self):
        terms = tuple(math.factorial(n) for n in range(25))
        rec = guess_recurrence(SequenceSlice(0, terms), 4, 4)
        assert rec == FACTORIAL_REC

    def test_deterministic(self):
        s = derangement_slice(35)
        assert guess_recurrence(s, 12, 12) == guess_recurrence(s, 12, 12)

    def test_offset_does_not_matter_for_shift_invariant_rule(self):
        rec = guess_recurrence(SequenceSlice(5, (1,) * 20), 2, 2)
        assert rec.coeff_polys == ((-1,), (1,))

    @pytest.mark.parametrize("offset", [10**30, 2**63 - 10])
    def test_offset_past_int64(self, offset):
        # s(n+1) = (n+1) s(n) from s(offset) = 1: the indices n, or n plus a
        # shift, do not fit in int64, so the system reduces them mod p first.
        terms = [1]
        for n in range(offset, offset + 29):
            terms.append(terms[-1] * (n + 1))
        rec = guess_recurrence(SequenceSlice(offset, tuple(terms)), 12, 12)
        assert rec == FACTORIAL_REC

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData) as info:
            guess_recurrence(SequenceSlice(0, (1, 2, 3)), 5, 5)
        assert info.value.min_terms == 13  # order 1, degree 0 needs the least

    def test_not_found_on_recurrence_free_sequence(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
        with pytest.raises(RecurrenceNotFound) as info:
            guess_recurrence(SequenceSlice(0, primes), 2, 2)
        # 30 terms cover every candidate up to (2, 2), which needs 21
        assert str(info.value) == "no recurrence found with order <= 2 and coefficient degree <= 2"
        with pytest.raises(RecurrenceNotFound) as info:
            guess_recurrence(SequenceSlice(0, primes[:15]), 2, 2)
        # (1, 2), (2, 1) and (2, 2) need 17, 18 and 21 terms
        assert str(info.value) == (
            "no recurrence found with order <= 2 and coefficient degree <= 2; "
            "the scan stopped short of the caps for lack of terms"
        )

    def test_bad_caps_rejected(self):
        with pytest.raises(ValueError):
            guess_recurrence(SequenceSlice(0, (1,) * 20), 0, 3)

    def test_unlucky_first_prime_with_worse_pivot_shape(self, guess_trace, monkeypatch):
        # Mod the screen's prime m the terms reduce to 2^n, whose
        # (1, 1) system has rank 2 where the rational one has rank 3, and
        # whose (1, 0) system has rank 1 where the rational one has full
        # rank, so the screen passes both.  A fit never reduces mod the
        # screen's prime, so these fits start their stream there.  Each
        # lifts the vector of its first free column in the top block,
        # which solves the prime's pivot rows but not the others: the exact
        # check rejects the prime.  The next prime shows (1, 0) full rank
        # and accepts (1, 1).
        m = recurrences._SCREEN_PRIME
        stream = recurrences._prime_stream
        q = next(stream())
        monkeypatch.setattr(recurrences, "_prime_stream", lambda: itertools.chain([m], stream()))
        terms = tuple(2**n * (1 + m * n) for n in range(30))
        rec = guess_recurrence(SequenceSlice(0, terms), 2, 2)
        assert rec.coeff_polys == ((-2 - 2 * m, -2 * m), (1, m))
        first_fit, last_fit = guess_trace["fits"]
        assert first_fit["candidate"] == (1, 0)
        assert first_fit["primes"] == [(m, (0,)), (q, (0, 1))]
        assert last_fit["candidate"] == (1, 1)
        assert last_fit["primes"] == [(m, (0, 1)), (q, (0, 1, 2))]

    @pytest.mark.parametrize("index", [0, 1])
    def test_unlucky_fit_prime_with_worse_pivot_shape(self, index, guess_trace):
        # Mod q the terms reduce to 2^n, whose (1, 1) system has rank 2
        # where the rational one has rank 3.  As the fit's first prime, q is
        # rejected by the exact check and the second prime is accepted; as
        # the second, q is never reached.
        stream = recurrences._prime_stream()
        primes = [next(stream) for _ in range(2)]
        q = primes[index]
        terms = tuple(2**n * (1 + q * n) for n in range(30))
        rec = guess_recurrence(SequenceSlice(0, terms), 2, 2)
        assert rec.coeff_polys == ((-2 - 2 * q, -2 * q), (1, q))
        [fit] = guess_trace["fits"]
        assert fit["candidate"] == (1, 1)
        if index == 0:
            assert fit["primes"] == [(q, (0, 1)), (primes[1], (0, 1, 2))]
        else:
            assert fit["primes"] == [(primes[0], (0, 1, 2))]

    def test_rational_pivot_free_mod_the_fit_prime(self, guess_trace):
        # s(n) = q^(30-n).  Over Q the (1, 0) system [s(n), s(n+1)] has
        # pivot column 0 and free column 1.  Mod q every row but the last,
        # [q, 1] = [0, 1], is zero, so column 1 is the pivot and column 0
        # is free: the free columns mod q do not contain the rational one.
        # The lift at q returns the true null vector (1, -q), which holds
        # on every row but is nonzero past its column, so q is rejected.
        stream = recurrences._prime_stream()
        q, q_next = next(stream), next(stream)
        terms = tuple(q ** (30 - n) for n in range(31))
        rec = guess_recurrence(SequenceSlice(0, terms), 2, 2)
        assert rec.coeff_polys == ((-1,), (q,))
        assert verify_recurrence(Recurrence(((1,), (-q,))), SequenceSlice(0, terms)).ok
        [fit] = guess_trace["fits"]
        assert fit["candidate"] == (1, 0)
        assert fit["primes"] == [(q, (1,)), (q_next, (0,))]

    def test_fits_never_use_the_screens_prime(self, guess_trace, monkeypatch):
        # Mod the screen's prime the terms are the k = 3 family, which has a
        # short recurrence, so the screen passes 32 candidates that have no
        # rational solution.  Each fit shows full rank at its first prime
        # and never lifts.  A fit that started at the screen's prime would
        # lift each of them, so an entered _lift fails the test at once.
        def no_lift(*args):
            raise AssertionError("a fit lifted")

        monkeypatch.setattr(recurrences, "_lift", no_lift)
        m = recurrences._SCREEN_PRIME
        rng = random.Random(1)
        family = uniform_prefix("fixed_k", 3, 80)
        terms = tuple(t + m * rng.randint(1, 999) for t in family)
        with pytest.raises(RecurrenceNotFound):
            guess_recurrence(SequenceSlice(0, terms), 12, 12)
        assert {p for p, _, _ in guess_trace["screens"]} == {m}
        fits = guess_trace["fits"]
        assert len(fits) == 32
        q = next(recurrences._prime_stream())
        for fit in fits:
            r, d = fit["candidate"]
            assert fit["primes"] == [(q, tuple(range((r + 1) * (d + 1))))]

    def test_unlucky_fit_prime_is_rejected_after_two_lift_steps(self, guess_trace, monkeypatch):
        # Mod the screen's prime and mod the first fit prime q the terms are
        # the k = 3 family, so the same 32 candidates reach their fits and
        # each lifts at q, where none has a rational solution.  The lifted
        # vectors fail a non-pivot row mod q^2, which rejects q after two
        # steps; the next prime shows full rank.  Lifting each to the
        # height of its pivot rows' solution took 416 s in all.
        lift, steps = recurrences._lift, []

        def counted_lift(*args):
            steps.append(0)
            for item in lift(*args):
                steps[-1] += 1
                assert steps[-1] <= 8, "a fit lifted past 8 steps"
                yield item

        monkeypatch.setattr(recurrences, "_lift", counted_lift)
        m = recurrences._SCREEN_PRIME
        stream = recurrences._prime_stream()
        q, q_next = next(stream), next(stream)
        rng = random.Random(1)
        family = uniform_prefix("fixed_k", 3, 80)
        terms = tuple(t + m * q * rng.randint(1, 999) for t in family)
        with pytest.raises(RecurrenceNotFound):
            guess_recurrence(SequenceSlice(0, terms), 12, 12)
        fits = guess_trace["fits"]
        assert len(fits) == len(steps) == 32
        assert set(steps) == {2}
        for fit in fits:
            r, d = fit["candidate"]
            [(first, _), last] = fit["primes"]
            assert first == q
            assert last == (q_next, tuple(range((r + 1) * (d + 1))))

    def test_caps_past_the_term_count_are_not_enumerated(self, monkeypatch):
        # No order or degree past the 40 terms is feasible, so caps of 2000
        # scan the same candidates as caps of 40, and still name 2000.
        seen = []
        terms_needed = recurrences._terms_needed

        def counting(r, d):
            seen.append((r, d))
            return terms_needed(r, d)

        monkeypatch.setattr(recurrences, "_terms_needed", counting)
        primes = tuple(n for n in range(2, 174) if all(n % k for k in range(2, n)))
        with pytest.raises(RecurrenceNotFound) as info:
            guess_recurrence(SequenceSlice(0, primes), 2000, 2000)
        assert str(info.value) == (
            "no recurrence found with order <= 2000 and coefficient degree <= 2000"
            "; the scan stopped short of the caps for lack of terms"
        )
        assert len(primes) == 40 and len(seen) <= 40 * 41
        seen.clear()
        with pytest.raises(InsufficientData) as too_short:
            guess_recurrence(SequenceSlice(0, (1, 2, 3)), 2000, 2000)
        assert too_short.value.min_terms == 13
        assert len(seen) <= 3 * 4 + 1

    def test_rank_deficient_mod_first_prime_but_full_rank_over_q(self):
        m = (1 << 31) - 1
        terms = tuple(2**n + m * (n**3 % 7 + n) for n in range(30))
        with pytest.raises(RecurrenceNotFound):
            guess_recurrence(SequenceSlice(0, terms), 2, 2)

    def test_tiny_system_with_tall_coefficients(self):
        terms = [1]
        for j in range(1, 30):
            terms.append(terms[-1] * (10**300 * j + 1))
        s = SequenceSlice(0, tuple(terms))
        rec = guess_recurrence(s, 2, 2)
        assert rec.order == 1
        assert verify_recurrence(rec, s).ok

    def test_lower_order_relation_on_broken_tail_is_not_returned(self):
        # s(n+1) = 2 s(n) holds on every order-2 row but fails at n = 29;
        # the (2, 0) system's only solutions have a zero top block.
        terms = tuple(2**i for i in range(30)) + (999,)
        with pytest.raises(RecurrenceNotFound):
            guess_recurrence(SequenceSlice(0, terms), 2, 0)

    @given(
        family=st.sampled_from(["geometric", "polynomial", "fibonacci"]),
        a=st.integers(min_value=-5, max_value=5),
        b=st.integers(min_value=-5, max_value=5),
        length=st.integers(min_value=16, max_value=34),
        deltas=st.lists(
            st.integers(min_value=-1000, max_value=1000).filter(bool),
            min_size=1, max_size=3,
        ),
        max_order=st.integers(min_value=1, max_value=4),
        max_degree=st.integers(min_value=0, max_value=2),
    )
    def test_returned_recurrence_holds_on_its_input(
        self, family, a, b, length, deltas, max_order, max_degree
    ):
        if family == "geometric":
            terms = [(a or 1) * (b or 2) ** n for n in range(length)]
        elif family == "polynomial":
            terms = [a * n * n + b * n + 1 for n in range(length)]
        else:
            terms = [a, b]
            while len(terms) < length:
                terms.append(terms[-1] + terms[-2])
        for i, delta in enumerate(deltas):
            terms[-1 - i] += delta
        s = SequenceSlice(0, tuple(terms))
        try:
            rec = guess_recurrence(s, max_order, max_degree)
        except (InsufficientData, RecurrenceNotFound):
            return
        assert verify_recurrence(rec, s).ok


# Guesser output for the uniform families, recorded before the per-order
# screen and the stabilised prime count went in: key "direction/value/seed",
# value the recurrence JSON or the name of the exception raised.
FAMILY_GUESSES = json.loads(
    (Path(__file__).parent / "data" / "family_guesses.json").read_text()
)


@pytest.fixture(scope="module")
def family_prefixes():
    """direction/value -> the longest seed prefix any pinned case uses."""
    longest: dict[tuple[str, str], int] = {}
    for key in FAMILY_GUESSES:
        direction, value, seed = key.split("/")
        longest[direction, value] = max(longest.get((direction, value), 0), int(seed))
    return {
        f"{direction}/{value}": uniform_prefix(direction, int(value), count)
        for (direction, value), count in longest.items()
    }


class TestPinnedGuesses:
    """The guess input is the seed minus GUESS_MARGIN held-out terms, as
    `table` guesses, with the default search caps."""

    @pytest.mark.parametrize("key", sorted(FAMILY_GUESSES))
    def test_family_guess_is_unchanged(self, key, family_prefixes):
        direction, value, seed = key.split("/")
        terms = family_prefixes[f"{direction}/{value}"][:int(seed) - GUESS_MARGIN]
        try:
            rec = guess_recurrence(
                SequenceSlice(0, tuple(terms)), DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE
            )
        except (InsufficientData, RecurrenceNotFound) as exc:
            assert type(exc).__name__ == FAMILY_GUESSES[key]
        else:
            assert recurrence_to_json(rec) == FAMILY_GUESSES[key]

    def test_one_screen_per_order_and_one_fit(self, family_prefixes, guess_trace):
        # fixed k = 4 at seed 110 is accepted at order 6, degree 7
        terms = family_prefixes["fixed_k/4"][:110 - GUESS_MARGIN]
        rec = guess_recurrence(
            SequenceSlice(0, tuple(terms)), DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE
        )
        assert rec.order == 6
        first = recurrences._SCREEN_PRIME
        assert [p for p, _, _ in guess_trace["screens"]] == [first] * DEFAULT_MAX_ORDER
        # One fit, which reduces all of its rows once, mod the stream's first
        # prime, and is accepted there.
        [fit] = guess_trace["fits"]
        assert fit["candidate"] == (6, 7)
        assert fit["rows"] == len(terms) - 6
        [(p, pivots)] = fit["primes"]
        assert p == next(recurrences._prime_stream())
        assert len(pivots) < 7 * 8


# Guesser output on a seeded corpus beyond the families (zero-heavy,
# interleaved zeros, zero prefixes, polynomial multiples, periodic sequences
# times n+1, perturbed tails), written by scripts/record_guess_corpus.py
# before the one-layout guesser went in; the terms unlucky for a fit prime
# and for the screen's prime were each recorded before the change they
# test.  The fit-prime cases are unlucky only for the older stream below
# 2^31 - 1 (2147483629, 2147483587), and the screen-prime cases only for
# the older screen's prime 2^31 - 1; the current primes have their own
# unlucky terms in TestGuess.  Some accepted candidates there have a
# nullspace of dimension 2, where the basis order picks the output.
GUESS_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "guess_corpus.json").read_text()
)


class TestGuessCorpus:
    @pytest.mark.parametrize(
        "case", GUESS_CORPUS,
        ids=[f"{i}-{case['family']}" for i, case in enumerate(GUESS_CORPUS)],
    )
    def test_guess_is_unchanged(self, case):
        s = SequenceSlice(case["offset"], tuple(case["terms"]))
        try:
            rec = guess_recurrence(s, case["max_order"], case["max_degree"])
        except (InsufficientData, RecurrenceNotFound) as exc:
            assert type(exc).__name__ == case["expected"]
        else:
            assert recurrence_to_json(rec) == case["expected"]

    def test_corpus_reaches_accepted_cases(self):
        accepted = [case for case in GUESS_CORPUS if case["expected"].startswith("{")]
        assert 100 <= len(GUESS_CORPUS) <= 200
        assert len(accepted) >= 50


class TestOrderScreen:
    """The screen decides every candidate of an order from one reduction:
    the row echelon form of the (r, d) system is the leading column block
    of that of the (r, 3) system, and its pivot rows are the leading pivot
    rows of that system, mod the screen's prime and mod a later one."""

    @given(
        terms=st.one_of(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=30),
            st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=6, max_size=30),
            st.builds(
                lambda a, b, c, length: [a * b**n + c * n * n for n in range(length)],
                st.integers(-5, 5), st.integers(-3, 3), st.integers(-5, 5),
                st.integers(min_value=6, max_value=30),
            ),
        ),
        offset=st.integers(min_value=0, max_value=5),
    )
    def test_block_rref_is_candidate_rref(self, terms, offset):
        s = SequenceSlice(offset, tuple(terms))
        for p in (recurrences._SCREEN_PRIME, next(recurrences._prime_stream())):
            for r in range(1, 5):
                top = recurrences._system(s, r, 3, p)
                top_pivots, top_rows = recurrences._echelon_mod_p(top, p)
                for d in range(4):
                    boundary = (r + 1) * (d + 1)
                    block = recurrences._system(s, r, d, p)
                    pivots, rows = recurrences._echelon_mod_p(block, p)
                    rank = len(pivots)
                    assert top_pivots[:rank] == pivots
                    assert top_rows[:rank] == rows
                    assert all(c >= boundary for c in top_pivots[rank:])
                    np.testing.assert_array_equal(top[:rank, :boundary], block[:rank])
                    assert not block[rank:].any()


@given(
    terms=st.one_of(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=12, max_size=40),
        st.builds(
            lambda a, b, c, length: [a * b**n + c * n * n for n in range(length)],
            st.integers(-5, 5), st.integers(-3, 3), st.integers(-5, 5),
            st.integers(min_value=12, max_value=40),
        ),
        # A relation mod the screen's prime that the terms do not have.
        st.builds(
            lambda b, noise: [b**n + recurrences._SCREEN_PRIME * g for n, g in enumerate(noise)],
            st.integers(-3, 3),
            st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=40),
        ),
    ),
    offset=st.integers(min_value=0, max_value=5),
    max_order=st.integers(min_value=1, max_value=4),
    max_degree=st.integers(min_value=0, max_value=3),
)
def test_screen_rejects_only_candidates_of_full_rank(terms, offset, max_order, max_degree):
    # With every fit failing, the scan reaches every feasible candidate, and
    # each one it does not fit must have full column rank mod the screen's
    # prime over every row of its own (r, d) system.
    fitted = []

    def failing_fit(s, r, d):
        fitted.append((r, d))

    s = SequenceSlice(offset, tuple(terms))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recurrences, "_fit", failing_fit)
        with pytest.raises((InsufficientData, RecurrenceNotFound)):
            guess_recurrence(s, max_order, max_degree)
    for r in range(1, max_order + 1):
        for d in range(max_degree + 1):
            if len(terms) < recurrences._terms_needed(r, d) or (r, d) in fitted:
                continue
            rows = [
                [n**e * s.term(n + j) for e in range(d + 1) for j in range(r + 1)]
                for n in range(offset, s.end - r)
            ]
            n_cols = (r + 1) * (d + 1)
            assert len(_reference_pivots(rows, n_cols, recurrences._SCREEN_PRIME)) == n_cols


def _reference_pivots(rows, n_cols, p):
    """The pivot columns of the RREF of rows mod p, by textbook Gauss-Jordan
    on lists."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inverse % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(x - row[col] * y) % p for x, y in zip(row, rows[rank])]
        pivots.append(col)
    return tuple(pivots)


def _product_rows(left, right):
    return [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)] for row in left]


def _small_systems(n_cols):
    """Rows of n_cols small entries, or a product through 2 columns, whose
    rank is at most 2."""
    return st.one_of(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols),
            min_size=1, max_size=9,
        ),
        st.builds(
            _product_rows,
            st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=1, max_size=9),
            st.lists(
                st.lists(st.integers(-10**6, 10**6), min_size=n_cols, max_size=n_cols),
                min_size=2, max_size=2,
            ),
        ),
    )


@st.composite
def _invertible_mod(draw, p):
    """A random square matrix invertible mod p, sizes 0-12, as lists: a
    row permutation of L D U with L and U unit lower and upper triangular
    and D diagonal and nonzero mod p."""
    n = draw(st.integers(min_value=0, max_value=12))
    entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    lower = [[draw(entry) if j < i else int(j == i) for j in range(n)] for i in range(n)]
    upper = [[draw(entry) if j > i else int(j == i) for j in range(n)] for i in range(n)]
    diagonal = [draw(unit) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    product = _product_rows(lower, [[x * diagonal[i] for x in row] for i, row in enumerate(upper)])
    return [[x % p for x in product[i]] for i in order]


def _assert_inverse_mod(b, p):
    inverse = recurrences._inverse_mod_p(np.array(b, dtype=np.int64).reshape(len(b), len(b)), p)
    assert inverse.shape == (len(b), len(b))
    assert ((0 <= inverse) & (inverse < p)).all()
    # Python ints, as each row of B times the rows of B^-1 (zeros skipped,
    # so a sparse B is cheap): int64 sums of such products overflow.
    rows = inverse.tolist()
    for i, row in enumerate(b):
        product = [0] * len(b)
        for a, other in zip(row, rows):
            if a:
                product = [x + a * y for x, y in zip(product, other)]
        assert [x % p for x in product] == [int(i == j) for j in range(len(b))]


@given(data=st.data(), p=st.sampled_from([5, recurrences._SCREEN_PRIME]))
def test_inverse_mod_p(data, p):
    _assert_inverse_mod(data.draw(_invertible_mod(p)), p)


def test_inverse_of_the_k6_pivot_block():
    # The pivot block of the accepted (10, 9) fit of the 190-term k = 6 guess.
    s, r, d = SequenceSlice(0, tuple(uniform_prefix("fixed_k", 6, 190))), 10, 9
    p = next(recurrences._prime_stream())
    order = [e * (r + 1) + j for j in range(r + 1) for e in range(d + 1)]
    system = recurrences._system(s, r, d, p)[:, order]
    pivots, rows = recurrences._echelon_mod_p(system.copy(), p)
    assert len(pivots) == 109
    _assert_inverse_mod(system[np.ix_(rows, pivots)].tolist(), p)


@given(
    rows=st.integers(min_value=1, max_value=7).flatmap(_small_systems),
    p=st.sampled_from([5, recurrences._SCREEN_PRIME]),
)
def test_echelon_pivots_and_pivot_rows(rows, p):
    m = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    pivots, pivot_rows = recurrences._echelon_mod_p(m, p)
    n_cols = m.shape[1]
    assert pivots == _reference_pivots(rows, n_cols, p)
    # The pivot rows have full rank mod p, and the same pivot columns.
    assert len(pivot_rows) == len(pivots)
    assert _reference_pivots([rows[i] for i in pivot_rows], n_cols, p) == pivots
    # Row echelon form: unit pivots, zeros left of and below each pivot.
    for i, col in enumerate(pivots):
        assert m[i, col] == 1
        assert not m[i, :col].any()
        assert not m[i + 1:, col].any()
    assert not m[len(pivots):].any()


def test_lifted_vectors_solve_the_pivot_rows():
    # Order 3, degree 2 over the derangement numbers: the order-2
    # recurrence and its multiples leave several free columns to lift.
    s, r, d = derangement_slice(40), 3, 2
    p = next(recurrences._prime_stream())
    order = [e * (r + 1) + j for j in range(r + 1) for e in range(d + 1)]
    system = recurrences._system(s, r, d, p).take(order, axis=1)
    pivots, rows = recurrences._echelon_mod_p(system.copy(), p)
    free = [c for c in range(len(order)) if c not in pivots]
    assert len(free) > 1
    lift = recurrences._lift(s, d, p, system, pivots, rows, free)
    for k, (vectors, modulus) in zip(range(1, 4), lift):
        assert modulus == p**k
        for c, vector in zip(free, vectors):
            assert [vector[f] for f in free] == [int(f == c) for f in free]
            rec = recurrences._as_recurrence(vector, d)
            assert all(recurrences._residual(rec, s, i) % modulus == 0 for i in rows)


def _horner_lift(s, d, p, system, pivots, pivot_rows, free):
    """_lift with the exact residual update taken row by row, in Python
    ints: each pivot row evaluates the step's r+1 coefficient polynomials
    at n by Horner (Recurrence.coefficient, through _residual) and
    multiplies them into its terms."""
    n_cols = system.shape[1]
    b = system[np.ix_(pivot_rows, pivots)]
    inverse = (-recurrences._inverse_mod_p(b, p) % p).tolist()
    shifts = [s.offset + i for i in pivot_rows]
    vectors = [[int(col == c) for col in range(n_cols)] for c in free]
    residuals = [
        [recurrences._residual(recurrences._as_recurrence(v, d), s, n) for n in shifts]
        for v in vectors
    ]
    modulus = 1
    while True:
        for vector, residual in zip(vectors, residuals):
            residue = [x % p for x in residual]
            step = [0] * n_cols
            for col, row in zip(pivots, inverse):
                step[col] = sum(a * x for a, x in zip(row, residue)) % p
                vector[col] += step[col] * modulus
            rec = recurrences._as_recurrence(step, d)
            residual[:] = [
                (x + recurrences._residual(rec, s, n)) // p for x, n in zip(residual, shifts)
            ]
        modulus *= p
        yield vectors, modulus


@pytest.mark.parametrize("offset", [0, -40, (1 << 63) - 10, 10**30])
@pytest.mark.parametrize("d", [2, 9, 15])
@pytest.mark.parametrize("kind", ["random", "no pivots"])
def test_lift_steps_match_per_row_horner(offset, d, kind):
    # Random terms with two rows fewer than columns leave two columns free;
    # terms that are multiples of p leave every column free and no pivot
    # row.  Degree 15 gives d+1 = 16 and the narrowest limbs of the three;
    # offsets past int64 give many limbs, and a negative offset negative
    # powers.
    r, p = 2, next(recurrences._prime_stream())
    n_cols = (r + 1) * (d + 1)
    rng = random.Random(d * 7 + len(str(offset)))
    terms = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(n_cols - 2 + r)]
    if kind == "no pivots":
        terms = [p * t for t in terms]  # every entry is zero mod p
    s = SequenceSlice(offset, tuple(terms))
    order = [e * (r + 1) + j for j in range(r + 1) for e in range(d + 1)]
    system = recurrences._system(s, r, d, p)[:, order]
    pivots, rows = recurrences._echelon_mod_p(system.copy(), p)
    assert len(pivots) == (0 if kind == "no pivots" else n_cols - 2)
    free = [c for c in range(n_cols) if c not in pivots]
    lifts = recurrences._lift(s, d, p, system, pivots, rows, free)
    oracle = _horner_lift(s, d, p, system, pivots, rows, free)
    for _, step, expected in zip(range(4), lifts, oracle):
        assert step == expected


def test_limb_products_stay_within_int64():
    # At the largest fit prime every digit is p - 1, and every limb is at
    # an extreme: 2^w - 1 (the mask, and the largest top limb) or -2^w (the
    # most negative top limb).  Python ints give the exact sums.
    p = next(recurrences._prime_stream())
    sizes = set(range(1, 257)) | {(1 << k) + i for k in range(9, 17) for i in (-1, 0)}
    for size in sorted(sizes):
        width = recurrences._limb_width(size - 1)
        extremes = [(1 << width) - 1, -(1 << width)]
        plane = np.array([[x] * size for x in extremes], dtype=np.int64)
        step = np.full(2 * size, p - 1, dtype=np.int64)
        products = plane @ step.reshape(2, size).T
        assert products.tolist() == [[x * (p - 1) * size] * 2 for x in extremes]


def test_prime_stream_is_the_primes_below_2_to_the_30():
    # Below 2^30 a prime is one digit of a CPython int, so the fit's big-int
    # reductions mod it divide by a single digit.
    limit = 32768  # the primes up to sqrt(2^30) decide primality below 2^30
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    small = np.flatnonzero(sieve)
    expected, n = [], (1 << 30) - 1
    while len(expected) < 40:
        if np.all(n % small):
            expected.append(n)
        n -= 1
    stream = recurrences._prime_stream()
    primes = [next(stream) for _ in range(40)]
    assert primes == expected
    # The stream descends, so no later prime is larger than its first.
    assert all(q < 1 << 30 for q in primes)


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_first_64_fit_primes_by_trial_division():
    expected = [n for n in range((1 << 30) - 1, 1073740462, -1) if _is_prime_by_trial_division(n)]
    assert len(expected) == 64
    assert expected[0] == 1073741789 and expected[-1] == 1073740463
    primes = list(itertools.islice(recurrences._prime_stream(), 64))
    assert primes == expected
    assert recurrences._SCREEN_PRIME not in primes
    # The screen's prime is the largest prime below 2^27.
    screen = recurrences._SCREEN_PRIME
    assert _is_prime_by_trial_division(screen)
    assert not any(map(_is_prime_by_trial_division, range(screen + 1, 1 << 27)))


@pytest.mark.parametrize(
    "n",
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
     341550071728321, 3825123056546413051, 561, 1, 0],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    # The first eight are the smallest strong pseudoprimes to the first
    # 1, 2, ..., 9 prime bases (2, then 2 and 3, ..., up to 23); 561 is the
    # smallest Carmichael number; 1 and 0 are below the first prime.
    assert not recurrences._is_prime(n)


def _reference_echelon(rows, p):
    """_echelon_mod_p's forward elimination on Python ints, reduced after
    every update: the pivot columns, the pivot rows' original indices and
    the final rows."""
    rows = [[x % p for x in row] for row in rows]
    order = list(range(len(rows)))
    pivots = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        inverse = pow(rows[rank][col], -1, p)
        pivot_row = rows[rank] = [x * inverse % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if factor := rows[i][col]:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], pivot_row)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return tuple(pivots), tuple(order[:len(pivots)]), rows


def _deferral_worst_case(p, n_pivots, n_rows, n_cols):
    """Rows whose first n_pivots columns are eliminated without a swap,
    each update subtracting (p-1)^2 from every entry of the trailing block.

    Row i < n_pivots is 1 at column i, 0 in the other leading columns and
    p - 1 past them.  Every later row is p - 1 in the leading columns, which
    never change, so every update there is (p-1) * (p-1); past them its
    entries cycle through p - 1, 0, 1, 2 and p - 2, so that the trailing
    block has rank 5 and a wrong entry shows in its pivot rows."""
    cycle = (p - 1, 0, 1, 2, p - 2)
    rows = [
        [int(j == i) for j in range(n_pivots)] + [p - 1] * (n_cols - n_pivots)
        for i in range(n_pivots)
    ]
    rows += [
        [p - 1] * n_pivots + [cycle[(i + 2 * j) % 5] for j in range(n_cols - n_pivots)]
        for i in range(n_rows - n_pivots)
    ]
    return rows


@pytest.mark.parametrize("p", [recurrences._SCREEN_PRIME, next(recurrences._prime_stream())])
def test_deferred_reduction_stays_within_int64(p):
    # size pivots run past one deferral round (512 updates at the screen's
    # prime, several rounds of 8 at the fit primes), and one update more in
    # a round would take any entry in [0, p) below -2^63 on the worst case.
    interval = recurrences._deferral(p)
    size = max(72, interval + 8)
    assert (interval + 1) * (p - 1) ** 2 >= 2**63 + p
    rng = random.Random(p)
    values = (0, 1, 2, p - 2, p - 1)
    cases = [
        _deferral_worst_case(p, size, size + 8, size + 24),
        [[rng.choice(values) for _ in range(64)] for _ in range(60)],
        [[rng.choice(values) for _ in range(48)] for _ in range(70)],
    ]
    for rows in cases:
        m = np.array(rows, dtype=np.int64)
        pivots, pivot_rows = recurrences._echelon_mod_p(m, p)
        assert (pivots, pivot_rows, m.tolist()) == _reference_echelon(rows, p)
    # Every entry p - 1 but a unit diagonal: 2I - J mod p, invertible.
    n = 72
    _assert_inverse_mod([[1 if i == j else p - 1 for j in range(n)] for i in range(n)], p)
    # Unit upper triangular, so the elimination leaves [B | I] as it is:
    # row 0 is p - 1 past its pivot, and every row i between 0 and n - 1 is
    # 1 at column n - 1, which makes row i of B^-1 p - 1 there.  Each
    # back-substitution step then subtracts (p-1)^2 from entry (0, n - 1).
    n = size
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    b[0][1:] = [p - 1] * (n - 1)
    for i in range(1, n - 1):
        b[i][n - 1] = 1
    _assert_inverse_mod(b, p)


@st.composite
def _vectors_mod_prime_powers(draw):
    """(coordinates, p^k) for k in 1..40.  A coordinate is a fraction over
    one shared denominator (S), over its own denominator prime to p (C),
    or over the lcm of the denominators so far with a numerator up to twice
    the reconstruction bound (L); a residue v with v * (p den) = p num but
    v != num/den, a denominator divisible by p (D); or any residue (R)."""
    p = draw(st.sampled_from([5, next(recurrences._prime_stream())]))
    modulus = p ** draw(st.integers(min_value=1, max_value=40))
    bound = math.isqrt(modulus // 2)
    denominator = st.integers(1, bound).filter(lambda den: den % p)
    shared, common = draw(denominator), 1
    coordinates = []
    for kind in draw(st.lists(st.sampled_from("SCLDR"), max_size=12)):
        if kind == "R":
            coordinates.append(draw(st.integers(0, modulus - 1)))
            continue
        if kind == "S":
            den = shared
        elif kind == "L":
            den = common
        else:
            den = draw(denominator)
        limit = 2 * bound if kind == "L" else bound
        value = draw(st.integers(-limit, limit)) * pow(den, -1, modulus)
        if kind == "D":
            value += draw(st.integers(1, p - 1)) * (modulus // p)
        coordinates.append(value % modulus)
        common = math.lcm(common, den)
    return coordinates, modulus


@given(_vectors_mod_prime_powers())
def test_reconstruct_vector_is_coordinatewise(case):
    coordinates, modulus = case
    expected = []
    for value in coordinates:
        pair = recurrences._rational_reconstruct(value, modulus)
        if pair is None:
            break
        expected.append(pair)
    assert recurrences._reconstruct_vector(coordinates, modulus) == expected


class TestVerify:
    def test_derangement_recurrence_holds_to_100(self):
        report = verify_recurrence(DERANGEMENT_REC, derangement_slice(100))
        assert report.ok
        assert report.checked == 99

    def test_fails_on_franel(self):
        terms = tuple(franel(k) for k in range(30))
        report = verify_recurrence(DERANGEMENT_REC, SequenceSlice(0, terms))
        assert not report.ok
        assert report.failures

    def test_minimal_window_single_check(self):
        report = verify_recurrence(DERANGEMENT_REC, SequenceSlice(0, (1, 0, 1)))
        assert report.checked == 1
        assert report.ok

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(DERANGEMENT_REC, SequenceSlice(0, (1, 0)))


class TestExtend:
    """Every case runs on int seeds here and on Decimal seeds in
    TestExtendDecimal; new terms must have the seed's type."""

    term = int

    def seed(self, *values):
        return SequenceSlice(0, tuple(self.term(v) for v in values))

    def assert_terms(self, out, expected):
        assert out.offset == 0
        assert all(type(t) is self.term for t in out.terms)
        assert [str(t) for t in out.terms] == [str(v) for v in expected]

    def test_factorials(self):
        out = extend_sequence(FACTORIAL_REC, self.seed(1), 5)
        self.assert_terms(out, [1, 1, 2, 6, 24, 120])

    def test_derangements_to_ten(self):
        # independent oracle: iterate the inhomogeneous first-order rule
        expected = [1]
        for n in range(10):
            expected.append((n + 1) * expected[n] + (-1) ** (n + 1))
        out = extend_sequence(DERANGEMENT_REC, self.seed(1, 0), 10)
        self.assert_terms(out, expected)
        assert out.terms[-1] == 1334961

    def test_no_new_terms_needed(self):
        out = extend_sequence(FACTORIAL_REC, self.seed(1, 1, 2), 2)
        self.assert_terms(out, [1, 1, 2])

    def test_zero_quotient_is_unsigned(self):
        # s(n) - s(n+1) = 0 divides by -1: an exact Decimal zero quotient
        # would carry a minus sign and print as -0
        out = extend_sequence(Recurrence(((1,), (-1,))), self.seed(0), 3)
        self.assert_terms(out, [0, 0, 0, 0])

    def test_order_zero_keeps_seed_type(self):
        # no term enters an order-0 step, so the sum starts from the seed's zero
        out = extend_sequence(Recurrence(((1,),)), self.seed(5), 3)
        self.assert_terms(out, [5, 0, 0, 0])

    def test_leading_zero_singularity(self):
        # (n-5) s(n+1) - 2 (n-5) s(n) = 0: doubling, singular at n = 5
        rec = Recurrence(((10, -2), (-5, 1)))
        with pytest.raises(LeadingCoefficientZero) as info:
            extend_sequence(rec, self.seed(1), 10)
        assert info.value.index == 5

    def test_non_integral_step(self):
        # 2 s(n+1) - s(n) = 0 forces halving
        rec = Recurrence(((-1,), (2,)))
        with pytest.raises(NonIntegralStep):
            extend_sequence(rec, self.seed(1), 3)

    def test_too_few_initial_terms(self):
        with pytest.raises(ValueError):
            extend_sequence(DERANGEMENT_REC, self.seed(1), 5)

    def test_extension_verifies(self):
        out = extend_sequence(DERANGEMENT_REC, self.seed(1, 0), 60)
        assert verify_recurrence(DERANGEMENT_REC, SequenceSlice(0, tuple(map(int, out.terms)))).ok


class TestExtendDecimal(TestExtend):
    term = Decimal


class TestGuessAndExtend:
    def test_fixed_k_one_matches_classic(self):
        ext, rec = guess_and_extend_uniform("fixed_k", 1, 40, 500)
        for n in (0, 1, 100, 250, 500):
            assert ext.term(n) == classic_derangement(n)

    def test_fixed_n_three_matches_franel_sums(self):
        ext, rec = guess_and_extend_uniform("fixed_n", 3, 40, 500)
        for k in (0, 1, 2, 50, 200, 500):
            assert ext.term(k) == franel(k)

    def test_fixed_n_two_is_all_ones(self):
        ext, rec = guess_and_extend_uniform("fixed_n", 2, 25, 80)
        assert set(ext.terms) == {1}
        assert rec.coeff_polys == ((-1,), (1,))

    def test_returned_recurrence_verifies_on_everything(self):
        ext, rec = guess_and_extend_uniform("fixed_k", 2, 40, 120)
        # Decimal terms would be checked in the 28-digit default context
        assert all(type(t) is int for t in ext.terms)
        assert verify_recurrence(rec, ext).ok

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            guess_and_extend_uniform("sideways", 2, 40, 100)

    def test_upto_inside_seed_rejected(self):
        with pytest.raises(ValueError):
            guess_and_extend_uniform("fixed_k", 1, 40, 10)

    def test_short_seed_counts_seed_terms(self):
        # 6 shown terms; order 1, degree 0 needs 13 shown, so 23 in the seed
        with pytest.raises(InsufficientData) as info:
            guess_and_extend_uniform("fixed_k", 2, 16, 30)
        assert info.value.min_terms == 23
        assert str(info.value) == "need at least 23 terms to attempt a fit, got 16"

    def test_holdout_mismatch_surfaces(self, monkeypatch):
        # feed the guesser a prefix that looks geometric but breaks inside
        # the held-out tail
        from multiderange import counting

        poisoned = [2**i for i in range(39)] + [999]
        monkeypatch.setattr(counting, "uniform_terms", lambda direction, value: iter(poisoned))
        with pytest.raises(HoldoutMismatch):
            guess_and_extend_uniform("fixed_k", 9, 40, 100)


class TestUniformTable:
    @pytest.mark.parametrize("direction, value, seed_count, upto", [
        ("fixed_k", 1, 40, 500),
        ("fixed_n", 3, 40, 500),
        ("fixed_n", 2, 25, 80),
        ("fixed_k", 2, 40, 120),
    ])
    def test_int_table_is_guess_and_extend(self, direction, value, seed_count, upto):
        table = uniform_table(
            direction, value, upto, seed_count, max_order=DEFAULT_MAX_ORDER,
            max_degree=DEFAULT_MAX_DEGREE, fallback=False, number=int,
        )
        ext, rec = guess_and_extend_uniform(direction, value, seed_count, upto)
        assert table.terms == ext
        assert all(type(t) is int for t in table.terms.terms)
        assert table.recurrence == rec
        assert (table.seed_length, table.failures) == (seed_count, ())

    def test_seed_doubles_to_the_caps_then_the_rest_is_direct(self):
        # order 2 cannot be fitted at order 1; every (1, <=1) candidate
        # is feasible from _terms_needed(1, 1) + GUESS_MARGIN = 25 terms
        table = uniform_table(
            "fixed_k", 1, 60, 2, max_order=1, max_degree=1, fallback=True, number=int,
        )
        assert [length for length, _ in table.failures] == [2, 4, 8, 16, 25]
        assert isinstance(table.failures[0][1], InsufficientData)
        assert str(table.failures[0][1]) == "need at least 23 terms to attempt a fit, got 2"
        assert isinstance(table.failures[-1][1], RecurrenceNotFound)
        assert table.recurrence is None
        assert table.seed_length == 61
        assert table.terms.terms == tuple(classic_derangement(n) for n in range(61))


def _seed_check_agrees_with_full_check(seed):
    """guess_seed returns the guess exactly when the check of every row of
    the seed passes, and otherwise fails at that check's first failure."""
    shown = SequenceSlice(seed.offset, seed.terms[:-GUESS_MARGIN])
    rec = guess_recurrence(shown, DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE)
    full = verify_recurrence(rec, seed)
    if full.ok:
        assert recurrences.guess_seed(seed, DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE) == rec
    else:
        with pytest.raises(HoldoutMismatch) as info:
            recurrences.guess_seed(seed, DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE)
        assert info.value.index == full.failures[0]


class TestHeldOutCheck:
    @pytest.mark.parametrize("k, count, offset", [(2, 40, 0), (2, 40, 7), (4, 110, 0)])
    def test_only_rows_reaching_a_held_out_term_are_checked(
        self, monkeypatch, k, count, offset
    ):
        seed = SequenceSlice(offset, tuple(uniform_prefix("fixed_k", k, count)))
        rows = []
        real_residual, real_guess = recurrences._residual, recurrences.guess_recurrence

        def residual(rec, s, n):
            rows.append(n)
            return real_residual(rec, s, n)

        def guess(*args):
            rec = real_guess(*args)
            rows.clear()  # the fit's own exact checks are not the held-out check
            return rec

        monkeypatch.setattr(recurrences, "_residual", residual)
        monkeypatch.setattr(recurrences, "guess_recurrence", guess)
        rec = recurrences.guess_seed(seed, DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE)
        shown_end = seed.end - GUESS_MARGIN
        # Row n reads s(n), ..., s(n + order): each row whose window reaches
        # past the shown terms, and no other.
        assert rows == list(range(shown_end - rec.order, seed.end - rec.order))

    def test_mismatch_names_the_row_not_a_held_out_index(self):
        # the held-out terms are 40..49; row 39 reads s(39) and s(40)
        terms = [2**n for n in range(50)]
        terms[40] += 1
        with pytest.raises(HoldoutMismatch) as info:
            recurrences.guess_seed(
                SequenceSlice(0, tuple(terms)), DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE
            )
        assert info.value.index == 39
        assert str(info.value) == (
            "guessed recurrence fails at n=39, on a row that reaches a held-out term"
        )

    def test_poisoned_seed_fails_where_the_full_check_does(self):
        _seed_check_agrees_with_full_check(
            SequenceSlice(0, tuple([2**i for i in range(39)] + [999]))
        )

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=GUESS_MARGIN - 1),
        st.sampled_from([-1, 1]),
    )
    def test_changed_held_out_term_fails_where_the_full_check_does(self, k, held, delta):
        terms = uniform_prefix("fixed_k", k, 60)
        terms[len(terms) - GUESS_MARGIN + held] += delta
        _seed_check_agrees_with_full_check(SequenceSlice(0, tuple(terms)))


class TestSerialization:
    def test_round_trip(self):
        for rec in (DERANGEMENT_REC, FACTORIAL_REC):
            assert recurrence_from_json(recurrence_to_json(rec)) == rec

    def test_round_trip_survives_guess(self):
        rec = guess_recurrence(derangement_slice(29), 12, 12)
        again = recurrence_from_json(recurrence_to_json(rec))
        assert again == rec

    def test_document_fields(self):
        import json

        doc = json.loads(recurrence_to_json(DERANGEMENT_REC))
        assert doc["order"] == 2
        assert doc["variable"] == "n"
        assert doc["coeff_polys"] == [["-1", "-1"], ["-1", "-1"], ["1"]]

    def test_inconsistent_document_rejected(self):
        with pytest.raises(ValueError):
            recurrence_from_json('{"order": 3, "variable": "n", "coeff_polys": [["1"]]}')

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            recurrence_from_json('{"order": -1, "coeff_polys": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"order": 1, "coeff_polys": ["12", ["1"]]}',
            '{"order": 1, "coeff_polys": [[12], ["1"]]}',
            '{"order": 1, "coeff_polys": "12"}',
            '{"coeff_polys": [["1"], ["1"]]}',
            '{"order": 1}',
            '[["1"], ["1"]]',
            '{"order": "1", "coeff_polys": [["1"], ["1"]]}',
            '{"order": true, "coeff_polys": [["-1"], ["1"]]}',
        ],
        ids=[
            "string-poly", "number-coefficient", "string-polys", "missing-order",
            "missing-polys", "array-document", "string-order", "bool-order",
        ],
    )
    def test_malformed_document_rejected(self, text):
        with pytest.raises(ValueError):
            recurrence_from_json(text)

    @pytest.mark.parametrize("top", ["[]", '["0"]', '["0", "0"]'])
    def test_zero_leading_polynomial_rejected(self, top):
        with pytest.raises(ValueError):
            recurrence_from_json(f'{{"order": 1, "coeff_polys": [["1"], {top}]}}')

    @pytest.mark.parametrize(
        "polys",
        ['[["-2", "0"], ["2"]]', '[["3"], ["-3", "0", "0"]]', '[["-1"], ["1"]]'],
    )
    def test_loaded_document_is_normalized(self, polys):
        rec = recurrence_from_json(f'{{"order": 1, "coeff_polys": {polys}}}')
        assert rec == Recurrence(((-1,), (1,)))
        assert format_recurrence(rec) == "s(n+1) - s(n) = 0"

    def test_rendering(self):
        assert (
            format_recurrence(DERANGEMENT_REC)
            == "s(n+2) - (n + 1)*s(n+1) - (n + 1)*s(n) = 0"
        )
        assert format_recurrence(FACTORIAL_REC) == "s(n+1) - (n + 1)*s(n) = 0"
        # a zero polynomial, and a zero coefficient inside one, are left out
        assert format_recurrence(Recurrence(((-1,), (), (1,)))) == "s(n+2) - s(n) = 0"
        assert (
            format_recurrence(Recurrence(((-1, 0, -1), (1,))))
            == "s(n+1) - (n^2 + 1)*s(n) = 0"
        )

    def test_rendering_under_default_digit_limit(self, default_digit_limit, limit_free_text):
        big = 10**5000
        text = limit_free_text(big)
        assert format_recurrence(Recurrence(((-big,), (1,)))) == f"s(n+1) - {text}*s(n) = 0"
        assert (
            format_recurrence(Recurrence(((big, -1, big), (1,))))
            == f"s(n+1) + ({text}*n^2 - n + {text})*s(n) = 0"
        )


class TestNormalization:
    def test_content_is_reduced_and_sign_fixed(self):
        doubled = SequenceSlice(0, tuple(3 * 2**i for i in range(20)))
        rec = guess_recurrence(doubled, 2, 2)
        assert rec.coeff_polys == ((-2,), (1,))

    def test_coefficient_evaluation(self):
        assert DERANGEMENT_REC.coefficient(1, 10) == -11
        assert DERANGEMENT_REC.coefficient(2, 10) == 1
        assert DERANGEMENT_REC.order == 2