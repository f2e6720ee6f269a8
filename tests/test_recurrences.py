import json
import math
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


class TestGuess:
    def test_constant_sequence(self):
        rec = guess_recurrence(SequenceSlice(0, (1,) * 20), 3, 3)
        assert rec.coeff_polys == ((-1,), (1,))
        assert format_recurrence(rec) == "s(n+1) - s(n) = 0"

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

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData) as info:
            guess_recurrence(SequenceSlice(0, (1, 2, 3)), 5, 5)
        assert info.value.min_terms == 13  # order 1, degree 0 needs the least

    def test_not_found_on_recurrence_free_sequence(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
        with pytest.raises(RecurrenceNotFound):
            guess_recurrence(SequenceSlice(0, primes), 2, 2)

    def test_bad_caps_rejected(self):
        with pytest.raises(ValueError):
            guess_recurrence(SequenceSlice(0, (1,) * 20), 0, 3)

    def test_unlucky_first_prime_with_worse_pivot_shape(self):
        # Mod 2^31 - 1 (the first prime tried) the terms reduce to 2^n, whose
        # (1, 1) system has a larger nullspace than the rational one.
        m = (1 << 31) - 1
        terms = tuple(2**n * (1 + m * n) for n in range(30))
        rec = guess_recurrence(SequenceSlice(0, terms), 2, 2)
        assert json.loads(recurrence_to_json(rec))["coeff_polys"] == [
            ["-4294967296", "-4294967294"], ["1", "2147483647"]
        ]

    @pytest.mark.parametrize("index", [0, 1])
    def test_unlucky_fit_prime_with_worse_pivot_shape(self, index):
        # Mod q the terms reduce to 2^n, whose (1, 1) system has a larger
        # nullspace than the rational one.  As the fit's first prime, q is
        # replaced when the second prime shows a better pivot shape; as its
        # second prime, q is skipped.
        stream = recurrences._prime_stream()
        q = [next(stream) for _ in range(2)][index]
        terms = tuple(2**n * (1 + q * n) for n in range(30))
        rec = guess_recurrence(SequenceSlice(0, terms), 2, 2)
        assert rec.coeff_polys == ((-2 - 2 * q, -2 * q), (1, q))

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

    def test_one_screen_per_order_and_one_fit(self, family_prefixes, monkeypatch):
        # fixed k = 4 at seed 110 is accepted at order 6, degree 7
        reductions, fitted, inside_fit = [], [], []
        rref, fit = recurrences._rref_mod_p, recurrences._fit

        def counting_rref(m, p):
            reductions.append((p, bool(inside_fit)))
            return rref(m, p)

        def counting_fit(s, r, d):
            fitted.append((r, d))
            inside_fit.append(True)
            try:
                return fit(s, r, d)
            finally:
                inside_fit.pop()

        monkeypatch.setattr(recurrences, "_rref_mod_p", counting_rref)
        monkeypatch.setattr(recurrences, "_fit", counting_fit)
        terms = family_prefixes["fixed_k/4"][:110 - GUESS_MARGIN]
        rec = guess_recurrence(
            SequenceSlice(0, tuple(terms)), DEFAULT_MAX_ORDER, DEFAULT_MAX_DEGREE
        )
        first = recurrences._FIRST_PRIME
        assert reductions.count((first, False)) == DEFAULT_MAX_ORDER
        assert (first, True) not in reductions
        assert rec.order == 6
        assert fitted == [(6, 7)]


# Guesser output on a seeded corpus beyond the families (zero-heavy,
# interleaved zeros, zero prefixes, polynomial multiples, periodic sequences
# times n+1, perturbed tails), written by scripts/record_guess_corpus.py
# before the one-layout guesser went in.  Some accepted candidates there
# have a nullspace of dimension 2, where the basis order picks the output.
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
    """The screen decides every candidate of an order from one RREF: the
    RREF of the (r, d) system is the leading column block of the RREF of
    the (r, 3) system, mod the screen's prime and mod a later one."""

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
        for p in (recurrences._FIRST_PRIME, next(recurrences._prime_stream())):
            for r in range(1, 5):
                top, top_pivots = recurrences._reduce(s, r, 3, p)
                for d in range(4):
                    boundary = (r + 1) * (d + 1)
                    block, pivots = recurrences._reduce(s, r, d, p)
                    rank = len(pivots)
                    assert top_pivots[:rank] == pivots
                    assert all(c >= boundary for c in top_pivots[rank:])
                    np.testing.assert_array_equal(top[:rank, :boundary], block[:rank])
                    assert not block[rank:].any()


@given(
    terms=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=14),
    offset=st.integers(min_value=0, max_value=3),
    r=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=0, max_value=2),
    p=st.sampled_from([5, recurrences._FIRST_PRIME]),
)
def test_nullspace_basis_is_canonical(terms, offset, r, d, p):
    # The shift-major system, built here from its definition: column
    # j*(d+1) + e holds n^e * s(n+j).
    rows = [
        [n**e * terms[n - offset + j] % p for j in range(r + 1) for e in range(d + 1)]
        for n in range(offset, offset + len(terms) - r)
    ]
    n_cols = (r + 1) * (d + 1)
    m = np.array(rows, dtype=np.int64).reshape(len(rows), n_cols)
    pivots = recurrences._rref_mod_p(m, p)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = recurrences._nullspace_mod_p(m, pivots, p)
    assert len(basis) == len(free_cols)
    for f, vector in zip(free_cols, basis):
        assert all(sum(a * v for a, v in zip(row, vector)) % p == 0 for row in rows)
        assert vector[f] == 1
        assert not any(vector[f + 1:])
        assert all(vector[c] == 0 for c in free_cols if c != f)


def test_prime_stream_is_the_primes_below_the_first_prime():
    limit = 46341  # the primes up to sqrt(2^31) decide primality below 2^31
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    small = np.flatnonzero(sieve)
    expected, n = [], recurrences._FIRST_PRIME - 1
    while len(expected) < 40:
        if np.all(n % small):
            expected.append(n)
        n -= 1
    stream = recurrences._prime_stream()
    assert [next(stream) for _ in range(40)] == expected


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

    def test_holdout_mismatch_surfaces(self, monkeypatch):
        # feed the guesser a prefix that looks geometric but breaks inside
        # the held-out tail
        from multiderange import counting

        poisoned = [2**i for i in range(39)] + [999]
        monkeypatch.setattr(
            counting, "uniform_fixed_k_prefix", lambda k, count: poisoned[:count]
        )
        with pytest.raises(HoldoutMismatch):
            guess_and_extend_uniform("fixed_k", 9, 40, 100)


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

        doc = json.loads(recurrence_to_json(DERANGEMENT_REC, variable="m"))
        assert doc["order"] == 2
        assert doc["variable"] == "m"
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