import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiderange.counting import classic_derangement
from multiderange.errors import (
    HoldoutMismatch,
    InsufficientData,
    LeadingCoefficientZero,
    NonIntegralStep,
    RecurrenceNotFound,
)
from multiderange.recurrences import (
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
    def test_factorials(self):
        out = extend_sequence(FACTORIAL_REC, SequenceSlice(0, (1,)), 5)
        assert out == SequenceSlice(0, (1, 1, 2, 6, 24, 120))

    def test_derangements_to_ten(self):
        # independent oracle: iterate the inhomogeneous first-order rule
        expected = [1]
        for n in range(10):
            expected.append((n + 1) * expected[n] + (-1) ** (n + 1))
        out = extend_sequence(DERANGEMENT_REC, SequenceSlice(0, (1, 0)), 10)
        assert list(out.terms) == expected
        assert out.terms[-1] == 1334961

    def test_no_new_terms_needed(self):
        out = extend_sequence(FACTORIAL_REC, SequenceSlice(0, (1, 1, 2)), 2)
        assert out == SequenceSlice(0, (1, 1, 2))

    def test_leading_zero_singularity(self):
        # (n-5) s(n+1) - 2 (n-5) s(n) = 0: doubling, singular at n = 5
        rec = Recurrence(((10, -2), (-5, 1)))
        with pytest.raises(LeadingCoefficientZero) as info:
            extend_sequence(rec, SequenceSlice(0, (1,)), 10)
        assert info.value.index == 5

    def test_non_integral_step(self):
        # 2 s(n+1) - s(n) = 0 forces halving
        rec = Recurrence(((-1,), (2,)))
        with pytest.raises(NonIntegralStep):
            extend_sequence(rec, SequenceSlice(0, (1,)), 3)

    def test_too_few_initial_terms(self):
        with pytest.raises(ValueError):
            extend_sequence(DERANGEMENT_REC, SequenceSlice(0, (1,)), 5)

    def test_extension_verifies(self):
        out = extend_sequence(DERANGEMENT_REC, SequenceSlice(0, (1, 0)), 60)
        assert verify_recurrence(DERANGEMENT_REC, out).ok


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