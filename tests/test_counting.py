import json
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiderange.counting import (
    Multiset,
    brute_force_count,
    classic_derangement,
    macmahon_count,
    multiset_derangement,
    total_arrangements,
    uniform_count,
    uniform_fixed_k_prefix,
    uniform_prefix,
    uniform_terms,
    wrong_rank_probability,
)
from multiderange import counting
from multiderange.bigint import from_decimal
from multiderange.errors import InstanceTooLarge, InternalInconsistency
from multiderange.laguerre import exp_moment, laguerre, scaled_laguerre
from multiderange.polys import product

D52 = 29672484407795138298279444403649511427278111361911893663894333196201
DECK_COUNT = 1493804444499093354916284290188948031229880469556


def compositions(total):
    """All ordered multiplicity vectors summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def permutation_derangements(n):
    """Independent oracle: scan all n! permutations of distinct items."""
    return sum(
        1
        for p in permutations(range(n))
        if all(p[i] != i for i in range(n))
    )


class TestClassicDerangement:
    def test_first_values(self):
        assert [classic_derangement(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]

    def test_against_permutation_scan(self):
        for n in range(8):
            assert classic_derangement(n) == permutation_derangements(n)

    def test_card_deck_of_distinct_cards(self):
        assert classic_derangement(52) == D52

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classic_derangement(-1)


class TestTotalArrangements:
    def test_three_pairs(self):
        assert total_arrangements((2, 2, 2)) == 90

    def test_all_distinct_is_factorial(self):
        for n in range(9):
            assert total_arrangements((1,) * n) == math.factorial(n)

    def test_empty(self):
        assert total_arrangements(()) == 1

    def test_multinomial_formula(self):
        m = (3, 1, 4, 2)
        expected = math.factorial(10) // (6 * 1 * 24 * 2)
        assert total_arrangements(m) == expected


class TestMultisetDerangement:
    def test_three_pairs(self):
        assert multiset_derangement((2, 2, 2)).value == 10

    def test_single_symbol_vanishes(self):
        for k in range(1, 8):
            assert multiset_derangement((k,)).value == 0

    def test_deck(self):
        assert multiset_derangement((4,) * 13).value == DECK_COUNT

    def test_carries_instance(self):
        result = multiset_derangement((2, 1))
        assert result.instance == Multiset((2, 1))

    def test_empty_multiset(self):
        assert multiset_derangement(()).value == 1

    def test_invalid_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            multiset_derangement((2, 0))


class TestBruteForce:
    def test_three_pairs(self):
        assert brute_force_count((2, 2, 2)) == 10

    def test_three_distinct(self):
        assert brute_force_count((1, 1, 1)) == 2

    def test_pigeonhole_zero(self):
        assert brute_force_count((3, 1)) == 0

    def test_bound_enforced(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_count((6, 6))

    def test_bound_overridable(self):
        assert brute_force_count((6, 6), limit=12) == uniform_count(2, 6) == 1

    def test_matches_distinct_item_scan(self):
        for n in range(7):
            assert brute_force_count((1,) * n) == permutation_derangements(n)


class TestMacMahon:
    def test_three_pairs(self):
        assert macmahon_count((2, 2, 2)) == 10

    def test_two_distinct(self):
        assert macmahon_count((1, 1)) == 1

    def test_one_symbol(self):
        assert macmahon_count((1,)) == 0

    def test_empty(self):
        assert macmahon_count(()) == 1

    def test_bounds_enforced(self):
        with pytest.raises(InstanceTooLarge):
            macmahon_count((1,) * 7)
        with pytest.raises(InstanceTooLarge):
            macmahon_count((7, 1))

    def test_bounds_overridable(self):
        assert macmahon_count((1,) * 7, max_symbols=7) == classic_derangement(7)


class TestTripleOracleAgreement:
    def test_total_up_to_seven(self):
        # the acceptance suite runs the full total <= 8 sweep
        for total in range(8):
            for m in compositions(total):
                expected = brute_force_count(m)
                assert multiset_derangement(m).value == expected, m
                assert macmahon_count(m, max_symbols=8, max_multiplicity=8) == expected, m


class TestUniformFamily:
    def test_edge_conventions(self):
        assert uniform_count(0, 5) == 1
        assert uniform_count(7, 0) == 1
        assert uniform_count(0, 0) == 1

    @pytest.mark.parametrize("n, k", [(-1, 2), (2, -1)])
    def test_negative_rejected(self, n, k):
        with pytest.raises(ValueError):
            uniform_count(n, k)

    def test_two_symbols_always_one(self):
        for k in range(26):
            assert uniform_count(2, k) == 1

    def test_franel_values(self):
        for k in range(21):
            expected = sum(math.comb(k, j) ** 3 for j in range(k + 1))
            assert uniform_count(3, k) == expected

    def test_distinct_items_reduce_to_classic(self):
        for n in range(26):
            assert uniform_count(n, 1) == classic_derangement(n)

    def test_matches_multiset_derangement(self):
        for n in range(5):
            for k in range(1, 4):
                assert uniform_count(n, k) == multiset_derangement((k,) * n).value

    def test_prefix_helpers_match_pointwise(self):
        for k in range(7):
            assert uniform_fixed_k_prefix(k, 40) == [uniform_count(n, k) for n in range(40)], k
        assert uniform_prefix("fixed_n", 3, 12) == [uniform_count(3, k) for k in range(12)]

    @pytest.mark.parametrize("direction", ["fixed_k", "fixed_n"])
    def test_terms_resume_where_they_stopped(self, direction):
        stream = uniform_terms(direction, 3)
        first = [next(stream) for _ in range(7)]
        assert first + [next(stream) for _ in range(5)] == uniform_prefix(direction, 3, 12)

    def test_unknown_direction_rejected_before_the_first_term(self):
        with pytest.raises(ValueError, match="direction"):
            uniform_terms("sideways", 3)


class TestInvariants:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    def test_symmetry_under_reordering(self, m):
        base = multiset_derangement(tuple(sorted(m))).value
        assert multiset_derangement(tuple(m)).value == base
        assert multiset_derangement(tuple(reversed(sorted(m)))).value == base

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    def test_range(self, m):
        value = multiset_derangement(tuple(m)).value
        assert 0 <= value <= total_arrangements(tuple(m))

    def test_pigeonhole_vanishing(self):
        for total in range(1, 13):
            for m in compositions(total):
                if max(m) > total - max(m):
                    assert multiset_derangement(m).value == 0, m


class TestWrongRankProbability:
    def test_three_pairs(self):
        assert wrong_rank_probability((2, 2, 2)) == Fraction(1, 9)

    def test_single_symbol(self):
        assert wrong_rank_probability((4,)) == 0

    def test_two_distinct(self):
        assert wrong_rank_probability((1, 1)) == Fraction(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wrong_rank_probability(())


class TestIntegralityGuard:
    def test_non_integral_moment_is_an_internal_error(self):
        from multiderange.counting import _signed_count
        from multiderange.errors import InternalInconsistency

        with pytest.raises(InternalInconsistency):
            _signed_count(1, 0, 2)  # nonzero remainder
        with pytest.raises(InternalInconsistency):
            _signed_count(3, 1)  # sign flip makes it negative


class TestIntegerCore:
    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=12))
    def test_matches_rational_moment(self, m):
        moment = exp_moment(product([laguerre(a) for a in m]))
        assert multiset_derangement(tuple(m)).value == (-1) ** sum(m) * moment

    # The tree instances are past the packed limit: deg Q 131 and 129 with
    # deg R 35 and 32.
    def test_corrupted_factor_is_not_divisible(self, monkeypatch):
        _corrupt_threes(monkeypatch)
        _only_route(monkeypatch, "tree")
        with pytest.raises(InternalInconsistency, match="not divisible"):
            multiset_derangement((3,) + (1,) * 4 + (31,) * 4)

    def test_corrupted_factor_is_not_divisible_when_packed(self, monkeypatch):
        _corrupt_threes(monkeypatch)
        _only_route(monkeypatch, "packed")
        with pytest.raises(InternalInconsistency, match="not divisible"):
            multiset_derangement((3, 2, 2))

    def test_corrupted_factor_breaks_the_recurrence(self, monkeypatch):
        _corrupt_threes(monkeypatch)
        _only_route(monkeypatch, "recurrence")
        with pytest.raises(InternalInconsistency, match="not divisible"):
            multiset_derangement((3,) * 100)
        with pytest.raises(InternalInconsistency, match="not divisible"):
            uniform_count(100, 3)

    def test_corrupted_factor_flips_the_sign(self, monkeypatch):
        _negate_factors(monkeypatch)
        _only_route(monkeypatch, "tree")
        with pytest.raises(InternalInconsistency, match="wrong sign"):
            multiset_derangement((1,) * 5 + (31,) * 4)  # nine negated factors
        with pytest.raises(InternalInconsistency, match="wrong sign"):
            uniform_fixed_k_prefix(3, 4)  # (-1)^3 flips F(3) = 56

    def test_corrupted_factor_flips_the_sign_when_packed(self, monkeypatch):
        _negate_factors(monkeypatch)
        _only_route(monkeypatch, "packed")
        with pytest.raises(InternalInconsistency, match="wrong sign"):
            multiset_derangement((3, 3, 3))  # three negated factors


def _corrupt_threes(monkeypatch):
    """Add 1 to the constant term of 3! * L_3."""
    def corrupted(a):
        f = scaled_laguerre(a)
        return (f[0] + 1,) + f[1:] if a == 3 else f

    monkeypatch.setattr(counting, "scaled_laguerre", corrupted)


def _negate_factors(monkeypatch):
    monkeypatch.setattr(
        counting, "scaled_laguerre", lambda a: tuple(-c for c in scaled_laguerre(a))
    )


def _only_route(monkeypatch, route):
    """Make every product route but `route` raise when reached."""
    for name in ("packed", "recurrence", "tree"):
        if name != route:
            def refuse(*args, name=name):
                raise RuntimeError(f"{name} route reached")

            monkeypatch.setattr(counting, f"_product_{name}", refuse)


# Groupings {multiplicity: copies}: 1-6 distinct multiplicities, up to 40
# copies each.
groupings = st.dictionaries(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=40),
    min_size=1,
    max_size=6,
)


def _packed_bits(groups):
    return (sum(a * c for a, c in groups.items()) + 1) * 8 * counting._packed_slot_bytes(groups)


class TestProductRoutes:
    @given(groupings)
    @example({63: 2})  # deg R at the cap
    @example({30: 3, 33: 1})
    @example({1: 5, 62: 1})
    def test_recurrence_equals_product_tree(self, groups):
        deg_q = sum(a * c for a, c in groups.items())
        q0 = math.prod(math.factorial(a) ** c for a, c in groups.items())
        assert counting._product_recurrence(groups, deg_q, q0) == list(
            counting._product_tree(groups)
        )

    @given(groupings)
    @example({})
    @example({1: 1})
    @example({6: 16})  # the largest small_queries shape
    @example({1: 3, 31: 4})  # exactly at the packed limit
    def test_packed_equals_product_tree(self, groups):
        deg_q = sum(a * c for a, c in groups.items())
        width = counting._packed_slot_bytes(groups)
        assert counting._product_packed(groups, deg_q, width) == list(
            counting._product_tree(groups)
        )

    def test_edge_shapes_straddle_the_packed_limit(self):
        assert _packed_bits({1: 3, 31: 4}) == counting._PACKED_MAX_BITS
        assert _packed_bits({1: 4, 31: 4}) > counting._PACKED_MAX_BITS
        assert _packed_bits({3: 64}) <= counting._PACKED_MAX_BITS < _packed_bits({3: 65})
        assert _packed_bits({9: 8, 10: 8}) <= counting._PACKED_MAX_BITS
        assert _packed_bits({10: 9, 11: 7}) > counting._PACKED_MAX_BITS

    # Every shape expected on the recurrence or the tree is past the packed
    # limit.
    @pytest.mark.parametrize(
        "groups, route",
        [
            ({4: 46}, "recurrence"),  # the fewest fours past the packed limit
            ({4: 500}, "recurrence"),
            ({63: 8}, "recurrence"),
            ({64: 8}, "tree"),
            ({31: 8, 32: 8}, "recurrence"),  # deg R 63, deg Q 8 * 63
            ({31: 9, 32: 7}, "tree"),  # deg R 63, deg Q 8 * 63 - 1
            ({30: 9, 34: 8}, "tree"),  # deg R 64
            ({10: 8, 11: 8}, "recurrence"),  # deg Q 8 * 21
            ({10: 9, 11: 7}, "tree"),  # deg Q 8 * 21 - 1
            ({k: 1 for k in range(1, 21)}, "tree"),
            ({4: 13}, "packed"),  # the deck
            ({6: 16}, "packed"),
            ({3: 12, 2: 2}, "packed"),  # deg Q 8 * 5
            ({3: 11, 2: 3}, "packed"),  # deg Q 8 * 5 - 1
            ({9: 8, 10: 8}, "packed"),  # deg Q 8 * 19
            ({1: 3, 31: 4}, "packed"),  # exactly at the packed limit
            ({1: 4, 31: 4}, "tree"),  # one slot past it
            ({3: 64}, "packed"),
            ({3: 65}, "recurrence"),
        ],
    )
    def test_rule_picks_the_route(self, monkeypatch, groups, route):
        taken = []
        for name in ("packed", "recurrence", "tree"):
            real = getattr(counting, f"_product_{name}")
            monkeypatch.setattr(
                counting, f"_product_{name}",
                lambda *args, name=name, real=real: taken.append(name) or real(*args),
            )
        multiset_derangement([a for a, c in groups.items() for _ in range(c)])
        assert taken == [route]

    @pytest.mark.parametrize("groups", [{4: 13}, {6: 16}])  # the deck, 16 sixes
    def test_packed_count_bounds_its_slots_once(self, monkeypatch, groups):
        calls = []
        real = counting._packed_slot_bytes
        monkeypatch.setattr(
            counting, "_packed_slot_bytes", lambda g: calls.append(g) or real(g)
        )
        multiset_derangement([a for a, c in groups.items() for _ in range(c)])
        assert calls == [groups]


# Counts on both sides of the route rule and on its edges, written by
# scripts/record_count_corpus.py from the product tree alone, before the
# recurrence went in; the shapes around the packed limit were recorded by
# the recurrence and tree routes, before the packed route went in.
COUNT_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "count_corpus.json").read_text()
)


class TestCountCorpus:
    @pytest.mark.parametrize("case", COUNT_CORPUS, ids=[case["name"] for case in COUNT_CORPUS])
    def test_count_is_unchanged(self, case):
        multiplicities = [a for a, copies in case["groups"] for _ in range(copies)]
        expected = from_decimal(case["count"])
        assert multiset_derangement(multiplicities).value == expected
        if len(case["groups"]) == 1:
            (k, n), = case["groups"]
            assert uniform_count(n, k) == expected
