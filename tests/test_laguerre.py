import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from multiderange.laguerre import exp_moment, integer_moment, laguerre, scaled_laguerre
from multiderange.polys import add, mul, poly

small_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=7
).map(poly)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0) == poly([1])

    def test_degree_one(self):
        assert laguerre(1) == poly([1, -1])

    def test_degree_four(self):
        # expanded by hand from the defining sum
        assert laguerre(4) == poly([1, -4, 3, Fraction(-2, 3), Fraction(1, 24)])

    def test_general_coefficients(self):
        a = 7
        p = laguerre(a)
        for alpha, c in enumerate(p):
            assert c == Fraction((-1) ** alpha * math.comb(a, alpha), math.factorial(alpha))

    def test_constant_term_is_one_up_to_100(self):
        for a in range(101):
            assert laguerre(a)[0] == 1

    def test_scaled_form_is_factorial_times_rational_form(self):
        for a in range(12):
            scaled = scaled_laguerre(a)
            assert all(isinstance(c, int) for c in scaled)
            assert [Fraction(c, math.factorial(a)) for c in scaled] == list(laguerre(a))

    def test_cache_returns_same_object(self):
        assert scaled_laguerre(9) is scaled_laguerre(9)

    def test_negative_degree_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            laguerre(-1)


class TestExpMoment:
    def test_constant(self):
        assert exp_moment(poly([1])) == 1

    def test_monomials_give_factorials(self):
        for m in range(7):
            monomial = poly([0] * m + [1])
            assert exp_moment(monomial) == math.factorial(m)

    def test_squared_first_laguerre(self):
        # 1 - 2x + x^2 -> 1 - 2*1! + 2! = 1
        assert exp_moment(mul(laguerre(1), laguerre(1))) == 1

    def test_zero_polynomial(self):
        assert exp_moment(()) == 0
        assert integer_moment([]) == 0

    @given(small_polys)
    def test_integer_moment_is_scaled_exp_moment(self, p):
        den = math.lcm(*(c.denominator for c in p))
        assert integer_moment([int(c * den) for c in p]) == exp_moment(p) * den

    @given(small_polys, small_polys)
    def test_linearity(self, p, q):
        assert exp_moment(add(p, q)) == exp_moment(p) + exp_moment(q)

    def test_orthonormal_small(self):
        for j in range(8):
            for k in range(8):
                moment = exp_moment(mul(laguerre(j), laguerre(k)))
                assert moment == (1 if j == k else 0), (j, k)


class TestConcurrentCache:
    def test_parallel_lookups_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        degrees = list(range(40)) * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(laguerre, degrees))
        for a, p in zip(degrees, results):
            assert p == laguerre(a)
