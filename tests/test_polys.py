import decimal
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiderange import polys
from multiderange.polys import ONE, ZERO, add, mul, poly, power, product

X_MINUS = poly([1, -1])  # 1 - x
X_PLUS = poly([1, 1])  # 1 + x


def naive_mul(p, q):
    """Schoolbook reference product straight over Fractions."""
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
small_polys = st.lists(small_fractions, max_size=7).map(poly)
int_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)

# Signed integer coefficients: zeros, word-sized ones, and ones of more than
# 4300 digits (past CPython's default int <-> str limit).
coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.builds(
        lambda sign, exponent, low: sign * (10**exponent + low),
        st.sampled_from([1, -1]),
        st.integers(min_value=4300, max_value=4400),
        st.integers(min_value=0, max_value=10**30),
    ),
)
operands = st.lists(coefficients, min_size=1, max_size=60)


class TestBasics:
    def test_add_cancellation(self):
        assert add(X_MINUS, poly([0, 1])) == ONE

    def test_add_identity(self):
        p = poly([3, Fraction(1, 2), 7])
        assert add(ZERO, p) == p

    def test_add_doubling(self):
        assert add(X_MINUS, X_MINUS) == poly([2, -2])

    def test_mul_square(self):
        assert mul(X_MINUS, X_MINUS) == poly([1, -2, 1])

    def test_mul_annihilator(self):
        assert mul(poly([5, 1, 3]), ZERO) == ZERO

    def test_mul_difference_of_squares(self):
        assert mul(X_PLUS, X_MINUS) == poly([1, 0, -1])

    def test_empty_product(self):
        assert product([]) == ONE

    def test_product_pair(self):
        assert product([X_MINUS, X_MINUS]) == poly([1, -2, 1])

    def test_power_zero(self):
        assert power(X_MINUS, 0) == ONE
        assert power(ZERO, 0) == ONE

    def test_power_square(self):
        assert power(X_MINUS, 2) == poly([1, -2, 1])

    def test_power_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            power(X_MINUS, -1)

    def test_poly_strips_trailing_zeros(self):
        assert poly([1, 2, 0, 0]) == poly([1, 2])
        assert poly([0, 0]) == ZERO


class TestProperties:
    @given(small_polys, small_polys)
    def test_add_commutes(self, p, q):
        assert add(p, q) == add(q, p)

    @given(small_polys, small_polys)
    def test_mul_commutes(self, p, q):
        assert mul(p, q) == mul(q, p)

    @given(small_polys, small_polys, small_polys)
    def test_add_associates(self, p, q, r):
        assert add(add(p, q), r) == add(p, add(q, r))

    @given(small_polys, small_polys, small_polys)
    def test_mul_associates(self, p, q, r):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))

    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, p, q, r):
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))

    @given(small_polys, small_polys)
    def test_degree_adds(self, p, q):
        if p and q:
            assert len(mul(p, q)) == len(p) + len(q) - 1

    @given(small_polys, small_polys)
    def test_mul_matches_naive(self, p, q):
        assert mul(p, q) == naive_mul(p, q)

    @given(small_polys, st.integers(min_value=0, max_value=8))
    def test_power_matches_product(self, p, e):
        assert power(p, e) == product([p] * e)

    @given(int_polys, st.integers(min_value=0, max_value=13))
    def test_int_product_of_repeated_factor(self, p, n):
        # [p] * n holds one object n times, whose equal pairs share a product.
        assert polys.int_product([p] * n) == polys.int_product([list(p) for _ in range(n)])
        assert polys.int_product([p] * n) == reduce(polys.int_mul, [p] * n, [1])

    @given(int_polys, int_polys, st.lists(st.booleans(), max_size=12))
    def test_int_product_of_shared_factors(self, p, q, picks):
        factors = [p if pick else q for pick in picks]
        assert polys.int_product(factors) == reduce(polys.int_mul, factors, [1])

    @given(small_polys, small_polys)
    def test_results_are_normalized(self, p, q):
        for result in (add(p, q), mul(p, q)):
            assert not result or result[-1] != 0


class TestConvolutionPaths:
    """The packed big-integer convolution must agree with schoolbook exactly."""

    @given(operands, operands)
    @example([0, 0, 0, 0], [1, -2, 3, -4])
    @example([5], [0])
    @example([10**4400 + 1, -(10**4350), 0, 7], [-(10**4301), 3])
    def test_decimal_slots_equal_schoolbook(self, a, b):
        # A 5-digit ambient context: the decimal path must never round through it.
        with decimal.localcontext() as ambient:
            ambient.prec = 5
            got = polys._convolve_decimal(a, b)
        assert got == polys._convolve_schoolbook(a, b)

    def test_large_product_crosses_cutoff(self):
        p = poly([Fraction(i - 20, 7) for i in range(70)] + [1])
        q = poly([Fraction((-1) ** i * i, 3) for i in range(70)] + [1])
        assert mul(p, q) == naive_mul(p, q)

    def test_shorter_operand_length_picks_kronecker(self, monkeypatch):
        def refuse(a, b):
            raise RuntimeError("Kronecker reached")

        monkeypatch.setattr(polys, "_convolve_decimal", refuse)
        long, short = [(-1) ** i * (i + 1) for i in range(2000)], [3, -1, 0, 4, 7]
        square = [i * i - 40 for i in range(63)]
        assert polys.int_mul(long, short) == polys._convolve_schoolbook(long, short)
        assert polys.int_mul(short, long) == polys._convolve_schoolbook(long, short)
        assert polys.int_mul(square, square) == polys._convolve_schoolbook(square, square)
        with pytest.raises(RuntimeError, match="Kronecker reached"):
            polys.int_mul(square + [1], square + [1])

    def test_integer_core_matches_rational_api(self):
        a, b = [3, -1, 0, 4], [-2, 5]
        assert polys.int_mul(a, b) == [-6, 17, -5, -8, 20]
        assert poly(polys.int_mul(a, b)) == mul(poly(a), poly(b))
        assert polys.int_product([a, b, b]) == polys.int_mul(polys.int_mul(a, b), b)
        assert power(poly(b), 3) == poly(polys.int_product([b, b, b]))
        assert power(poly(b), 0) == ONE
        assert polys.int_mul(a, []) == []

    def test_scaled_integers_roundtrip(self):
        p = poly([Fraction(1, 6), Fraction(-2, 15), 3])
        nums, den = polys.scaled_integers(p)
        assert [Fraction(n, den) for n in nums] == list(p)
