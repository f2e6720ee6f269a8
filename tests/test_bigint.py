import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multiderange.bigint import from_decimal, to_decimal

CAPS = [640, 4300]  # CPython's smallest allowed nonzero cap, and its default


@contextmanager
def digit_cap(cap):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def magnitudes(cap):
    """Ints of 1 to ~3*cap digits: powers of 3 (digits everywhere) and
    two blocks of digits around a run of zeros (pieces with leading zeros)."""
    powers = st.integers(min_value=0, max_value=6 * cap).map(lambda e: 3**e)
    spread = st.builds(
        lambda high, shift, low: high * 10**shift + low,
        st.integers(min_value=0, max_value=10**40),
        st.integers(min_value=0, max_value=3 * cap),
        st.integers(min_value=0, max_value=10**40),
    )
    return st.one_of(powers, spread)


numbers = st.sampled_from(CAPS).flatmap(
    lambda cap: st.tuples(st.just(cap), magnitudes(cap), st.sampled_from([1, -1]))
)


class TestSeam:
    # limit_free_text is a stateless function, so sharing it across
    # examples is safe.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(numbers)
    @example((640, 10**640 - 1, 1))
    @example((640, 10**640, -1))
    @example((4300, 10**4300 - 1, -1))
    @example((4300, 10**4300, 1))
    @example((4300, 10**12900 + 1, 1))
    def test_round_trip_on_both_sides_of_the_cap(self, limit_free_text, case):
        cap, magnitude, sign = case
        n = sign * magnitude
        with digit_cap(cap):
            text = to_decimal(n)
            assert text == limit_free_text(n)
            assert from_decimal(text) == n

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize(
        "text",
        ["1_" + "0" * 5000, "--" + "1" * 5000, "+-" + "1" * 5000, "١" * 5000, "1" * 5000 + "x",
         " " + "1" * 5000 + "\n"],
        ids=["underscore", "two-minus", "plus-minus", "arabic-indic", "trailing-letter",
             "whitespace"],
    )
    def test_over_cap_text_outside_the_grammar_is_rejected(self, cap, text):
        with digit_cap(cap), pytest.raises(ValueError):
            from_decimal(text)

    def test_over_cap_text_may_carry_a_sign(self):
        with digit_cap(640):
            assert from_decimal("+" + "9" * 700) == 10**700 - 1
            assert from_decimal("-0" + "9" * 700) == 1 - 10**700

    @pytest.mark.parametrize(
        "text",
        ["1_000", "١٢", " 12", "12\n", "--1", "+", "", "0x10", "1e3", "²"],
        ids=["underscore", "arabic-indic", "leading-space", "trailing-newline", "two-minus",
             "sign-only", "empty", "hex", "exponent", "superscript"],
    )
    def test_under_cap_text_outside_the_grammar_is_rejected(self, text):
        with pytest.raises(ValueError):
            from_decimal(text)

    def test_under_cap_text_with_a_sign_is_int(self):
        assert from_decimal("+0012") == 12
        assert from_decimal("-7") == -7


def test_import_leaves_the_digit_cap_alone():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="5000", PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, multiderange; print(sys.get_int_max_str_digits())"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "5000\n"
