import sys
from decimal import MAX_PREC, Context

import pytest
from hypothesis import settings

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def _limit_free_text(n: int) -> str:
    return str(Context(prec=MAX_PREC).create_decimal(n))


@pytest.fixture
def limit_free_text():
    """int -> decimal text that ignores the interpreter's int -> str cap."""
    return _limit_free_text


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int <-> str cap of 4300 digits.

    Only the cap is set: text past it goes through the real bigint seam, and
    any bare str() or int() of a big number raises ValueError.
    """
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)
