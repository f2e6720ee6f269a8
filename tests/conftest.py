import sys
from decimal import MAX_PREC, Context

import pytest
from hypothesis import settings

from multiderange import cli, recurrences

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def _limit_free_text(n: int) -> str:
    return str(Context(prec=MAX_PREC).create_decimal(n))


@pytest.fixture
def limit_free_text():
    """int -> decimal text that ignores the interpreter's int -> str cap."""
    return _limit_free_text


@pytest.fixture
def default_digit_limit(monkeypatch, limit_free_text):
    """The interpreter's default int -> str cap, as when gmpy2 is installed.

    The text seams of cli and recurrences get a conversion that ignores the
    cap, so any bare str() of a big number in those modules raises
    ValueError.
    """
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    monkeypatch.setattr(cli, "to_decimal", limit_free_text)
    monkeypatch.setattr(recurrences, "to_decimal", limit_free_text)
    yield
    sys.set_int_max_str_digits(previous)
