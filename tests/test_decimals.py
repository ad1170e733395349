"""Decimal text of any length: the same text and values as str and int."""

import random
import sys
from contextlib import contextmanager

import pytest

from packpoly.decimals import from_decimal, to_decimal


@contextmanager
def no_int_str_limit():
    """Lift the interpreter's limit so str and int can serve as oracles."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def samples():
    rng = random.Random(41)
    for digits in (1, 2, 3999, 4000, 4001, 4300, 4301, 8000, 8001, 8002, 20011):
        top = 10**digits
        yield from (top - 1, top, top + 1, top // 10, rng.randrange(top // 10, top))


@pytest.mark.parametrize("sign", [1, -1])
def test_same_text_and_value_as_str_and_int(sign):
    numbers = [sign * n for n in samples()] + [0]
    texts = [to_decimal(n) for n in numbers]
    values = [from_decimal(t) for t in texts]
    with no_int_str_limit():
        assert texts == [str(n) for n in numbers]
    assert values == numbers


def test_long_text_follows_int_rules():
    digits = "7" * 4500
    with no_int_str_limit():
        n = int(digits)
    assert from_decimal(f" +{digits}\n") == n
    assert from_decimal(f"-{digits}") == -n
    assert from_decimal("_".join(digits[i:i + 9] for i in range(0, 4500, 9))) == n


@pytest.mark.parametrize("bad", ["7" * 4500 + "x", "--" + "7" * 4500, "7_" * 2300, "٣" * 4500])
def test_malformed_long_text_is_rejected(bad):
    with pytest.raises(ValueError, match="invalid literal"):
        from_decimal(bad)
