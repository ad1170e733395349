"""Decimal text of any length: the same text and values as str and int."""

import random
import sys
from contextlib import contextmanager

import pytest

from packpoly import QuadPoly2, classify, document_to_json
from packpoly.decimals import from_decimal, to_decimal

HAS_LIMIT = hasattr(sys, "set_int_max_str_digits")


@contextmanager
def int_str_limit(digits):
    """Set the interpreter's int-to-str limit, restoring it afterwards."""
    if not HAS_LIMIT:
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def no_int_str_limit():
    """Lift the interpreter's limit so str and int can serve as oracles."""
    return int_str_limit(0)


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


@pytest.mark.skipif(not HAS_LIMIT, reason="this Python has no int-to-str limit")
@pytest.mark.parametrize("sign", [1, -1])
def test_same_text_and_value_under_the_least_allowed_limit(sign):
    rng = random.Random(43)
    numbers = [sign * n for n in samples()] + [0]
    for digits in (599, 600, 601, 640, 641, 1200, 1201, 3999):
        top = 10**digits
        numbers += [sign * n for n in (top - 1, top, top + 1, rng.randrange(top // 10, top))]
    with no_int_str_limit():
        texts = [str(n) for n in numbers]
    with int_str_limit(640):
        assert [to_decimal(n) for n in numbers] == texts
        assert [from_decimal(t) for t in texts] == numbers
        assert from_decimal(" +" + texts[-1].lstrip("-") + "\n") == abs(numbers[-1])
        with pytest.raises(ValueError, match="invalid literal"):
            from_decimal("7" * 700 + "x")


@pytest.mark.skipif(not HAS_LIMIT, reason="this Python has no int-to-str limit")
def test_documents_under_the_least_allowed_limit():
    F = QuadPoly2(1, 0, 1, 1, 1, 10**1000 + 1)
    with no_int_str_limit():
        expected = document_to_json(F, classify(F))
    with int_str_limit(640):
        assert document_to_json(F, classify(F)) == expected


def test_separators_around_digits_are_rejected_as_int_rejects_them():
    for text in ("\x1c1", "1\x1f", "\x1c" + "7" * 4500):
        with pytest.raises(ValueError, match="invalid literal"):
            from_decimal(text)
    assert from_decimal("\u2003" + "7" * 4500 + "\xa0") == from_decimal("7" * 4500)
