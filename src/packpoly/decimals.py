"""Decimal text for integers of any size.

Python's str(n) and int(text) refuse numbers past the interpreter's
int-to-str limit (4,300 digits by default since 3.11, and settable per
process, down to 640).  to_decimal and from_decimal give the same text
and the same values at every size, under any limit, without reading or
changing it.  Up to 4,000 digits they are str and int; past that, or
where a caller's lower limit makes str or int refuse, they split the
number at a power of ten and convert the two halves, recursively, in
pieces of at most 600 digits.  This is the divide-and-conquer conversion
of CPython 3.12's _pylong module.
"""

from __future__ import annotations

import re

# str and int convert this many digits under CPython's default limit.
_PLAIN_DIGITS = 4000
_PLAIN_BOUND = 10**_PLAIN_DIGITS
# The split path's pieces, within any limit (CPython allows none below 640).
_PIECE_DIGITS = 600
# int's whitespace: what str.isspace accepts, less the separators \x1c-\x1f.
_SPACE = r"[^\S\x1c-\x1f]*"
_LONG_TOKEN = re.compile(_SPACE + r"([+-]?)([0-9]+(?:_[0-9]+)*)" + _SPACE)


def to_decimal(n: int) -> str:
    """str(n), for an integer of any size."""
    if abs(n) < _PLAIN_BOUND:
        try:
            return str(n)
        except ValueError:  # past a limit lowered by the caller
            pass
    if n < 0:
        return "-" + to_decimal(-n)
    powers: dict[int, int] = {}

    def padded(m: int, width: int) -> str:
        # m < 10**width, written with exactly width digits
        if width <= _PIECE_DIGITS:
            return str(m).zfill(width)
        half = width // 2
        if half not in powers:
            powers[half] = 10**half
        high, low = divmod(m, powers[half])
        return padded(high, width - half) + padded(low, half)

    # n < 2**bits <= 10**width, since 0.30103 exceeds log10(2)
    width = n.bit_length() * 30103 // 100000 + 1
    return padded(n, width).lstrip("0")


def from_decimal(text: str) -> int:
    """int(text), for decimal text of any length.

    Where int itself refuses the text, past 4,000 characters or past a
    limit lowered by the caller, the digits must be ASCII; sign,
    underscores and surrounding whitespace follow int's rules.
    """
    if len(text) <= _PLAIN_DIGITS:
        try:
            return int(text)
        except ValueError:  # malformed, or past a lowered limit
            pass
    match = _LONG_TOKEN.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    sign, digits = match.groups()
    digits = digits.replace("_", "")
    powers: dict[int, int] = {}

    def value(chunk: str) -> int:
        if len(chunk) <= _PIECE_DIGITS:
            return int(chunk)
        half = len(chunk) // 2
        if half not in powers:
            powers[half] = 10**half
        return value(chunk[:-half]) * powers[half] + value(chunk[-half:])

    n = value(digits)
    return -n if sign == "-" else n
