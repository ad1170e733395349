"""Cantor packing polynomials on N0^2 and their higher-dimensional folds.

The first Cantor polynomial walks the diagonals x + y = 0, 1, 2, ... of
the nonnegative quadrant, each diagonal from its point on the x-axis up
to the y-axis, numbering points 0, 1, 2, ...  The second walks each
diagonal the opposite way, which is the same map with the coordinates
swapped.  Both are bijections N0^2 -> N0.

Everything here is exact integer arithmetic; the inverses go through the
integer square root, never a float, so they are correct for inputs of
any size.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from .decimals import to_decimal

Point2 = tuple[int, int]
PointM = tuple[int, ...]


def _require_nonnegative(*values: int) -> None:
    for v in values:
        if v < 0:
            raise ValueError(f"coordinate must be nonnegative, got {to_decimal(v)}")


def triangular(k: int) -> int:
    """k-th triangular number 0 + 1 + ... + k."""
    _require_nonnegative(k)
    return k * (k + 1) // 2


def triangular_root(n: int) -> int:
    """Largest k with k(k+1)/2 <= n.

    math.isqrt is exact (isqrt(n)^2 <= n < (isqrt(n)+1)^2), so this is
    exact as well: k(k+1)/2 <= n iff (2k+1)^2 <= 8n+1.
    """
    _require_nonnegative(n)
    return (isqrt(8 * n + 1) - 1) // 2


def cantor1(x: int, y: int) -> int:
    """Position of (x, y) in the diagonal walk that starts on the x-axis."""
    _require_nonnegative(x, y)
    # (x+y)^2 + x + 3y = (x+y)^2 + (x+y) + 2y, and n^2 + n is always even.
    return ((x + y) * (x + y) + x + 3 * y) // 2


def cantor2(x: int, y: int) -> int:
    """Position of (x, y) in the diagonal walk that starts on the y-axis."""
    return cantor1(y, x)


def cantor1_inverse(n: int) -> Point2:
    """The unique (x, y) in N0^2 with cantor1(x, y) = n."""
    _require_nonnegative(n)
    k = triangular_root(n)  # diagonal index: cantor1(k, 0) = k(k+1)/2 <= n
    y = n - triangular(k)
    return (k - y, y)


def cantor2_inverse(n: int) -> Point2:
    """The unique (x, y) in N0^2 with cantor2(x, y) = n."""
    x, y = cantor1_inverse(n)
    return (y, x)


def pack_m(coords: Sequence[int]) -> int:
    """Pack an m-tuple of nonnegative integers into one, by left fold.

    pack_m((x1, ..., xm)) = cantor1(...cantor1(cantor1(x1, x2), x3)..., xm).
    One coordinate packs to itself.
    """
    if len(coords) < 1:
        raise ValueError("need at least one coordinate")
    _require_nonnegative(*coords)
    acc = coords[0]
    for c in coords[1:]:
        acc = cantor1(acc, c)
    return acc


def unpack_m(n: int, m: int) -> PointM:
    """The unique m-tuple packing to n; inverse of pack_m."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    _require_nonnegative(n)
    tail: list[int] = []
    for _ in range(m - 1):
        n, last = cantor1_inverse(n)
        tail.append(last)
    tail.append(n)
    tail.reverse()
    return tuple(tail)
