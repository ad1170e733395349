"""Packing polynomials for rational integer sectors.

The sector with slope r/s (lowest terms, 0 < r < s, r dividing s - 1)
is the lattice region {(x, y) : 0 <= s*y <= r*x}.  Two quadratics pack
it, here called the lower and upper polynomials:

    lower(x, y) = [r(x - dy)^2 + (2 - r)x + (dr - 2d + 2)y] / 2
    upper(x, y) = [r(x - dy)^2 + (r + 2)x - (2d + s + 1)y] / 2

with d = (s - 1)/r.  Membership tests use the cross-multiplied integer
inequality throughout; nothing here touches rationals or floats.

Write q = x - dy.  The sector points with a given q are exactly those
with 0 <= y <= r*q, and on that segment

    lower = B(q) + y,    upper = B(q) + r*q - y,

with B(q) = r*q(q - 1)/2 + q.  Both polynomials are evaluated in this
segment form, which needs no halving check.  Since B(q + 1) = B(q) +
r*q + 1, the segments cover 0, 1, 2, ... exactly once, so unpacking n
finds the segment with an integer square root and reads y off the
offset n - B(q), for n of any size.

Column x of the sector holds the points (x, 0), ..., (x, floor(rx/s)).
The first `count` points, column by column, are walked as column
heights alone: sector_enumerate lists them, and
bruteforce.verify_sector_packing reads only the column where the walk
stops, since the segments above already prove the prefix packs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Literal

from .decimals import to_decimal
from .errors import InvalidSectorSpec, NotInSector, SectorDivisibilityError

SectorPoint = tuple[int, int]

WhichPolynomial = Literal["F", "G"]


@dataclass(frozen=True)
class SectorSpec:
    """Slope r/s in lowest terms with the divisibility hypothesis r | s-1.

    d = (s - 1) / r is derived at construction.  Only this family is
    supported; slopes violating the divisibility hypothesis are a
    distinct error so callers can tell "malformed" from "out of scope".
    """

    r: int
    s: int
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.r < self.s:
            raise InvalidSectorSpec(
                f"need 1 <= r < s, got r={to_decimal(self.r)}, "
                f"s={to_decimal(self.s)}"
            )
        if gcd(self.r, self.s) != 1:
            raise InvalidSectorSpec(
                f"slope {_slope(self)} is not in lowest terms"
            )
        if (self.s - 1) % self.r != 0:
            raise SectorDivisibilityError(
                f"r={to_decimal(self.r)} does not divide "
                f"s-1={to_decimal(self.s - 1)}; "
                "this sector family is out of scope"
            )
        object.__setattr__(self, "d", (self.s - 1) // self.r)


def _slope(spec: SectorSpec) -> str:
    return f"{to_decimal(spec.r)}/{to_decimal(spec.s)}"


def sector_contains(spec: SectorSpec, x: int, y: int) -> bool:
    """Membership in the sector: 0 <= y and s*y <= r*x, exactly."""
    return 0 <= y and 0 <= x and spec.s * y <= spec.r * x


def _segment_base(spec: SectorSpec, q: int) -> int:
    # B(q) = q(rq + 2 - r)/2 = rq(q-1)/2 + q: the least value of both
    # polynomials over the sector points with x - dy = q, whose values
    # fill [B(q), B(q) + rq].
    return spec.r * q * (q - 1) // 2 + q


def _require_member(spec: SectorSpec, x: int, y: int) -> None:
    if not sector_contains(spec, x, y):
        raise NotInSector(
            f"({to_decimal(x)}, {to_decimal(y)}) is outside the {_slope(spec)} sector"
        )


def _require_which(which: str) -> None:
    if which not in ("F", "G"):
        raise ValueError(f"which must be 'F' or 'G', got {which!r}")


def sector_F(spec: SectorSpec, x: int, y: int) -> int:
    """The lower packing polynomial, read off segment q = x - dy: B(q) + y."""
    _require_member(spec, x, y)
    return _segment_base(spec, x - spec.d * y) + y


def sector_G(spec: SectorSpec, x: int, y: int) -> int:
    """The upper packing polynomial, read off segment q = x - dy: B(q) + rq - y."""
    _require_member(spec, x, y)
    q = x - spec.d * y
    return _segment_base(spec, q) + spec.r * q - y


def sector_evaluate(spec: SectorSpec, which: WhichPolynomial, x: int, y: int) -> int:
    _require_which(which)
    return sector_F(spec, x, y) if which == "F" else sector_G(spec, x, y)


def _last_column(spec: SectorSpec, count: int) -> tuple[int, int]:
    """(x, h) such that the first `count` sector points, column by
    column, fill columns 0, ..., x - 1 and the first h points of column
    x; columns are walked by height, floor(rx/s) + 1, not by point."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {to_decimal(count)}")
    r, s = spec.r, spec.s
    x = 0
    while (height := r * x // s + 1) < count:
        count -= height
        x += 1
    return x, count


def sector_enumerate(spec: SectorSpec, count: int) -> list[SectorPoint]:
    """The first `count` sector points, ascending x then ascending y."""
    x_cut, height = _last_column(spec, count)
    r, s = spec.r, spec.s
    points = [(x, y) for x in range(x_cut) for y in range(r * x // s + 1)]
    return points + [(x_cut, y) for y in range(height)]


def sector_tail_min(spec: SectorSpec, x_from: int) -> int:
    """Proven lower bound over all sector points with x >= x_from.

    Writing q = x - dy, every sector point satisfies x <= s*q (from
    s*y <= r*x and dr = s - 1) and 0 <= y <= r*q.  Substituting
    x = q + dy turns the polynomials into

        lower = q(rq + 2 - r)/2 + y,    upper = q(rq + r + 2)/2 - y,

    so on fixed q both are at least q(rq + 2 - r)/2, a nondecreasing
    function of q >= 0; and x >= x_from forces q >= ceil(x_from / s).
    """
    q_min = max(0, -(-x_from // spec.s))
    return _segment_base(spec, q_min)


def sector_unpack(spec: SectorSpec, which: WhichPolynomial, n: int) -> SectorPoint:
    """The unique sector point mapping to n under the chosen polynomial.

    n lies on the segment q with B(q) <= n < B(q + 1), B as in the
    module docstring; its offset n - B(q) is y for the lower polynomial
    and r*q - y for the upper one.
    """
    _require_which(which)
    if n < 0:
        raise ValueError(f"target value must be nonnegative, got {to_decimal(n)}")
    r = spec.r
    # B(q) <= n iff (2rq + 2 - r)^2 <= (2 - r)^2 + 8rn, and 2rq + 2 - r >= 0
    # for q >= 1; math.isqrt is exact, so this floor is the largest such q.
    q = (isqrt((2 - r) ** 2 + 8 * r * n) - (2 - r)) // (2 * r)
    offset = n - _segment_base(spec, q)
    y = offset if which == "F" else r * q - offset
    return q + spec.d * y, y
