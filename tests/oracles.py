"""Brute-force twins of closed forms and fast paths in the library.

Each oracle computes the same quantity the slow, direct way, and shares
no code with what it checks, so the tests can compare the two.
"""

from packpoly import (
    ModularGap,
    QuadPoly2,
    RegionCounts,
    SectorSpec,
    diagonal_tail_min,
    sector_evaluate,
    sector_tail_min,
    validate,
)
from packpoly.errors import InvalidM


def region_counts_bruteforce(m: int) -> RegionCounts:
    """The five region counts by direct iteration over the column bounds."""
    if m < 2:
        raise InvalidM(f"scale must be at least 2, got {m}")
    n1 = sum(len(range(0, 25 * m)) for _x in range(0, m))
    n2 = sum(len(range(0, 24 * m - x)) for x in range(m, 10 * m))
    n3 = sum(len(range(0, 10 * m)) for _x in range(10 * m, 14 * m))
    n4 = sum(len(range(0, 24 * m - x)) for x in range(14 * m, 23 * m))
    n5 = sum(len(range(0, m)) for _x in range(23 * m, 25 * m))
    return RegionCounts(m=m, n1=n1, n2=n2, n3=n3, n4=n4, n5=n5)


def sector_column(spec: SectorSpec, x: int) -> list[tuple[int, int]]:
    """Sector points with first coordinate x, ascending y."""
    return [(x, y) for y in range(x + 1) if spec.s * y <= spec.r * x]


def sector_prefix(spec: SectorSpec, count: int) -> list[tuple[int, int]]:
    """The first `count` sector points, column by column."""
    points: list[tuple[int, int]] = []
    x = 0
    while len(points) < count:
        points.extend(sector_column(spec, x))
        x += 1
    return points[:count]


def sector_prefix_frontier(spec: SectorSpec, which: str, count: int) -> int:
    """Proven lower bound beyond the first `count` sector points.

    Evaluates every point of the cut column past the prefix, and takes
    sector_tail_min for all later columns.
    """
    x_cut, y_cut = sector_prefix(spec, count)[-1]
    bound = sector_tail_min(spec, x_cut + 1)
    for x, y in sector_column(spec, x_cut):
        if y > y_cut:
            bound = min(bound, sector_evaluate(spec, which, x, y))
    return bound


def gap_box_bound_by_bisection(F: QuadPoly2, g: int) -> int:
    """gap_box_bound by search: double, then bisect on the diagonal bound.

    The least B >= 1 with diagonal_tail_min(F, B + 1) > g, or 0 when the
    bound already exceeds g from the origin on.
    """
    if diagonal_tail_min(F, 0) > g:
        return 0
    lo, hi = 0, 1
    while diagonal_tail_min(F, hi + 1) <= g:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diagonal_tail_min(F, mid + 1) > g:
            hi = mid
        else:
            lo = mid
    return hi


def quadrant_outside_min_by_scan(F: QuadPoly2, box_bound: int) -> int:
    """quadrant_outside_min with the ring minimum found by evaluating
    every point of the lines x = box_bound + 1 and y = box_bound + 1
    up to their crossing.
    """
    bounds = [diagonal_tail_min(F, box_bound + 1)]
    if F.b >= 0 and F.a >= 0 and F.c >= 0 and F.a + F.d >= 0 and F.c + F.e >= 0:
        edge = box_bound + 1
        ring_doubled = min(
            min(F.doubled_value(edge, y) for y in range(edge + 1)),
            min(F.doubled_value(x, edge) for x in range(edge + 1)),
        )
        bounds.append(-(-ring_doubled // 2))
    return max(bounds)


def sector_value_by_numerator(spec: SectorSpec, which: str, x: int, y: int) -> int:
    """The sector polynomials at a sector point, from their displayed
    numerators, halved.

    lower = [r q^2 + (2 - r)x + (dr - 2d + 2)y] / 2 and
    upper = [r q^2 + (r + 2)x - (2d + s + 1)y] / 2 with q = x - dy.
    """
    r, s, d = spec.r, spec.s, spec.d
    q = x - d * y
    if which == "F":
        numerator = r * q * q + (2 - r) * x + (d * r - 2 * d + 2) * y
    else:
        numerator = r * q * q + (r + 2) * x - (2 * d + s + 1) * y
    assert numerator % 2 == 0, (spec, which, x, y)
    return numerator // 2


def modular_class_hit(F: QuadPoly2, cert: ModularGap, box: int):
    """A point of [0, box]^2 whose value lies in the claimed-empty class
    s + p mod p^2, or None.
    """
    p, s = cert.witness.p, cert.s
    for x in range(box + 1):
        for y in range(box + 1):
            if (F.evaluate(x, y) - s - p) % (p * p) == 0:
                return (x, y)
    return None


def gap_holds_by_scan(F: QuadPoly2, g: int, box: int) -> bool:
    """Whether Gap(g, box) holds for F, by a scan of the box's points.

    Growth must clear g beyond the box; inside, only [0, B*]^2 with
    B* = gap_box_bound_by_bisection(F, g) can attain g, and every point
    of that part of the box is evaluated.
    """
    if g < 0 or box < 0 or validate(F):
        return False
    if diagonal_tail_min(F, box + 1) <= g:
        return False
    inner = min(box, gap_box_bound_by_bisection(F, g))
    return all(
        F.evaluate(x, y) != g for x in range(inner + 1) for y in range(inner + 1)
    )
