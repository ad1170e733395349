"""Brute-force twins of closed forms and fast paths in the library.

Each oracle computes the same quantity the slow, direct way, and shares
no code with what it checks, so the tests can compare the two.
"""

from packpoly import (
    QuadPoly2,
    RegionCounts,
    SectorSpec,
    diagonal_tail_min,
    gap_box_bound,
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


def gap_holds_by_scan(F: QuadPoly2, g: int, box: int) -> bool:
    """Whether Gap(g, box) holds for F, by a scan of the box's points.

    Growth must clear g beyond the box; inside, only [0, B*]^2 with
    B* = gap_box_bound(F, g) can attain g, and every point of that part
    of the box is evaluated.
    """
    if g < 0 or box < 0 or validate(F):
        return False
    if diagonal_tail_min(F, box + 1) <= g:
        return False
    inner = min(box, gap_box_bound(F, g))
    return all(
        F.evaluate(x, y) != g for x in range(inner + 1) for y in range(inner + 1)
    )
