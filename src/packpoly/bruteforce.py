"""Brute-force verification of packing behavior on finite prefixes.

A packing function claim has two halves: injectivity and the absence of
gaps.  Both are checkable on a finite region once something certifies
that every point outside the region takes values beyond the range under
inspection; that certificate is the frontier bound, and the verdict
records which bound made the check conclusive.

verify_packing_bruteforce takes the region as the points it holds, in
any sequence, the function as its values at those points, and the
frontier as a number; verify_quadratic_packing computes all three for a
box of the quadrant.  verify_sector_packing computes only the frontier:
the sector polynomials are bijections by the segment proof in the
sector module, so its verdict follows without evaluating the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .classifier import Collision
from .decimals import to_decimal
from .errors import FrontierNotClosed
from .quadratic import QuadPoly2, quadrant_outside_min, validate
from .sector import (
    SectorSpec,
    WhichPolynomial,
    _last_column,
    _require_which,
    sector_evaluate,
    sector_tail_min,
)

PointM = tuple[int, ...]


@dataclass(frozen=True)
class PackingVerdict:
    """Outcome of a finite-prefix packing check.

    gaps lists every value in [0, covered_upto] attained nowhere in the
    domain; the frontier bound guarantees points outside the enumerated
    region cannot attain them.  injective_on_box refers to the enumerated
    region only, with the first colliding pair kept when it fails.
    """

    injective_on_box: bool
    collision: Optional[Collision]
    covered_upto: int
    gaps: tuple[int, ...]
    frontier_bound_used: int

    @property
    def is_packing_prefix(self) -> bool:
        return self.injective_on_box and not self.gaps


def verify_packing_bruteforce(
    points: Sequence[PointM],
    values: Sequence[int],
    value_bound: int,
    frontier: int,
) -> PackingVerdict:
    """Check injectivity and gap-freeness over an enumerated region.

    points must hold every domain point of the region, each exactly
    once, in any sequence: it is indexed only to name a collision.
    values[i] is the function's value at points[i], and frontier
    must be a proven lower bound for the function on every domain point
    outside the region.  When frontier fails to clear value_bound the
    check is inconclusive and FrontierNotClosed is raised: a larger
    region (or smaller value range) is needed, and silence would be
    indistinguishable from confirmation.

    A collision reports the first repeated value in point order, with
    the first point that attained it.
    """
    if value_bound < 0:
        raise ValueError(
            f"value bound must be nonnegative, got {to_decimal(value_bound)}"
        )
    if frontier <= value_bound:
        raise FrontierNotClosed(
            f"outside lower bound {to_decimal(frontier)} does not exceed value "
            f"bound {to_decimal(value_bound)}; enlarge the region to certify gaps"
        )
    if len(points) != len(values):
        raise ValueError(
            f"{len(points)} points but {len(values)} values; need one value per point"
        )
    attained = set(values)
    collision: Optional[Collision] = None
    if len(attained) < len(values):
        first: dict[int, int] = {}
        for i, v in enumerate(values):
            j = first.setdefault(v, i)
            if j != i:
                collision = Collision(p1=points[j], p2=points[i], value=v)
                break
    if attained.issuperset(range(value_bound + 1)):
        gaps: tuple[int, ...] = ()
    else:
        gaps = tuple(v for v in range(value_bound + 1) if v not in attained)
    return PackingVerdict(
        injective_on_box=collision is None,
        collision=collision,
        covered_upto=value_bound,
        gaps=gaps,
        frontier_bound_used=frontier,
    )


def quadrant_box_points(box_bound: int) -> Iterable[tuple[int, int]]:
    """All of [0, box_bound]^2 in diagonal enumeration order."""
    for k in range(2 * box_bound + 1):
        for x in range(min(k, box_bound), -1, -1):
            y = k - x
            if y <= box_bound:
                yield (x, y)


def verify_quadratic_packing(
    F: QuadPoly2, box_bound: int, value_bound: int
) -> PackingVerdict:
    """Packing check for a standard-form quadratic over [0, box_bound]^2.

    The frontier bound comes from the quadrant growth estimates, which
    need the structural conditions and quadrant positivity; candidates
    failing those are refuted by classify, not checked here.
    """
    if box_bound < 0:
        raise ValueError(f"box bound must be nonnegative, got {to_decimal(box_bound)}")
    failures = validate(F)
    if failures:
        raise ValueError(f"{F} fails {failures[0].name}")
    points = list(quadrant_box_points(box_bound))
    return verify_packing_bruteforce(
        points,
        [F.evaluate(x, y) for x, y in points],
        value_bound,
        quadrant_outside_min(F, box_bound),
    )


def verify_sector_packing(
    spec: SectorSpec, which: WhichPolynomial, min_points: int = 3000
) -> PackingVerdict:
    """Packing verdict for a sector polynomial on an enumeration prefix.

    The value range is chosen as large as the frontier bound allows, so
    the verdict says that the prefix attains every value the whole
    sector can place below that bound, each exactly once.  That holds
    by proof, not by a scan: both polynomials map the sector onto
    0, 1, 2, ... bijectively (see the sector module), so no value
    repeats, and each value below the frontier is attained by a point
    that cannot lie outside the prefix.

    The prefix ends at some point (x, y) of column x.  Columns beyond x
    are covered by sector_tail_min.  The rest of column x, if any, is
    covered by its top point (x, floor(r x / s)): both polynomials are
    non-increasing in y on a column.  A step y -> y + 1 moves q = x - dy
    down by d >= 1, so the segment base B(q) (see the sector module)
    drops by B(q) - B(q - d) >= d, while the offset along the segment,
    y for the lower polynomial and rq - y for the upper, rises by at
    most one.

    Only the column heights are walked, to find x; at most the top
    point is evaluated.  An unknown polynomial is rejected before the
    walk.
    """
    if min_points < 1:
        raise ValueError(f"need at least one point, got {to_decimal(min_points)}")
    _require_which(which)
    x_cut, height = _last_column(spec, min_points)
    top = spec.r * x_cut // spec.s
    frontier = sector_tail_min(spec, x_cut + 1)
    if height <= top:
        frontier = min(frontier, sector_evaluate(spec, which, x_cut, top))
    return PackingVerdict(True, None, frontier - 1, (), frontier)
