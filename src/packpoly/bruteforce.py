"""Brute-force verification of packing behavior on finite prefixes.

A packing function claim has two halves: injectivity and the absence of
gaps.  Both are checkable on a finite region once something certifies
that every point outside the region takes values beyond the range under
inspection; that certificate is the frontier bound, and the verdict
records which bound made the check conclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .classifier import Collision
from .errors import FrontierNotClosed
from .quadratic import (
    QuadPoly2,
    is_positive_definite_on_quadrant,
    quadrant_outside_min,
    validate,
)
from .sector import (
    SectorSpec,
    WhichPolynomial,
    sector_column_points,
    sector_enumerate,
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
    evaluator: Callable[[PointM], int],
    domain_enumerator: Callable[[int], Iterable[PointM]],
    box_bound: int,
    value_bound: int,
    outside_lower_bound: Callable[[int], int],
) -> PackingVerdict:
    """Check injectivity and gap-freeness over an enumerated region.

    domain_enumerator(box_bound) must yield every domain point of the
    region, each exactly once, and outside_lower_bound(box_bound) must
    return a proven lower bound for the evaluator on every domain point
    it does not yield.  When that bound fails to clear value_bound the
    check is inconclusive and FrontierNotClosed is raised: a larger
    region (or smaller value range) is needed, and silence would be
    indistinguishable from confirmation.
    """
    if value_bound < 0:
        raise ValueError(f"value bound must be nonnegative, got {value_bound}")
    frontier = outside_lower_bound(box_bound)
    if frontier <= value_bound:
        raise FrontierNotClosed(
            f"outside lower bound {frontier} does not exceed value bound "
            f"{value_bound}; enlarge the region to certify gaps"
        )
    seen: dict[int, PointM] = {}
    collision: Optional[Collision] = None
    for pt in domain_enumerator(box_bound):
        v = evaluator(pt)
        if collision is None and v in seen:
            collision = Collision(p1=seen[v], p2=pt, value=v)
        else:
            seen.setdefault(v, pt)
    gaps = tuple(v for v in range(value_bound + 1) if v not in seen)
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
    if not validate(F).ok:
        raise ValueError(f"{F} fails structural validation")
    if not is_positive_definite_on_quadrant(F):
        raise ValueError(f"{F} has no quadrant-positive quadratic part")
    return verify_packing_bruteforce(
        evaluator=lambda pt: F.evaluate(*pt),
        domain_enumerator=quadrant_box_points,
        box_bound=box_bound,
        value_bound=value_bound,
        outside_lower_bound=lambda B: quadrant_outside_min(F, B),
    )


def _sector_prefix_outside_min(
    spec: SectorSpec, which: WhichPolynomial, count: int
) -> int:
    """Proven lower bound beyond the first `count` enumerated sector points.

    The prefix may cut a column mid-way; the rest of that column is
    finite and evaluated exactly, and the growth bound covers all later
    columns.
    """
    prefix = sector_enumerate(spec, count)
    if not prefix:
        return sector_tail_min(spec, 0)
    x_cut, y_cut = prefix[-1]
    bound = sector_tail_min(spec, x_cut + 1)
    for x, y in sector_column_points(spec, x_cut):
        if y > y_cut:
            bound = min(bound, sector_evaluate(spec, which, x, y))
    return bound


def verify_sector_packing(
    spec: SectorSpec, which: WhichPolynomial, min_points: int = 3000
) -> PackingVerdict:
    """Packing check for a sector polynomial on an enumeration prefix.

    The value range is chosen as large as the frontier bound allows, so
    a clean verdict means the prefix attains every value the whole
    sector can place below that bound, each exactly once.
    """
    if min_points < 1:
        raise ValueError(f"need at least one point, got {min_points}")
    frontier = _sector_prefix_outside_min(spec, which, min_points)
    return verify_packing_bruteforce(
        evaluator=lambda pt: sector_evaluate(spec, which, *pt),
        domain_enumerator=lambda count: sector_enumerate(spec, count),
        box_bound=min_points,
        value_bound=frontier - 1,
        outside_lower_bound=lambda count: _sector_prefix_outside_min(
            spec, which, count
        ),
    )
