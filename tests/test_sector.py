"""Sector packing polynomials: membership, evaluation, enumeration, inversion."""

import math
import random

import pytest
from oracles import sector_column, sector_prefix, sector_value_by_numerator

from packpoly import (
    InvalidSectorSpec,
    NotInSector,
    SectorDivisibilityError,
    SectorSpec,
    sector_contains,
    sector_enumerate,
    sector_evaluate,
    sector_F,
    sector_G,
    sector_tail_min,
    sector_unpack,
)
from packpoly import sector as sector_module

ACCEPTED_SPECS = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (3, 4)]
# slopes with r >= 3 and d >= 2, which ACCEPTED_SPECS lacks
UNPACK_SPECS = ACCEPTED_SPECS + [(3, 7), (4, 9), (5, 11)]


def segment_base(r, q):
    """Least value on the segment x - dy = q, whose values fill [B, B + rq]."""
    return r * q * (q - 1) // 2 + q


def numerator_coeffs(spec, which):
    """Recover the six numerator coefficients from values at sector points.

    Uses finite differences at a base column deep enough that all sample
    points satisfy s*y <= r*x.  Exact for any quadratic.
    """
    x0 = 3 * spec.s

    def N(x, y):
        return 2 * sector_evaluate(spec, which, x, y)

    A2 = N(x0 + 2, 0) - 2 * N(x0 + 1, 0) + N(x0, 0)
    B = N(x0 + 1, 1) - N(x0 + 1, 0) - N(x0, 1) + N(x0, 0)
    C2 = N(x0, 2) - 2 * N(x0, 1) + N(x0, 0)
    assert A2 % 2 == 0 and C2 % 2 == 0
    A, C = A2 // 2, C2 // 2
    D = N(x0 + 1, 0) - N(x0, 0) - A * (2 * x0 + 1)
    E = N(x0, 1) - N(x0, 0) - B * x0 - C
    F = N(x0, 0) - A * x0 * x0 - D * x0
    return (A, B, C, D, E, F)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "r,s,d",
        [(1, 2, 1), (1, 3, 2), (1, 6, 5), (2, 3, 1), (2, 5, 2), (3, 4, 1), (4, 13, 3)],
    )
    def test_divisor_field(self, r, s, d):
        spec = SectorSpec(r, s)
        assert spec.d == d
        assert spec.r * spec.d == spec.s - 1

    @pytest.mark.parametrize("r,s", [(1, 1), (3, 2), (2, 2), (0, 2), (2, 6), (2, 4)])
    def test_slope_and_gcd_rejected(self, r, s):
        with pytest.raises(InvalidSectorSpec):
            SectorSpec(r, s)

    @pytest.mark.parametrize("r,s", [(3, 5), (3, 8), (4, 7), (5, 13)])
    def test_non_divisor_rejected(self, r, s):
        with pytest.raises(SectorDivisibilityError):
            SectorSpec(r, s)


class TestMembership:
    def test_listed_points(self):
        half = SectorSpec(1, 2)
        assert sector_contains(half, 2, 1)
        assert not sector_contains(half, 1, 1)
        assert sector_contains(SectorSpec(2, 3), 3, 2)  # boundary

    def test_membership_is_exact_on_boundary(self):
        spec = SectorSpec(3, 4)
        for x in range(0, 200, 4):
            assert sector_contains(spec, x, (3 * x) // 4)
            assert not sector_contains(spec, x, (3 * x) // 4 + 1)

    def test_negative_coordinates_outside(self):
        spec = SectorSpec(1, 2)
        assert not sector_contains(spec, -1, 0)
        assert not sector_contains(spec, 4, -1)


class TestEvaluation:
    def test_listed_values_first_polynomial(self):
        half = SectorSpec(1, 2)
        assert sector_F(half, 0, 0) == 0
        assert sector_F(half, 2, 1) == 2
        assert sector_F(half, 4, 2) == 5

    def test_listed_values_second_polynomial(self):
        assert sector_G(SectorSpec(1, 2), 0, 0) == 0
        assert sector_G(SectorSpec(1, 2), 1, 0) == 2
        assert sector_G(SectorSpec(1, 3), 1, 0) == 2

    def test_points_outside_sector_rejected(self):
        spec = SectorSpec(1, 2)
        for bad in [(1, 1), (0, 1), (3, 2), (-2, 0)]:
            with pytest.raises(NotInSector):
                sector_F(spec, *bad)
            with pytest.raises(NotInSector):
                sector_G(spec, *bad)

    @pytest.mark.parametrize("s", range(2, 10))
    def test_unit_numerator_specialization(self, s):
        # for r = 1 the numerators match the direct displays
        # (x-(s-1)y)^2 + x + (3-s)y  and  (x-(s-1)y)^2 + 3x + (1-3s)y
        spec = SectorSpec(1, s)
        t = s - 1
        assert numerator_coeffs(spec, "F") == (1, -2 * t, t * t, 1, 3 - s, 0)
        assert numerator_coeffs(spec, "G") == (1, -2 * t, t * t, 3, 1 - 3 * s, 0)

    def test_numerators_even_on_sector(self):
        rng = random.Random(47)
        for r, s in ACCEPTED_SPECS:
            spec = SectorSpec(r, s)
            for _ in range(200):
                x = rng.randint(0, 10**9)
                y = rng.randint(0, (r * x) // s)
                for which in ("F", "G"):
                    v = sector_evaluate(spec, which, x, y)
                    assert isinstance(v, int) and v >= 0

    @pytest.mark.parametrize("r,s", UNPACK_SPECS)
    def test_segment_form_matches_numerators(self, r, s):
        spec = SectorSpec(r, s)
        rng = random.Random(r * 100 + s)
        points = sector_enumerate(spec, 1500)
        for _ in range(200):
            x = rng.randint(0, 10**30)
            points.append((x, rng.randint(0, r * x // s)))
        for x, y in points:
            assert sector_F(spec, x, y) == sector_value_by_numerator(spec, "F", x, y)
            assert sector_G(spec, x, y) == sector_value_by_numerator(spec, "G", x, y)

    def test_dispatch_matches_direct_calls(self):
        spec = SectorSpec(2, 5)
        for x, y in sector_enumerate(spec, 100):
            assert sector_evaluate(spec, "F", x, y) == sector_F(spec, x, y)
            assert sector_evaluate(spec, "G", x, y) == sector_G(spec, x, y)
        with pytest.raises(ValueError):
            sector_evaluate(spec, "H", 0, 0)


class TestEnumeration:
    def test_listed_prefix(self):
        assert sector_enumerate(SectorSpec(1, 2), 4) == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_empty_prefix(self):
        assert sector_enumerate(SectorSpec(2, 3), 0) == []

    @pytest.mark.parametrize("r,s", ACCEPTED_SPECS)
    def test_order_and_completeness(self, r, s):
        spec = SectorSpec(r, s)
        pts = sector_enumerate(spec, 500)
        assert len(pts) == 500
        assert pts == sorted(pts)
        assert len(set(pts)) == 500
        for x, y in pts:
            assert sector_contains(spec, x, y)
        # nothing below the last point is skipped
        last = pts[-1]
        full = []
        for x in range(last[0] + 1):
            full.extend(sector_column(spec, x))
        expected = [p for p in full if p <= last]
        assert pts == expected

    def test_column_contents(self):
        # columns 0, 1, 2, 3 of slope 2/3 hold 1, 1, 2 and 3 points
        assert sector_enumerate(SectorSpec(2, 3), 7) == [
            (0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
        ]


class TestSectorPrefix:
    @pytest.mark.parametrize("r,s", ACCEPTED_SPECS)
    def test_matches_column_oracle(self, r, s):
        spec = SectorSpec(r, s)
        for count in [*range(401), 3000]:
            assert sector_enumerate(spec, count) == sector_prefix(spec, count)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sector_enumerate(SectorSpec(1, 2), -1)


class TestTailMin:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (1, 4), (3, 4)])
    def test_lower_bounds_observed_values(self, r, s):
        spec = SectorSpec(r, s)
        pts = sector_enumerate(spec, 20000)
        for which in ("F", "G"):
            values = [(x, sector_evaluate(spec, which, x, y)) for x, y in pts]
            for x_from in range(0, 40):
                bound = sector_tail_min(spec, x_from)
                observed = min(v for x, v in values if x >= x_from)
                assert bound <= observed

    def test_bound_is_monotone_and_unbounded(self):
        spec = SectorSpec(2, 5)
        prev = -1
        for x_from in range(0, 500):
            b = sector_tail_min(spec, x_from)
            assert b >= prev
            prev = b
        assert sector_tail_min(spec, 10**6) > 10**10

    def test_bound_is_reasonably_tight(self):
        # the bound must eventually grow quadratically or the frontier of
        # verify_sector_packing stalls
        spec = SectorSpec(1, 2)
        x = 1000
        assert sector_tail_min(spec, x) > (x // 2) ** 2 // 4


class TestUnpack:
    def test_listed_inversions(self):
        spec = SectorSpec(1, 2)
        assert sector_unpack(spec, "F", 0) == (0, 0)
        assert sector_unpack(spec, "F", 2) == (2, 1)
        assert sector_unpack(spec, "F", 5) == (4, 2)

    @pytest.mark.parametrize("r,s", UNPACK_SPECS)
    def test_round_trip_on_prefix(self, r, s):
        spec = SectorSpec(r, s)
        pts = sector_enumerate(spec, 3000)
        for which in ("F", "G"):
            for p in pts:
                n = sector_evaluate(spec, which, *p)
                assert sector_unpack(spec, which, n) == p

    @pytest.mark.parametrize("r,s", UNPACK_SPECS)
    def test_segment_edges(self, r, s):
        # B(q) - 1 ends segment q - 1, B(q) starts segment q and
        # B(q) + rq ends it; an off-by-one in the square root shows here
        spec = SectorSpec(r, s)
        qs = list(range(1, 300)) + [10**k + j for k in range(3, 7) for j in (-1, 0, 1)]
        for which in ("F", "G"):
            for q in qs:
                base = segment_base(r, q)
                for n, seg in ((base - 1, q - 1), (base, q), (base + r * q, q)):
                    x, y = sector_unpack(spec, which, n)
                    assert sector_contains(spec, x, y)
                    assert x - spec.d * y == seg
                    assert sector_evaluate(spec, which, x, y) == n

    @pytest.mark.parametrize("r,s", UNPACK_SPECS)
    def test_six_hundred_digit_value(self, r, s):
        spec = SectorSpec(r, s)
        n = 10**599 + random.Random(r * 100 + s).randrange(10**599)
        for which in ("F", "G"):
            x, y = sector_unpack(spec, which, n)
            assert sector_evaluate(spec, which, x, y) == n

    def test_no_point_is_evaluated(self, monkeypatch):
        spec = SectorSpec(3, 7)
        point = (10**40 + 7, 10**39)
        values = {which: sector_evaluate(spec, which, *point) for which in ("F", "G")}

        def forbidden(*args):
            raise AssertionError("sector_unpack must not search")

        monkeypatch.setattr(sector_module, "sector_enumerate", forbidden)
        monkeypatch.setattr(sector_module, "sector_evaluate", forbidden)
        for which, n in values.items():
            assert sector_unpack(spec, which, n) == point

    def test_moderately_large_value(self):
        spec = SectorSpec(1, 2)
        n = sector_F(spec, 200, 50)
        assert sector_unpack(spec, "F", n) == (200, 50)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            sector_unpack(SectorSpec(1, 2), "F", -1)


class TestBijectivityPrefix:
    @pytest.mark.parametrize("r,s", ACCEPTED_SPECS)
    def test_values_fill_an_initial_segment(self, r, s):
        spec = SectorSpec(r, s)
        pts = sector_enumerate(spec, 3000)
        last = pts[-1]
        leftover = [p for p in sector_column(spec, last[0]) if p > last]
        for which in ("F", "G"):
            values = {sector_evaluate(spec, which, *p) for p in pts}
            assert len(values) == 3000  # injective on the prefix
            frontier = sector_tail_min(spec, last[0] + 1)
            for p in leftover:  # cut column remainder is outside too
                frontier = min(frontier, sector_evaluate(spec, which, *p))
            covered = set(range(frontier))
            assert covered <= values  # gap-free below the frontier
