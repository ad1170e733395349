"""Finite-prefix packing verification: frontier logic, verdicts, adapters."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    sector_prefix,
    sector_prefix_frontier,
    sector_value_by_numerator,
    verify_packing_by_dict_scan,
)

from packpoly import (
    FrontierNotClosed,
    PackingVerdict,
    QuadPoly2,
    SectorSpec,
    quadrant_box_points,
    quadrant_outside_min,
    verify_packing_bruteforce,
    verify_quadratic_packing,
    verify_sector_packing,
)
from packpoly import bruteforce as bruteforce_module
from packpoly.sector import sector_values

C1 = QuadPoly2(1, 1, 1, 1, 3, 0)
C2 = QuadPoly2(1, 1, 1, 3, 1, 0)
SLOPES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
    (2, 5), (3, 4), (3, 7), (4, 9), (5, 11), (4, 13),
]


class TestGenericHarness:
    def test_identity_map_packs(self):
        points = [(i,) for i in range(51)]
        verdict = verify_packing_bruteforce(
            points=points,
            values=[pt[0] for pt in points],
            value_bound=50,
            frontier=51,
        )
        assert verdict.is_packing_prefix
        assert verdict.covered_upto == 50
        assert verdict.frontier_bound_used == 51

    def test_doubling_map_reports_every_gap(self):
        B = 30
        points = [(i,) for i in range(B + 1)]
        verdict = verify_packing_bruteforce(
            points=points,
            values=[2 * pt[0] for pt in points],
            value_bound=2 * B + 1,
            frontier=2 * B + 2,
        )
        assert verdict.injective_on_box
        assert verdict.gaps == tuple(range(1, 2 * B + 2, 2))
        assert not verdict.is_packing_prefix

    def test_first_collision_is_kept(self):
        verdict = verify_packing_bruteforce(
            points=[(0,), (1,), (2,)],
            values=[7, 7, 7],
            value_bound=7,
            frontier=8,
        )
        assert not verdict.injective_on_box
        assert verdict.collision.p1 == (0,)
        assert verdict.collision.p2 == (1,)
        assert verdict.collision.value == 7

    def test_open_frontier_is_loud(self):
        with pytest.raises(FrontierNotClosed):
            verify_packing_bruteforce(
                points=[(i,) for i in range(11)],
                values=list(range(11)),
                value_bound=11,
                frontier=11,
            )

    def test_negative_value_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_packing_bruteforce(
                points=[],
                values=[],
                value_bound=-1,
                frontier=1,
            )

    def test_one_value_per_point_required(self):
        with pytest.raises(ValueError, match="one value per point"):
            verify_packing_bruteforce([(0,), (1,)], [0], 1, 2)


class TestHarnessMatchesDictScan:
    """The set-based harness against the callback dict-scan oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                st.integers(-5, 45),
            ),
            max_size=60,
            unique_by=lambda pair: pair[0],
        ),
        value_bound=st.integers(0, 40),
        margin=st.integers(1, 5),
    )
    def test_verdicts_agree(self, pairs, value_bound, margin):
        points = [pt for pt, _ in pairs]
        values = [v for _, v in pairs]
        frontier = value_bound + margin
        expected = verify_packing_by_dict_scan(
            dict(pairs).__getitem__, points, value_bound, frontier
        )
        verdict = verify_packing_bruteforce(points, values, value_bound, frontier)
        assert verdict == expected


class TestQuadrantEnumeration:
    def test_small_box_order(self):
        assert list(quadrant_box_points(2)) == [
            (0, 0),
            (1, 0), (0, 1),
            (2, 0), (1, 1), (0, 2),
            (2, 1), (1, 2),
            (2, 2),
        ]

    def test_counts_and_coverage(self):
        pts = list(quadrant_box_points(17))
        assert len(pts) == 18 * 18
        assert len(set(pts)) == 18 * 18
        assert all(0 <= x <= 17 and 0 <= y <= 17 for x, y in pts)


class TestQuadraticPacking:
    @pytest.mark.parametrize("F", [C1, C2], ids=["first", "second"])
    def test_packing_tuples_verify_clean(self, F):
        verdict = verify_quadratic_packing(F, 100, 5000)
        assert verdict.is_packing_prefix
        assert verdict.collision is None
        assert verdict.gaps == ()
        assert verdict.frontier_bound_used == quadrant_outside_min(F, 100)

    @pytest.mark.parametrize("F", [C1, C2], ids=["first", "second"])
    def test_packing_tuples_verify_clean_wider(self, F):
        assert verify_quadratic_packing(F, 200, 20000).is_packing_prefix

    def test_shifted_tuple_misses_zero(self):
        verdict = verify_quadratic_packing(QuadPoly2(1, 1, 1, 1, 3, 1), 50, 1000)
        assert verdict.injective_on_box
        assert verdict.gaps[0] == 0
        assert not verdict.is_packing_prefix

    def test_sum_of_squares_form_fails_both_ways(self):
        verdict = verify_quadratic_packing(QuadPoly2(1, 0, 1, 1, 1, 0), 100, 5000)
        assert not verdict.injective_on_box
        assert {verdict.collision.p1, verdict.collision.p2} == {(1, 0), (0, 1)}
        assert verdict.collision.value == 1
        assert 19 in verdict.gaps  # the class 19 mod 121 is never attained

    def test_region_too_small_raises(self):
        with pytest.raises(FrontierNotClosed):
            verify_quadratic_packing(C1, 10, 10000)

    def test_structurally_invalid_rejected(self):
        with pytest.raises(ValueError):
            verify_quadratic_packing(QuadPoly2(1, 1, 1, 2, 3, 0), 10, 10)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            verify_quadratic_packing(QuadPoly2(1, -2, 1, 1, 1, 0), 10, 10)


class TestTypedErrorsPastTheIntStrLimit:
    BIG = 10**5000

    def test_open_frontier(self):
        with pytest.raises(FrontierNotClosed):
            F = QuadPoly2(1, 1, 1, 1, 3, self.BIG)
            verify_quadratic_packing(F, 3, 10 * self.BIG)

    def test_structural_failure(self):
        with pytest.raises(ValueError, match="fails"):
            verify_quadratic_packing(QuadPoly2(1, 1, 1, 2, 3, self.BIG), 3, 10)

    def test_negative_value_bound(self):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_packing_bruteforce([], [], -self.BIG, 1)


class TestSectorPacking:
    def test_reference_spec_packs(self):
        for which in ("F", "G"):
            verdict = verify_sector_packing(SectorSpec(2, 3), which)
            assert isinstance(verdict, PackingVerdict)
            assert verdict.is_packing_prefix
            assert verdict.covered_upto == verdict.frontier_bound_used - 1
            assert verdict.covered_upto > 1000

    def test_point_budget_validated(self):
        with pytest.raises(ValueError):
            verify_sector_packing(SectorSpec(1, 2), "F", min_points=0)

    @pytest.mark.parametrize("r,s", SLOPES)
    def test_frontier_matches_column_scan(self, r, s):
        spec = SectorSpec(r, s)
        for which in ("F", "G"):
            for count in [*range(1, 401), 3000]:
                verdict = verify_sector_packing(spec, which, count)
                frontier = sector_prefix_frontier(spec, which, count)
                assert verdict.frontier_bound_used == frontier, (which, count)
                assert verdict.covered_upto == frontier - 1
                assert verdict.is_packing_prefix

    @pytest.mark.parametrize("r,s", SLOPES)
    def test_prefix_is_enumerated_once(self, r, s, monkeypatch):
        calls = {"sector_enumerate": 0, "sector_evaluate": 0}

        def counted(name):
            original = getattr(bruteforce_module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bruteforce_module, name, counted(name))
        spec = SectorSpec(r, s)
        for which in ("F", "G"):
            for count in (1, 2, 3, 10, 57, 500, 3000):
                for name in calls:
                    calls[name] = 0
                verify_sector_packing(spec, which, count)
                assert calls["sector_enumerate"] == 1
                # at most the cut column's top point; the prefix is
                # evaluated in bulk
                assert calls["sector_evaluate"] <= 1

    @pytest.mark.parametrize("r,s", SLOPES)
    def test_bulk_values_match_numerators(self, r, s):
        spec = SectorSpec(r, s)
        points = sector_prefix(spec, 3000)
        for which in ("F", "G"):
            assert sector_values(spec, which, points) == [
                sector_value_by_numerator(spec, which, x, y) for x, y in points
            ], which

    def test_bulk_values_reject_unknown_polynomial(self):
        with pytest.raises(ValueError):
            sector_values(SectorSpec(1, 2), "H", [(0, 0)])
