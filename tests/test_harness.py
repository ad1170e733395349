"""Finite-prefix packing verification: frontier logic, verdicts, adapters."""

import random
import time

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
from packpoly import sector as sector_module

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

    def test_negative_box_bound(self):
        for box_bound in (-1, -self.BIG):
            with pytest.raises(ValueError, match="box bound must be nonnegative"):
                verify_quadratic_packing(C1, box_bound, 10)


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
    def test_prefix_is_never_listed(self, r, s, monkeypatch):
        evaluations = 0

        def forbidden(*args):
            raise AssertionError("the prefix must not be built as a list")

        def counted(original):
            def wrapper(*args):
                nonlocal evaluations
                evaluations += 1
                return original(*args)

            return wrapper

        for module in (bruteforce_module, sector_module):
            monkeypatch.setattr(module, "sector_enumerate", forbidden, raising=False)
            monkeypatch.setattr(
                module, "sector_evaluate", counted(module.sector_evaluate)
            )
        spec = SectorSpec(r, s)
        for which in ("F", "G"):
            for count in (1, 2, 3, 10, 57, 500, 3000):
                evaluations = 0
                verify_sector_packing(spec, which, count)
                # at most the cut column's top point; the prefix itself
                # is never evaluated
                assert evaluations <= 1

    @pytest.mark.parametrize("which", ["F", "G"])
    def test_trillion_point_prefix(self, which):
        # slope 1/2: columns 2m and 2m + 1 hold m + 1 points, so the
        # first 10^12 = 999999 * 10^6 + 10^6 points fill column 1999998
        # to its top.  Columns from 1999999 on start at segment 10^6,
        # whose base is 10^6 (10^6 + 1)/2.
        start = time.monotonic()
        assert verify_sector_packing(SectorSpec(1, 2), which, 10**12) == (
            PackingVerdict(True, None, 500000499999, (), 500000500000)
        )
        assert time.monotonic() - start < 10.0

    def test_unknown_polynomial_rejected_before_the_walk(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the columns must not be walked")

        monkeypatch.setattr(bruteforce_module, "_last_column", forbidden)
        with pytest.raises(ValueError, match="which must be 'F' or 'G', got 'H'"):
            verify_sector_packing(SectorSpec(1, 2), "H", 10**9)


def dict_scan_verdict(points, values, value_bound, frontier):
    return verify_packing_by_dict_scan(
        dict(zip(points, values)).__getitem__, points, value_bound, frontier
    )


class TestSectorPrefixCollisions:
    """A sector polynomial never collides, so planted values are what
    reach the harness's collision and gap paths on a sector prefix."""

    @pytest.mark.parametrize("r,s", SLOPES)
    def test_planted_repeats_and_gaps(self, r, s):
        spec = SectorSpec(r, s)
        rng = random.Random(r * 100 + s)
        for which in ("F", "G"):
            for count in (2, 3, 57, 500):
                points = sector_prefix(spec, count)
                clean = [sector_value_by_numerator(spec, which, *p) for p in points]
                bound = max(clean)
                for _ in range(20):
                    values = list(clean)
                    j, k = sorted(rng.sample(range(count), 2))
                    values[k] = values[j]  # a repeat, and a gap at clean[k]
                    if count > 2 and rng.random() < 0.5:
                        # a second repeat that keeps the first
                        m = rng.choice([i for i in range(count) if i not in (j, k)])
                        source = rng.choice([i for i in range(count) if i != m])
                        values[m] = values[source]
                    expected = dict_scan_verdict(points, values, bound, bound + 1)
                    assert not expected.injective_on_box
                    assert expected.gaps
                    assert verify_packing_bruteforce(
                        points, values, bound, bound + 1
                    ) == expected, (which, count, j, k)

    @pytest.mark.parametrize("r,s", SLOPES)
    def test_planted_gap_alone(self, r, s):
        spec = SectorSpec(r, s)
        for which in ("F", "G"):
            points = sector_prefix(spec, 500)
            values = [sector_value_by_numerator(spec, which, *p) for p in points]
            bound = max(values)
            values[-7] = bound + 10  # past the bound: a gap, no repeat
            expected = dict_scan_verdict(points, values, bound, bound + 11)
            assert expected.injective_on_box and expected.gaps
            assert verify_packing_bruteforce(
                points, values, bound, bound + 11
            ) == expected


class TestSectorPackingMatchesDictScan:
    @settings(max_examples=150, deadline=None)
    @given(
        slope=st.sampled_from(SLOPES),
        which=st.sampled_from(["F", "G"]),
        count=st.integers(1, 5000),
    )
    def test_verdicts_agree(self, slope, which, count):
        self.assert_agree(SectorSpec(*slope), which, count)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 60),
        d=st.integers(1, 30),
        which=st.sampled_from(["F", "G"]),
        count=st.integers(1, 2000),
    )
    def test_verdicts_agree_on_any_slope(self, r, d, which, count):
        self.assert_agree(SectorSpec(r, r * d + 1), which, count)

    @pytest.mark.parametrize("which", ["F", "G"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_seven_hundred_digit_slope(self, d, which):
        # s = r*d + 1 with r of 700 digits, so values run to 700 digits,
        # past the least int-str limit
        r = 7 * 10**699 + 3
        spec = SectorSpec(r, r * d + 1)
        for count in range(1, 201):
            self.assert_agree(spec, which, count)

    @staticmethod
    def assert_agree(spec, which, count):
        frontier = sector_prefix_frontier(spec, which, count)
        expected = verify_packing_by_dict_scan(
            lambda pt: sector_value_by_numerator(spec, which, *pt),
            sector_prefix(spec, count),
            frontier - 1,
            frontier,
        )
        assert expected.is_packing_prefix
        assert verify_sector_packing(spec, which, count) == expected
