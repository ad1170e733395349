"""Quadratic structural checks against independent evaluation oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    gap_box_bound_by_bisection,
    quadrant_outside_min_by_scan,
    region_counts_bruteforce,
)

from packpoly import (
    CANTOR1,
    CANTOR2,
    InvalidM,
    OddNumerator,
    QuadPoly2,
    diagonal_tail_min,
    gap_box_bound,
    is_positive_definite_on_quadrant,
    quadrant_outside_min,
    region_counts,
    square_completion,
    validate,
)
from packpoly.quadratic import convex_tail_min, definiteness_witness


def fraction_value(F, x, y):
    """Independent route: exact rational evaluation, no halving tricks."""
    return (
        Fraction(F.a * x * x + 2 * F.b * x * y + F.c * y * y, 2)
        + Fraction(F.d * x + F.e * y, 2)
        + F.f
    )


def horner_value(F, x, y):
    """Second independent route: Horner in x over rationals."""
    inner = Fraction(F.a, 2) * x + Fraction(2 * F.b * y + F.d, 2)
    return inner * x + Fraction(F.c * y * y + F.e * y, 2) + F.f


small_coeff = st.integers(min_value=-8, max_value=8)
small_point = st.integers(min_value=0, max_value=100)


class TestEvaluation:
    def test_listed_values(self):
        assert CANTOR1.evaluate(1, 1) == 4
        assert QuadPoly2(1, 0, 1, 1, 1, 0).evaluate(1, 1) == 2

    def test_value_at_origin_is_constant_term(self):
        for f in range(-3, 4):
            assert QuadPoly2(1, 1, 1, 1, 3, f).doubled_value(0, 0) == 2 * f

    @given(small_coeff, small_coeff, small_coeff, small_coeff, small_coeff,
           small_coeff, small_point, small_point)
    def test_agrees_with_fraction_oracle(self, a, b, c, d, e, f, x, y):
        F = QuadPoly2(a, b, c, d, e, f)
        exact = fraction_value(F, x, y)
        assert exact == horner_value(F, x, y)
        assert F.doubled_value(x, y) == 2 * exact
        if exact.denominator == 1:
            assert F.evaluate(x, y) == exact
        else:
            with pytest.raises(OddNumerator):
                F.evaluate(x, y)

    def test_odd_numerator_past_the_int_str_limit(self):
        big = 10**5000 + 1
        with pytest.raises(OddNumerator, match="is odd"):
            QuadPoly2(1, 0, 1, 0, 0, 0).evaluate(big, 0)

    def test_repr_is_the_dataclass_repr_at_any_size(self):
        assert repr(QuadPoly2(1, -1, 2, 3, 0, 4)) == (
            "QuadPoly2(a=1, b=-1, c=2, d=3, e=0, f=4)"
        )
        text = repr(QuadPoly2(1, 1, 1, 1, 3, 10**5000))
        assert text == "QuadPoly2(a=1, b=1, c=1, d=1, e=3, f=1" + "0" * 5000 + ")"

    def test_parity_valid_tuples_always_evaluate(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c, f = (rng.randint(-6, 6) for _ in range(4))
            d = a + 2 * rng.randint(-3, 3)
            e = c + 2 * rng.randint(-3, 3)
            F = QuadPoly2(a, b, c, d, e, f)
            x, y = rng.randint(0, 50), rng.randint(0, 50)
            assert F.evaluate(x, y) == fraction_value(F, x, y)


class TestValidation:
    def test_both_packing_tuples_fully_pass(self):
        for F in (CANTOR1, CANTOR2):
            assert validate(F) == ()

    def test_parity_failure(self):
        names = {chk.name for chk in validate(QuadPoly2(1, 1, 1, 2, 3, 0))}
        assert names == {"a_d_parity"}

    def test_cross_term_failure(self):
        names = {chk.name for chk in validate(QuadPoly2(0, -1, 0, 0, 0, 0))}
        assert "cross_term_positive" in names

    def test_negative_leading_coefficient_carries_witness(self):
        F = QuadPoly2(-1, 0, 1, -1, 1, 0)
        (chk,) = [c for c in validate(F) if c.name == "a_nonnegative"]
        assert chk.witness is not None
        assert chk.doubled_value == F.doubled_value(*chk.witness)
        assert chk.doubled_value < 0
        assert chk.witness[1] == 0  # the witness lies on the x-axis

    def test_negative_constant_term(self):
        (chk,) = [
            c for c in validate(QuadPoly2(1, 1, 1, 1, 3, -1)) if c.name == "f_nonnegative"
        ]
        assert chk.witness == (0, 0)
        assert chk.doubled_value == -2

    def test_zero_quadratic_part(self):
        names = {chk.name for chk in validate(QuadPoly2(0, 0, 0, 2, 4, 1))}
        assert "quadratic_part_nonzero" in names

    def test_all_failures_witnesses_consistent(self):
        rng = random.Random(11)
        positivity = 0
        for _ in range(500):
            F = QuadPoly2(*(rng.randint(-5, 5) for _ in range(6)))
            for chk in validate(F):
                if chk.witness is None or chk.doubled_value is None:
                    continue
                if chk.name == "positive_definite_on_quadrant":
                    assert chk.doubled_value == F.quadratic_part_doubled(*chk.witness)
                    assert chk.doubled_value <= 0 and chk.witness != (0, 0)
                    positivity += 1
                else:
                    assert chk.doubled_value == F.doubled_value(*chk.witness)
        assert positivity > 0

    def test_positivity_is_checked_last_and_alone(self):
        # the structural failures hide an indefinite quadratic part; with
        # them mended, positivity is the one failure left
        assert [c.name for c in validate(QuadPoly2(1, -2, 1, 1, 0, 0))] == ["c_e_parity"]
        (chk,) = validate(QuadPoly2(1, -2, 1, 1, 1, 0))
        assert chk.name == "positive_definite_on_quadrant"
        assert chk.witness == (1, 2) and chk.doubled_value == -3
        for a in range(0, 4):
            for b in range(-4, 5):
                for c in range(0, 4):
                    F = QuadPoly2(a, b, c, a, c, 0)
                    if (a, b, c) == (0, 0, 0):
                        continue
                    if any(chk.name == "cross_term_positive" for chk in validate(F)):
                        continue
                    assert (validate(F) == ()) == is_positive_definite_on_quadrant(F)


class TestQuadrantPositivity:
    def brute_minimum(self, F, window=50):
        return min(
            F.quadratic_part_doubled(x, y)
            for x in range(window + 1)
            for y in range(window + 1)
            if (x, y) != (0, 0)
        )

    def test_examples(self):
        assert is_positive_definite_on_quadrant(QuadPoly2(1, 1, 1, 0, 0, 0))
        assert not is_positive_definite_on_quadrant(QuadPoly2(1, -2, 1, 0, 0, 0))
        assert not is_positive_definite_on_quadrant(QuadPoly2(0, 1, 0, 0, 0, 0))

    def test_rule_agrees_with_brute_force(self):
        for a in range(0, 7):
            for b in range(-6, 7):
                for c in range(0, 7):
                    F = QuadPoly2(a, b, c, 0, 0, 0)
                    claimed = is_positive_definite_on_quadrant(F)
                    # witness coordinates stay within the brute window:
                    # axes points and (c, -b) with c <= 6, -b <= 6
                    observed = self.brute_minimum(F) > 0
                    assert claimed == observed, (a, b, c)

    def test_witness_is_a_refutation(self):
        for a in range(0, 7):
            for b in range(-6, 7):
                for c in range(0, 7):
                    F = QuadPoly2(a, b, c, 0, 0, 0)
                    found = definiteness_witness(F)
                    if is_positive_definite_on_quadrant(F):
                        assert found is None
                    else:
                        pt, doubled = found
                        assert pt != (0, 0) and min(pt) >= 0
                        assert doubled == F.quadratic_part_doubled(*pt)
                        assert doubled <= 0


def completed_square(F, x, y):
    """(u, v, D u^2 - v^2 + r) at (x, y), with u = 2ax + 2by + d and
    v = 2Dy + (bd - ae) built from F's coefficients."""
    comp = square_completion(F)
    u = 2 * F.a * x + 2 * F.b * y + F.d
    v = 2 * comp.D * y + (F.b * F.d - F.a * F.e)
    return u, v, comp.D * u * u - v * v + comp.r


class TestSquareCompletion:
    def test_degenerate_discriminant_example(self):
        comp = square_completion(CANTOR1)
        assert comp.D == 0
        assert completed_square(CANTOR1, 0, 0)[1] == -2
        assert completed_square(CANTOR1, 0, 7)[1] == -2  # v has no y term
        assert comp.r == 4
        for x in range(5):
            for y in range(5):
                assert completed_square(CANTOR1, x, y)[2] == 0

    def test_negative_discriminant_example(self):
        F = QuadPoly2(1, 0, 1, 1, 1, 0)
        comp = square_completion(F)
        assert comp.D == -1 and comp.r == 2
        assert completed_square(F, 1, 1)[:2] == (3, -3)
        assert 8 * F.a * comp.D * F.evaluate(1, 1) == -16
        assert completed_square(F, 1, 1)[2] == -16

    @given(small_coeff, small_coeff, small_coeff, small_coeff, small_coeff,
           small_coeff, small_point, small_point)
    def test_identity_everywhere(self, a, b, c, d, e, f, x, y):
        F = QuadPoly2(a, b, c, d, e, f)
        comp = square_completion(F)
        lhs = 8 * F.a * comp.D * F.doubled_value(x, y)  # 16 a D F(x,y)
        assert lhs == 2 * completed_square(F, x, y)[2]

    def test_identity_with_zero_leading_term(self):
        rng = random.Random(3)
        for _ in range(200):
            F = QuadPoly2(0, rng.randint(-6, 6), rng.randint(-6, 6),
                          rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            comp = square_completion(F)
            x, y = rng.randint(0, 100), rng.randint(0, 100)
            assert 8 * F.a * comp.D * F.doubled_value(x, y) == 2 * completed_square(F, x, y)[2]

    def test_identity_with_zero_discriminant(self):
        rng = random.Random(4)
        for _ in range(200):
            b = rng.randint(-6, 6)
            a = rng.randint(1, 6)
            if b * b % a:
                continue
            F = QuadPoly2(a, b, b * b // a, rng.randint(-6, 6),
                          rng.randint(-6, 6), rng.randint(-6, 6))
            comp = square_completion(F)
            assert comp.D == 0
            x, y = rng.randint(0, 100), rng.randint(0, 100)
            assert completed_square(F, x, y)[2] == 0


class TestRegionCounts:
    def test_known_counts_at_two(self):
        counts = region_counts(2)
        assert counts.as_tuple() == (100, 675, 160, 207, 8)
        assert counts.total == 1150

    def test_closed_forms_match_brute_force(self):
        for m in range(2, 13):
            assert region_counts(m) == region_counts_bruteforce(m)

    def test_total_formula_and_bound(self):
        for m in range(2, 13):
            total = region_counts(m).total
            assert total == 283 * m * m + 9 * m
            assert total < 288 * m * m

    def test_first_region_closed_form(self):
        for m in range(2, 13):
            assert region_counts(m).n1 == 25 * m * m

    def test_scale_below_two_rejected(self):
        with pytest.raises(InvalidM):
            region_counts(1)
        with pytest.raises(InvalidM):
            region_counts_bruteforce(0)


class TestGrowthBounds:
    def test_convex_tail_minimum_matches_scan(self):
        rng = random.Random(5)
        for _ in range(300):
            alpha = rng.randint(1, 9)
            beta = rng.randint(-20, 40)
            gamma = rng.randint(-50, 50)
            start = rng.randint(0, 30)
            claimed = convex_tail_min(alpha, beta, gamma, start)
            scan = min(
                alpha * k * k - beta * k + gamma for k in range(start, start + 200)
            )
            assert claimed == scan

    def test_diagonal_bound_holds_on_samples(self):
        rng = random.Random(6)
        for _ in range(200):
            a, c = rng.randint(1, 5), rng.randint(1, 5)
            b = rng.randint(-5, 5)
            if b < 0 and b * b >= a * c:
                continue
            F = QuadPoly2(a, b, c, a + 2 * rng.randint(-2, 2),
                          c + 2 * rng.randint(-2, 2), rng.randint(0, 5))
            start = rng.randint(0, 40)
            bound = diagonal_tail_min(F, start)
            for _ in range(30):
                k = start + rng.randint(0, 40)
                x = rng.randint(0, k)
                assert F.evaluate(x, k - x) >= bound

    def test_gap_box_is_tight_enough(self):
        F = QuadPoly2(1, 1, 1, 1, 3, 2)
        g = 0
        B = gap_box_bound(F, g)
        assert diagonal_tail_min(F, B + 1) > g
        if B > 0:
            assert diagonal_tail_min(F, B) <= g

    def test_outside_bound_holds_on_boundary_sample(self):
        for F in (CANTOR1, CANTOR2, QuadPoly2(1, 0, 1, 1, 1, 0), QuadPoly2(2, -1, 3, 0, 1, 1)):
            for box in (5, 20, 51):
                bound = quadrant_outside_min(F, box)
                edge = box + 1
                sample = [(edge, t) for t in range(0, 2 * edge, 3)]
                sample += [(t, edge) for t in range(0, 2 * edge, 3)]
                sample += [(edge + 37, edge + 11), (edge, edge)]
                for x, y in sample:
                    assert F.evaluate(x, y) >= bound

    def test_gap_box_bound_matches_bisection(self):
        rng = random.Random(9)
        # d = e = 0 and g = f: the least box from the root alone is 0
        assert gap_box_bound(QuadPoly2(2, 0, 2, 0, 0, 3), 3) == 1
        for size in [10, 10**3, 10**21] * 300:
            a, c = rng.randint(1, size), rng.randint(1, size)
            b = rng.randint(-size, size)
            if b < 0 and b * b >= a * c:
                continue
            d = a + 2 * rng.randint(-size, size)
            e = c + 2 * rng.randint(-size, size)
            f = rng.randint(0, size)
            F = QuadPoly2(a, b, c, d, e, f)
            for g in (0, f, rng.randint(0, size), rng.randint(0, size**3)):
                assert gap_box_bound(F, g) == gap_box_bound_by_bisection(F, g), (F, g)

    def test_outside_min_matches_ring_scan(self):
        rng = random.Random(10)
        for _ in range(600):
            a, c = rng.randint(1, 6), rng.randint(1, 6)
            b = rng.randint(-3, 6)
            if b < 0 and b * b >= a * c:
                continue
            F = QuadPoly2(a, b, c, a + 2 * rng.randint(-4, 4),
                          c + 2 * rng.randint(-4, 4), rng.randint(0, 9))
            box = rng.randint(0, 60)
            assert quadrant_outside_min(F, box) == quadrant_outside_min_by_scan(F, box)
