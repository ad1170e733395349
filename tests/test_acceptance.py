"""End-to-end acceptance: ten checks, one per shipped guarantee.

Each test is self-timed where a budget is part of the guarantee.  They
exercise the public API only, so a pass here means the installed package
delivers every headline behavior on a stock laptop.
"""

import random
import time

from oracles import (
    region_counts_bruteforce,
    sector_prefix,
    sector_prefix_frontier,
    sector_value_by_numerator,
    verify_packing_by_dict_scan,
)

from packpoly import (
    CantorMatch,
    LinearSubject,
    ModularGap,
    QuadPoly2,
    SectorSpec,
    cantor1,
    classify,
    legendre,
    nonresidue_prime,
    pack_m,
    refute_linear,
    region_counts,
    search_quadratics,
    square_completion,
    unpack_m,
    verify_certificate,
    verify_linear_collision,
    verify_quadratic_packing,
    verify_sector_packing,
)


def test_01_enumeration_reproduces_the_listed_values():
    listed = [
        ((0, 0), 0),
        ((1, 0), 1),
        ((0, 1), 2),
        ((2, 0), 3),
        ((1, 1), 4),
        ((0, 2), 5),
        ((3, 0), 6),
    ]
    for point, value in listed:
        assert cantor1(*point) == value


def test_02_round_trips_are_exact_and_fast():
    start = time.monotonic()
    for n in range(10**5):
        assert pack_m(unpack_m(n, 2)) == n
    for n in range(10**4):
        assert pack_m(unpack_m(n, 3)) == n
    rng = random.Random(202)
    for _ in range(100):
        coords = [rng.getrandbits(200) for _ in range(rng.choice([2, 3, 4]))]
        assert unpack_m(pack_m(coords), len(coords)) == tuple(coords)
    assert time.monotonic() - start < 10.0


def test_03_triangular_numbers_on_the_axis():
    for k in range(10**3 + 1):
        assert cantor1(k, 0) == k * (k + 1) // 2
    k = 10**100
    assert cantor1(k, 0) == k * (k + 1) // 2


def test_04_search_finds_exactly_the_two_packing_quadratics():
    start = time.monotonic()
    results = search_quadratics(4, 60, 500)
    found = [F.as_tuple() for F, _ in results]
    assert found == [(1, 1, 1, 1, 3, 0), (1, 1, 1, 3, 1, 0)]
    for F, cert in results:
        assert isinstance(cert, CantorMatch)
        verdict = verify_quadratic_packing(F, 60, 500)
        assert verdict.is_packing_prefix
    assert time.monotonic() - start < 300.0


def test_05_square_completion_identity_everywhere():
    start = time.monotonic()
    rng = random.Random(505)

    def check(a, b, c, d, e, f):
        F = QuadPoly2(a, b, c, d, e, f)
        comp = square_completion(F)
        D = comp.D
        x, y = rng.randint(0, 100), rng.randint(0, 100)
        u = 2 * a * x + 2 * b * y + d
        v = 2 * D * y + (b * d - a * e)
        lhs = 8 * a * D * F.evaluate(x, y)
        rhs = D * u ** 2 - v ** 2 + comp.r
        assert lhs == rhs, (F, x, y)

    def parity_pair(lo, hi):
        base = rng.randint(lo, hi)
        return base, base - 2 * rng.randint(-8, 8)

    for _ in range(6000):
        a, d = parity_pair(-20, 20)
        c, e = parity_pair(-20, 20)
        check(a, rng.randint(-20, 20), c, d, e, rng.randint(-20, 20))
    for _ in range(2000):
        d = 2 * rng.randint(-10, 10)
        c, e = parity_pair(-20, 20)
        check(0, rng.randint(-20, 20), c, d, e, rng.randint(-20, 20))
    for _ in range(2000):
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        sign = rng.choice([1, -1])
        a, b, c = sign * u * u, u * v, sign * v * v
        d = a - 2 * rng.randint(-8, 8)
        e = c - 2 * rng.randint(-8, 8)
        check(a, b, c, d, e, rng.randint(-20, 20))
    assert time.monotonic() - start < 10.0


def test_06_region_counts_match_bruteforce_with_total_bound():
    for m in range(2, 13):
        counts = region_counts(m)
        assert counts == region_counts_bruteforce(m)
        total = counts.total
        assert total == 283 * m * m + 9 * m
        assert total < 288 * m * m


def test_07_nonresidue_prime_certificates_in_budget():
    start = time.monotonic()
    checked = 0
    for D in range(-100, 101):
        root = round(abs(D) ** 0.5)
        if D == 0 or (D > 0 and root * root == D):
            continue
        for ell in (1, 8, 8 * abs(D)):
            cert = nonresidue_prime(D, ell)
            p = cert.p
            assert legendre(D, p) == -1
            assert pow(D % p, (p - 1) // 2, p) == p - 1  # Euler cross-check
            assert ell % p != 0
            checked += 1
    assert checked == 190 * 3
    assert time.monotonic() - start < 30.0


def test_08_modular_gap_class_is_empty_and_certified():
    candidates = []
    for a in range(0, 4):
        for b in range(-3, 4):
            for c in range(0, 4):
                if (a, b, c) == (0, 0, 0):
                    continue
                for d in range(-3, 4):
                    if (a - d) % 2:
                        continue
                    for e in range(-3, 4):
                        if (c - e) % 2:
                            continue
                        for f in range(0, 4):
                            if len(candidates) >= 20:
                                break
                            F = QuadPoly2(a, b, c, d, e, f)
                            cert = classify(F)
                            if isinstance(cert, ModularGap):
                                candidates.append((F, cert))
    assert len(candidates) == 20
    for F, cert in candidates:
        p, s = cert.witness.p, cert.s
        target, modulus = s + p, p * p
        for x in range(201):
            for y in range(201):
                assert (F.evaluate(x, y) - target) % modulus != 0
        assert verify_certificate(F, cert)
        assert not verify_certificate(F, ModularGap(cert.witness, (s + 1) % p))
        w = cert.witness
        assert not verify_certificate(F, ModularGap(type(w)(w.D + 1, w.ell, w.p), s))
        assert not verify_certificate(F, ModularGap(type(w)(w.D, w.ell + 8, w.p), s))


def test_09_sector_polynomials_pack_their_prefixes():
    start = time.monotonic()
    for r, s in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (3, 4)]:
        spec = SectorSpec(r, s)
        points = sector_prefix(spec, 3000)
        for which in ("F", "G"):
            frontier = sector_prefix_frontier(spec, which, 3000)
            scanned = verify_packing_by_dict_scan(
                lambda pt: sector_value_by_numerator(spec, which, *pt),
                points,
                frontier - 1,
                frontier,
            )
            assert scanned.is_packing_prefix, (r, s, which)
            verdict = verify_sector_packing(spec, which, min_points=3000)
            assert verdict == scanned, (r, s, which)
    assert time.monotonic() - start < 60.0


def test_10_linear_polynomials_always_collide():
    rng = random.Random(1010)
    produced = 0
    for m in (2, 3):
        for ell in (0, 1, 5):
            for _ in range(20):
                coeffs = [rng.randint(-10, 10) for _ in range(m)]
                constant = rng.randint(-50, 50)
                cert = refute_linear(coeffs, constant, ell)
                subject = LinearSubject(tuple(coeffs), constant, ell)
                assert cert.p1 != cert.p2
                assert min(cert.p1) >= ell and min(cert.p2) >= ell
                assert subject.evaluate(cert.p1) == cert.value
                assert subject.evaluate(cert.p2) == cert.value
                assert verify_linear_collision(subject, cert)
                produced += 1
    assert produced == 120
