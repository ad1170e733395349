"""Decision pipeline: frozen certificates, soundness sweeps, and the linear refuter."""

import dataclasses
import functools
import random
import sys
import time

import pytest
from oracles import (
    gap_holds_by_scan,
    least_nonresidue_prime_by_euler,
    modular_class_hit,
)

from packpoly import (
    CantorMatch,
    Collision,
    Gap,
    LinearSubject,
    ModularGap,
    NotQuadratic,
    QuadPoly2,
    SearchExhausted,
    StructuralFail,
    classify,
    diagonal_tail_min,
    gap_box_bound,
    legendre,
    refute_linear,
    search_quadratics,
    validate,
    verify_certificate,
    verify_linear_collision,
)
from packpoly import bruteforce, classifier, numtheory
from packpoly.classifier import _classify
from packpoly.cli import cli_dispatch
from packpoly.errors import CrossCheckFailed, DimensionTooSmall, FactorizationTooHard

C1 = QuadPoly2(1, 1, 1, 1, 3, 0)
C2 = QuadPoly2(1, 1, 1, 3, 1, 0)


def sweep(bound):
    """Every parity-valid candidate with coefficients in the box."""
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(0, bound + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                for d in range(-bound, bound + 1):
                    if (a - d) % 2:
                        continue
                    for e in range(-bound, bound + 1):
                        if (c - e) % 2:
                            continue
                        for f in range(0, bound + 1):
                            yield QuadPoly2(a, b, c, d, e, f)


class TestKnownClassifications:
    def test_both_packing_tuples(self):
        assert classify(C1) == CantorMatch(1)
        assert classify(C2) == CantorMatch(2)

    def test_modular_obstruction(self):
        cert = classify(QuadPoly2(1, 0, 1, 1, 1, 0))
        assert isinstance(cert, ModularGap)
        assert cert.witness.p == 11 and cert.s == 8
        assert cert.witness.D == -1 and cert.witness.ell == 8
        assert legendre(cert.witness.D, cert.witness.p) == -1

    def test_shifted_image_has_gap(self):
        cert = classify(QuadPoly2(1, 1, 1, 1, 3, 2))
        assert isinstance(cert, Gap)
        assert cert.value == 0

    def test_symmetric_linear_part_collides(self):
        cert = classify(QuadPoly2(1, 1, 1, 1, 1, 0))
        assert cert == Collision(p1=(1, 0), p2=(0, 1), value=1)

    def test_negative_value_is_structural(self):
        cert = classify(QuadPoly2(1, 3, 9, -9, -9, 0))
        assert isinstance(cert, StructuralFail)
        (chk,) = cert.failures
        assert chk.name == "nonnegative_range"
        assert chk.doubled_value < 0

    def test_parity_violation_is_structural(self):
        cert = classify(QuadPoly2(1, 1, 1, 2, 3, 0))
        assert isinstance(cert, StructuralFail)
        assert {c.name for c in cert.failures} == {"a_d_parity"}

    def test_indefinite_part_is_structural(self):
        cert = classify(QuadPoly2(1, -2, 1, 1, 1, 0))
        assert isinstance(cert, StructuralFail)
        (chk,) = cert.failures
        assert chk.name == "positive_definite_on_quadrant"
        assert chk.witness == (1, 2)
        assert chk.doubled_value <= 0

    def test_degree_below_two_rejected(self):
        with pytest.raises(NotQuadratic):
            classify(QuadPoly2(0, 0, 0, 2, 4, 1))

    def test_bounded_search_reports_exhaustion(self):
        # square D = 0 and no witness on the first 601 diagonals
        with pytest.raises(SearchExhausted) as info:
            classify(QuadPoly2(1, 1, 1, 10001, 3, 5000))
        assert str(info.value) == "no collision or certified gap within 600 diagonals"


class TestNoFalseMatch:
    def test_every_coefficient_mutation_is_refuted(self):
        for base in (C1, C2):
            for i in range(6):
                for delta in (-2, -1, 1, 2):
                    coeffs = list(base.as_tuple())
                    coeffs[i] += delta
                    mutant = QuadPoly2(*coeffs)
                    if mutant.as_tuple() in (C1.as_tuple(), C2.as_tuple()):
                        continue
                    if (mutant.a, mutant.b, mutant.c) == (0, 0, 0):
                        continue
                    cert = classify(mutant)
                    assert not isinstance(cert, CantorMatch), (mutant, cert)
                    assert verify_certificate(mutant, cert), (mutant, cert)


class TestSoundness:
    def test_every_emitted_certificate_verifies(self):
        for F in sweep(2):
            cert = classify(F)
            assert verify_certificate(F, cert), (F, cert)
            # the six-point proof is the verdict; a box scan is its oracle
            if isinstance(cert, ModularGap):
                assert modular_class_hit(F, cert, 50) is None, (F, cert)

    def test_all_refutation_kinds_appear(self):
        kinds = {type(classify(F)).__name__ for F in sweep(2)}
        assert kinds == {"StructuralFail", "ModularGap", "Gap", "Collision"}

    def test_certificates_do_not_transfer_between_candidates(self):
        candidates = [
            C1,
            C2,
            QuadPoly2(1, 0, 1, 1, 1, 0),
            QuadPoly2(1, 1, 1, 1, 3, 2),
            QuadPoly2(1, 1, 1, 1, 1, 0),
            QuadPoly2(1, -2, 1, 1, 1, 0),
            QuadPoly2(2, 0, 1, 0, 1, 1),
        ]
        certs = {F: classify(F) for F in candidates}
        for F in candidates:
            assert verify_certificate(F, certs[F])
            for G, cert in certs.items():
                if G == F or type(cert) is not type(certs[F]):
                    continue
                # same certificate kind issued for a different candidate
                assert not verify_certificate(F, cert), (F, G, cert)

    def test_tampered_certificates_fail(self):
        F = QuadPoly2(1, 1, 1, 1, 1, 0)
        good = classify(F)
        assert isinstance(good, Collision)
        assert not verify_certificate(F, Collision((2, 0), good.p2, good.value))
        assert not verify_certificate(F, Collision(good.p1, good.p1, good.value))
        assert not verify_certificate(
            F, Collision(good.p1, good.p2, good.value + 1)
        )

        G = QuadPoly2(1, 0, 1, 1, 1, 0)
        mod = classify(G)
        assert isinstance(mod, ModularGap)
        assert not verify_certificate(G, ModularGap(mod.witness, mod.s + 1))
        assert not verify_certificate(
            G, ModularGap(type(mod.witness)(D=-1, ell=8, p=7), 1)
        )

        H = QuadPoly2(1, 1, 1, 1, 3, 2)
        gap = classify(H)
        assert isinstance(gap, Gap)
        assert not verify_certificate(H, Gap(2, gap.box_bound))  # 2 is attained
        assert not verify_certificate(H, Gap(gap.value, -1))

        assert not verify_certificate(F, CantorMatch(1))
        assert verify_certificate(C1, CantorMatch(1))
        assert not verify_certificate(C1, CantorMatch(2))


def modular_gaps(bound):
    for F in sweep(bound):
        cert = classify(F)
        if isinstance(cert, ModularGap):
            yield F, cert


def shifted(F, index, delta):
    coeffs = list(F.as_tuple())
    coeffs[index] += delta
    return QuadPoly2(*coeffs)


class TestModularGapProof:
    def test_constant_and_parity_mutations_are_rejected(self):
        for F, cert in modular_gaps(2):
            for index, delta in ((5, 1), (5, -1), (3, 1), (3, -1)):
                G = shifted(F, index, delta)
                assert not verify_certificate(G, cert), (G, cert)

    def test_linear_mutations_are_rejected_unless_the_claim_still_holds(self):
        # d +- 2 and e +- 2 keep D and 8a, so the witness still matches; a
        # scan of the mutant is the oracle for whether the claim is false.
        rejected = 0
        for F, cert in modular_gaps(2):
            for index, delta in ((3, 2), (3, -2), (4, 2), (4, -2)):
                G = shifted(F, index, delta)
                if verify_certificate(G, cert):
                    assert modular_class_hit(G, cert, 40) is None, (G, cert)
                else:
                    rejected += 1
        assert rejected > 700

    def test_huge_certificate_needs_six_evaluations(self, monkeypatch):
        big = 10**2999
        F = QuadPoly2(1, 0, 1, 3 * big + 1, 7 * big + 3, 5 * big)
        cert = classify(F)
        assert isinstance(cert, ModularGap)
        calls = []
        original = QuadPoly2.evaluate

        def counting(self, x, y):
            calls.append((x, y))
            return original(self, x, y)

        monkeypatch.setattr(QuadPoly2, "evaluate", counting)
        assert verify_certificate(F, cert)
        assert len(calls) <= 6
        assert not verify_certificate(shifted(F, 5, 1), cert)

    def test_one_primality_test_per_check(self, monkeypatch):
        F = QuadPoly2(1, 0, 1, 1, 1, 0)
        cert = classify(F)
        assert isinstance(cert, ModularGap)
        calls = []
        original = numtheory.is_prime

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(numtheory, "is_prime", counting)
        assert verify_certificate(F, cert)
        assert calls == [cert.witness.p]


class TestGapBox:
    H = QuadPoly2(1, 1, 1, 1, 3, 1)

    def test_claimed_box_size_does_not_set_the_cost(self):
        cert = classify(self.H)
        assert cert == Gap(0, gap_box_bound(self.H, 0))
        start = time.perf_counter()
        assert verify_certificate(self.H, Gap(0, 10**9))
        assert time.perf_counter() - start < 1.0

    def test_box_below_the_least_box_is_rejected(self):
        least = gap_box_bound(self.H, 0)
        assert least > 0
        for box in range(least):
            assert not verify_certificate(self.H, Gap(0, box)), box
        assert verify_certificate(self.H, Gap(0, least))

    def test_acceptance_matches_a_full_box_scan(self):
        # a Gap holds iff growth clears g beyond the box and no point of
        # the whole box attains g
        checked = 0
        for F in sweep(2):
            cert = classify(F)
            if not isinstance(cert, Gap):
                continue
            for g in (cert.value, cert.value + 1, cert.value + 3):
                least = gap_box_bound(F, g)
                for box in range(max(0, least - 2), least + 4):
                    holds = diagonal_tail_min(F, box + 1) > g and all(
                        F.evaluate(x, y) != g
                        for x in range(box + 1)
                        for y in range(box + 1)
                    )
                    assert verify_certificate(F, Gap(g, box)) == holds, (F, g, box)
                    checked += 1
        assert checked > 300


def random_definite(rng):
    """A random candidate that passes validate, positivity included."""
    while True:
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        d, e = a + 2 * rng.randint(-4, 4), c + 2 * rng.randint(-4, 4)
        F = QuadPoly2(a, rng.randint(-4, 5), c, d, e, rng.randint(0, 6))
        if not validate(F):
            return F


class TestGapColumns:
    def test_column_solve_matches_the_scan(self):
        rng = random.Random(1018)
        outcomes = {True: 0, False: 0}
        for _ in range(2000):
            F = random_definite(rng)
            if rng.random() < 0.5:
                g = F.evaluate(rng.randint(0, 6), rng.randint(0, 6))
            else:
                g = rng.randint(0, 80)
            least = gap_box_bound(F, g)
            box = rng.choice(
                (0, max(0, least - 1), least, least + 3, rng.randint(0, 2 * least))
            )
            holds = gap_holds_by_scan(F, g, box)
            assert verify_certificate(F, Gap(g, box)) == holds, (F, g, box)
            outcomes[holds] += 1
        assert min(outcomes.values()) > 300

    def test_cost_follows_the_least_box_not_the_value(self, monkeypatch):
        # F = (x + y)^2 + x + 3y takes only even values
        F = QuadPoly2(2, 2, 2, 2, 6, 0)
        g = 10**6 + 1
        least = gap_box_bound(F, g)
        calls = []
        original = QuadPoly2.evaluate

        def counting(self, x, y):
            calls.append((x, y))
            return original(self, x, y)

        monkeypatch.setattr(QuadPoly2, "evaluate", counting)
        assert verify_certificate(F, Gap(g, 10**9))
        assert len(calls) <= 2 * least
        assert F.evaluate(499, 500) == g - 1
        assert not verify_certificate(F, Gap(g - 1, 10**9))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_classify_ignores_the_int_str_limit():
    F = QuadPoly2(1, 0, 1, 1, 1, 10**4400 + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        cert = classify(F)
        assert isinstance(cert, ModularGap)
        assert (cert.witness.p, cert.s) == (11, 10)
        assert verify_certificate(F, cert)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLinearRefutation:
    def test_collisions_are_valid_across_shapes(self):
        rng = random.Random(31)
        for _ in range(200):
            m = rng.choice([2, 3, 4])
            coeffs = [rng.randint(-9, 9) for _ in range(m)]
            constant = rng.randint(-20, 20)
            ell = rng.choice([0, 1, 5])
            cert = refute_linear(coeffs, constant, ell)
            subject = LinearSubject(tuple(coeffs), constant, ell)
            assert verify_linear_collision(subject, cert)
            assert cert.p1 != cert.p2
            assert min(cert.p1) >= ell and min(cert.p2) >= ell
            assert subject.evaluate(cert.p1) == subject.evaluate(cert.p2) == cert.value

    def test_constant_polynomial(self):
        cert = refute_linear([0, 0, 0], 7, ell=2)
        subject = LinearSubject((0, 0, 0), 7, 2)
        assert verify_linear_collision(subject, cert)
        assert cert.value == 7

    def test_single_variable_rejected(self):
        with pytest.raises(DimensionTooSmall):
            refute_linear([5], 0)

    def test_negative_domain_threshold_rejected(self):
        with pytest.raises(ValueError):
            refute_linear([1, 2], 0, ell=-1)

    def test_verification_rejects_foreign_pairs(self):
        cert = refute_linear([3, -4], 1, ell=0)
        other = LinearSubject((3, -5), 1, 0)
        assert not verify_linear_collision(other, cert)
        short = LinearSubject((3,), 1, 0)
        assert not verify_linear_collision(short, cert)

    def test_dimension_mismatch_in_evaluate(self):
        subject = LinearSubject((1, 2), 0, 0)
        with pytest.raises(ValueError):
            subject.evaluate((1, 2, 3))


class TestExhaustiveSearch:
    def test_narrow_box_holds_no_packing_polynomial(self):
        assert search_quadratics(2, 40, 200) == []

    def test_wider_box_finds_exactly_the_two(self):
        results = search_quadratics(3, 60, 300)
        tuples = [F.as_tuple() for F, _ in results]
        assert tuples == [(1, 1, 1, 1, 3, 0), (1, 1, 1, 3, 1, 0)]
        variants = [cert.variant for _, cert in results]
        assert variants == [1, 2]

    def test_coefficient_bound_five_finds_exactly_the_two(self):
        tuples = [F.as_tuple() for F, _ in search_quadratics(5, 60, 500)]
        assert tuples == [(1, 1, 1, 1, 3, 0), (1, 1, 1, 3, 1, 0)]

    @pytest.mark.parametrize(
        "bounds,name",
        [
            ((-1, 10, 10), "coefficient"),
            ((4, -5, 500), "region"),
            ((2, -5, -7), "region"),
            ((4, 60, -1), "value"),
        ],
    )
    def test_negative_bound_rejected(self, bounds, name, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no candidate may be classified")

        monkeypatch.setattr(classifier, "_classify", forbidden)
        with pytest.raises(ValueError, match=f"{name} bound must be nonnegative"):
            search_quadratics(*bounds)

    def test_disagreement_with_the_brute_force_is_an_internal_error(
        self, monkeypatch, capsys
    ):
        original = bruteforce.verify_quadratic_packing

        def with_a_gap(F, box_bound, value_bound):
            return dataclasses.replace(original(F, box_bound, value_bound), gaps=(7,))

        monkeypatch.setattr(bruteforce, "verify_quadratic_packing", with_a_gap)
        with pytest.raises(CrossCheckFailed, match="disagree") as raised:
            search_quadratics(3, 60, 300)
        assert not isinstance(raised.value, SearchExhausted)
        argv = ["search-quadratics", "--coeff-bound", "3", "--box", "60", "--values", "300"]
        assert cli_dispatch(argv) == 4
        assert capsys.readouterr().err.startswith("internal error: ")


def counting_nonresidue_prime(monkeypatch):
    calls = []
    original = classifier.nonresidue_prime

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classifier, "nonresidue_prime", counting)
    return calls


def recording_witness_source():
    """nonresidue_prime as a witness source, logging ((D, ell, floor), witness)."""
    log = []

    def source(D, ell, floor):
        witness = numtheory.nonresidue_prime(D, ell, exceed=floor)
        log.append(((D, ell, floor), witness))
        return witness

    return source, log


class TestWitnessPrimeCache:
    def test_shared_cache_changes_no_certificate(self):
        source, log = recording_witness_source()
        shared = functools.cache(source)
        for F in sweep(3):
            cert = _classify(F, shared)
            assert cert == classify(F), F
        # retry primes, found above a previous p, are cached as well
        assert any(floor is not None for (_, _, floor), _ in log)
        assert len({key for key, _ in log}) == len(log)

    def test_search_finds_each_witness_prime_once(self, monkeypatch):
        calls = counting_nonresidue_prime(monkeypatch)
        search_quadratics(4, 60, 500)
        first = len(calls)
        assert 0 < first <= 80  # 10,238 calls, one per ModularGap try, uncached
        search_quadratics(4, 60, 500)
        assert len(calls) == 2 * first  # nothing is kept between searches

    def test_classify_starts_from_an_empty_cache(self, monkeypatch):
        calls = counting_nonresidue_prime(monkeypatch)
        F = QuadPoly2(1, 0, 1, 1, 1, 0)
        assert classify(F) == classify(F)
        assert len(calls) == 2

    def test_unfactored_d_gets_a_scanned_witness_from_one_call(self):
        F = QuadPoly2(1000003, 0, 1000033, 1, 1, 0)
        key = (-1000003 * 1000033, 8 * 1000003, None)
        source, log = recording_witness_source()
        cert = _classify(F, source)
        assert isinstance(cert, ModularGap)
        assert log == [(key, cert.witness)]
        assert verify_certificate(F, cert)

    def test_unfactored_retries_factor_again_and_take_the_scan(self, monkeypatch):
        calls = []

        def too_hard(D):
            calls.append(D)
            raise FactorizationTooHard("planted")

        monkeypatch.setattr(numtheory, "square_decompose", too_hard)
        # D = -2: the scan's first prime, 13, is the lift's own class
        F = QuadPoly2(1, -1, 3, -3, -1, 0)
        source, log = recording_witness_source()
        cert = _classify(F, source)
        assert calls == [-2, -2]  # one factoring attempt per witness prime
        assert [(key, w.p) for key, w in log] == [
            ((-2, 8, None), 13),
            ((-2, 8, 13), 23),
        ]
        assert cert.witness.p == 23
        assert verify_certificate(F, cert)


def test_small_candidates_never_build_the_prime_table(monkeypatch, capsys):
    def refuse():
        raise AssertionError("the prime table was built")

    monkeypatch.setattr(numtheory, "_prime_blocks", refuse)
    for F in sweep(3):
        classify(F)
    assert cli_dispatch(["classify", "1", "0", "1", "1", "1", "0"]) == 1
    assert capsys.readouterr().out.startswith("ModularGap\n")
    for D in (994013, -994013):  # a prime past 997^2, below 999^2
        assert numtheory.square_decompose(D).odd_primes == (994013,)
        assert numtheory.nonresidue_prime(D, 8).holds()


P150 = 10**149 + 183
Q150 = 2 * 10**149 + 801


@pytest.mark.parametrize(
    "F",
    [QuadPoly2(1000003, 0, 1000033, 1, 1, 0), QuadPoly2(P150, 0, Q150, 1, 1, 0)],
    ids=["12-digit D", "300-digit D"],
)
def test_d_without_small_factors_gets_the_least_nonresidue_prime(F):
    # neither D = -ac has a prime factor below the trial limit
    cert = classify(F)
    assert isinstance(cert, ModularGap)
    assert verify_certificate(F, cert)
    assert cert.witness.p == least_nonresidue_prime_by_euler(-F.a * F.c, 8 * F.a)
