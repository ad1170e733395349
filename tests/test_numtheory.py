"""Number-theory helpers against the Euler-criterion oracle and known values."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import least_nonresidue_prime_by_euler, square_decompose_by_odd_trial

from packpoly import numtheory
from packpoly import (
    BudgetExhausted,
    FactorizationTooHard,
    IsSquare,
    ModuliNotCoprime,
    NotCoprime,
    NotOddPrime,
    ZeroInput,
    crt,
    is_prime,
    is_square,
    jacobi,
    least_nonresidue_prime,
    legendre,
    nonresidue_prime,
    prime_in_ap,
    square_decompose,
)


P150 = 10**149 + 183  # primes, so D = -P150 * Q150 has no factor below 10^6
Q150 = 2 * 10**149 + 801


def euler_symbol(a, p):
    """Independent oracle: a^((p-1)/2) mod p, folded to {-1, 0, 1}."""
    power = pow(a % p, (p - 1) // 2, p)
    return -1 if power == p - 1 else power


def odd_primes_below(limit):
    return [n for n in range(3, limit) if is_prime(n)]


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
        for n in range(40):
            assert is_prime(n) == (n in primes)

    def test_carmichael_numbers_are_composite(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_large_known_primes(self):
        assert is_prime(2**89 - 1)
        assert is_prime(2**127 - 1)
        assert is_prime(10**18 + 9)

    def test_large_known_composites(self):
        assert not is_prime((2**89 - 1) * (2**107 - 1))
        assert not is_prime(10**18 + 7)


class TestSquareDetection:
    def test_listed(self):
        assert is_square(0) == 0
        assert is_square(1) == 1
        assert is_square(8) is None

    def test_negative_never_square(self):
        for n in (-1, -4, -9, -10**20):
            assert is_square(n) is None

    def test_exhaustive_small(self):
        roots = {k * k: k for k in range(200)}
        for n in range(10**4):
            assert is_square(n) == roots.get(n)

    def test_huge(self):
        t = 10**50 + 12345
        assert is_square(t * t) == t
        assert is_square(t * t + 1) is None


class TestLegendre:
    def test_listed(self):
        assert legendre(-1, 3) == -1
        assert legendre(2, 5) == -1
        assert legendre(0, 7) == 0

    def test_agrees_with_euler_criterion(self):
        for p in odd_primes_below(1000):
            for a in range(-50, 51):
                assert legendre(a, p) == euler_symbol(a, p), (a, p)

    def test_multiplicative(self):
        rng = random.Random(13)
        primes = odd_primes_below(500)
        for _ in range(1000):
            p = rng.choice(primes)
            a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_periodic_in_first_argument(self):
        for p in (3, 7, 31):
            for a in range(-20, 21):
                assert legendre(a, p) == legendre(a + p, p)

    @pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 561, -7])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(NotOddPrime):
            legendre(5, bad)

    def test_jacobi_extends_legendre(self):
        rng = random.Random(17)
        primes = odd_primes_below(300)
        for _ in range(200):
            p, q = rng.choice(primes), rng.choice(primes)
            a = rng.randint(-10**4, 10**4)
            assert jacobi(a, p * q) == legendre(a, p) * legendre(a, q)


class TestSquareDecompose:
    @pytest.mark.parametrize(
        "D, alpha, beta, m, odd",
        [
            (18, 0, 1, 3, ()),
            (-4, 1, 0, 2, ()),
            (12, 0, 0, 2, (3,)),
            (-1, 1, 0, 1, ()),
            (2, 0, 1, 1, ()),
            (-50, 1, 1, 5, ()),
            (105, 0, 0, 1, (3, 5, 7)),
        ],
    )
    def test_listed(self, D, alpha, beta, m, odd):
        dec = square_decompose(D)
        assert (dec.alpha, dec.beta, dec.m, tuple(dec.odd_primes)) == (
            alpha,
            beta,
            m,
            odd,
        )

    def test_round_trip_everywhere(self):
        for D in range(-10**4, 10**4 + 1):
            if D == 0:
                continue
            dec = square_decompose(D)
            sign = (-1) ** dec.alpha
            assert sign * 2**dec.beta * dec.m**2 * math.prod(dec.odd_primes) == D
            assert dec.beta in (0, 1)
            assert dec.m >= 1
            assert list(dec.odd_primes) == sorted(set(dec.odd_primes))
            for q in dec.odd_primes:
                assert q % 2 == 1 and is_prime(q)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            square_decompose(0)

    def test_oversized_factors_reported(self):
        big_prime = 2**89 - 1
        with pytest.raises(FactorizationTooHard):
            square_decompose(big_prime * big_prime * 3)

    def test_square_free_part_times_square(self):
        rng = random.Random(19)
        for _ in range(200):
            D = rng.randint(1, 10**6)
            dec = square_decompose(D)
            squarefree = (-1) ** dec.alpha * 2**dec.beta
            for q in dec.odd_primes:
                squarefree *= q
            assert squarefree * dec.m**2 == D


def decompose_outcome(decompose, D):
    """The decomposition, or the FactorizationTooHard message."""
    try:
        return decompose(D)
    except FactorizationTooHard as exc:
        return f"FactorizationTooHard: {exc}"


def assert_matches_odd_trial(D):
    assert decompose_outcome(square_decompose, D) == decompose_outcome(
        square_decompose_by_odd_trial, D
    )


SMALL_MULTIPLIERS = [1, -1, 2, -4, 3, -9, 12, -45, 210, -(3**5) * 7**2]
SMALL_PARTS = st.sampled_from(SMALL_MULTIPLIERS)
NEAR_MILLION = [p for p in range(10**6 - 400, 10**6 + 400) if is_prime(p)]
# The table primes past the small block, in the blocks square_decompose
# screens with one gcd each: 305 blocks of 256 and a last one of 250.
TABLE = [p for p in numtheory._odd_primes_below(10**6) if p > 1000]
BLOCKS = [TABLE[i : i + 256] for i in range(0, len(TABLE), 256)]
BLOCK_INDEX = st.sampled_from([0, 1, 2, 150, len(BLOCKS) - 2, len(BLOCKS) - 1])


class TestSquareDecomposeAgainstOddTrial:
    """Trial division by primes below 10^6 gives the odd-number loop's
    answer, raise included."""

    @settings(max_examples=60, deadline=None)
    @given(D=st.integers(-(10**12), 10**12).filter(bool))
    @example(D=1009 * 1013)
    def test_random_d(self, D):
        assert_matches_odd_trial(D)

    @settings(max_examples=60, deadline=None)
    @given(delta=st.integers(-90, 60), small=SMALL_PARTS)
    @example(delta=1000003**2 - 1000001**2, small=1)  # a prime squared
    @example(delta=0, small=-1)
    @example(delta=-84, small=1)  # the last prime below d^2: no raise
    @example(delta=6, small=-1)  # the first prime above d^2: raises
    def test_cofactors_around_the_first_odd_past_the_limit_squared(self, delta, small):
        d = 1000001  # = 101 * 9901, the first odd number past 10^6
        assert_matches_odd_trial(small * (d * d + delta))

    @settings(max_examples=12, deadline=None)
    @given(
        p=st.sampled_from(NEAR_MILLION),
        q=st.sampled_from(NEAR_MILLION),
        small=SMALL_PARTS,
    )
    def test_products_of_two_primes_near_the_default_limit(self, p, q, small):
        assert_matches_odd_trial(small * p * q)

    @settings(max_examples=40, deadline=None)
    @given(
        i=BLOCK_INDEX,
        last=st.booleans(),
        exp=st.integers(1, 3),
        j=BLOCK_INDEX,
        other_last=st.booleans(),
        other_exp=st.integers(0, 2),
        small=SMALL_PARTS,
    )
    @example(i=0, last=False, exp=1, j=0, other_last=False, other_exp=0, small=1)
    @example(i=305, last=True, exp=3, j=305, other_last=True, other_exp=0, small=-1)
    @example(i=0, last=True, exp=2, j=1, other_last=False, other_exp=1, small=1)
    @example(i=1, last=False, exp=2, j=2, other_last=True, other_exp=1, small=1)
    def test_primes_at_block_boundaries(self, i, last, exp, j, other_last, other_exp, small):
        p = BLOCKS[i][-1 if last else 0]
        q = BLOCKS[j][-1 if other_last else 0]
        assert_matches_odd_trial(small * p**exp * q**other_exp)

    @settings(max_examples=30, deadline=None)
    @given(
        i=BLOCK_INDEX,
        picks=st.lists(st.integers(0, 249), min_size=2, max_size=3, unique=True),
        exps=st.lists(st.integers(1, 2), min_size=3, max_size=3),
        small=SMALL_PARTS,
    )
    def test_primes_sharing_a_block(self, i, picks, exps, small):
        D = small
        for k, exp in zip(picks, exps):
            D *= BLOCKS[i][k] ** exp
        assert_matches_odd_trial(D)

    @settings(max_examples=30, deadline=None)
    @given(i=BLOCK_INDEX, delta=st.integers(-60, 60), small=SMALL_PARTS)
    @example(i=1, delta=0, small=1)  # the first prime squared
    @example(i=1, delta=BLOCKS[0][-1] * BLOCKS[1][0] - BLOCKS[1][0] ** 2, small=1)
    @example(i=len(BLOCKS) - 1, delta=-1, small=-1)
    def test_cofactors_around_the_first_prime_of_a_block_squared(self, i, delta, small):
        p = BLOCKS[i][0]
        assert_matches_odd_trial(small * (p * p + delta))

    # Around the end of the first run, the odd primes below 1,000: the
    # division stops there only when the cofactor is below 999^2.
    @pytest.mark.parametrize("small", SMALL_MULTIPLIERS)
    @pytest.mark.parametrize("n", [1, 997**2, 991 * 997, 994013, 1018057, 1009 * 1013])
    def test_cofactors_around_the_end_of_the_small_block(self, n, small):
        assert_matches_odd_trial(small * n)

    def test_blocks_cover_the_table_past_the_plain_divisors(self):
        blocks = numtheory._prime_blocks()
        assert [block for block, _ in blocks] == BLOCKS
        assert all(product == math.prod(block) for block, product in blocks)

    def test_prime_table_holds_the_odd_primes_below_a_million(self):
        table = numtheory._odd_primes_below(10**6)
        assert len(table) == 78497  # pi(10^6) counts 2 as well
        assert table[:6] == [3, 5, 7, 11, 13, 17] and table[-1] == 999983
        assert table == sorted(set(table))
        rng = random.Random(31)
        assert all(is_prime(p) for p in rng.sample(table, 2000))

    def test_importing_the_package_builds_no_prime_table(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import packpoly, packpoly.cli, packpoly.numtheory as nt; "
            "print(*(f.cache_info().currsize for f in "
            "(nt._small_block, nt._prime_blocks)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out.split() == ["0", "0"]


class TestCrt:
    def test_listed(self):
        assert crt([(1, 8), (2, 3)]) == (17, 24)
        assert crt([(0, 5)]) == (0, 5)

    def test_result_satisfies_all_congruences_uniquely(self):
        rng = random.Random(23)
        for _ in range(100):
            moduli = rng.sample([3, 5, 7, 8, 11, 13], k=rng.randint(1, 4))
            congruences = [(rng.randrange(mod), mod) for mod in moduli]
            s, M = crt(congruences)
            assert 0 <= s < M
            assert all((s - r) % mod == 0 for r, mod in congruences)
            matches = [
                t
                for t in range(M)
                if all((t - r) % mod == 0 for r, mod in congruences)
            ]
            assert matches == [s]

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(ModuliNotCoprime):
            crt([(1, 6), (2, 8)])


class TestPrimeInProgression:
    @pytest.mark.parametrize(
        "s, M, exceed, expected", [(3, 4, 0, 3), (5, 8, 5, 13), (1, 2, 10, 11)]
    )
    def test_listed(self, s, M, exceed, expected):
        assert prime_in_ap(s, M, exceed) == expected

    def test_result_is_first_prime_in_progression(self):
        rng = random.Random(29)
        for _ in range(50):
            M = rng.choice([4, 8, 3, 5, 12])
            s = rng.choice([r for r in range(1, M) if __import__("math").gcd(r, M) == 1])
            exceed = rng.randint(0, 50)
            p = prime_in_ap(s, M, exceed)
            assert p > exceed and p % M == s % M and is_prime(p)
            for t in range(exceed + 1, p):
                if t % M == s % M:
                    assert not is_prime(t)

    def test_shared_factor_rejected(self):
        with pytest.raises(NotCoprime):
            prime_in_ap(2, 4, 0)

    def test_budget_exhaustion_is_loud(self):
        # 115, 117, 119, 121, 123, 125 are all composite
        with pytest.raises(BudgetExhausted):
            prime_in_ap(1, 2, 113, budget=6)


class TestNonResiduePrime:
    def test_constructed_values(self):
        # negative unit: progression 3 mod 4, first prime above 8
        assert nonresidue_prime(-1, 8).p == 11
        # doubled unit: progression 5 mod 8, first prime above 8
        assert nonresidue_prime(2, 8).p == 13

    def test_primes_dividing_the_square_part_are_skipped(self):
        cert = nonresidue_prime(-9, 1)
        assert cert.p == 7  # 3 is in the progression but divides -9
        assert legendre(-9, 7) == -1
        cert = nonresidue_prime(50, 1)
        assert cert.p == 13  # 5 is in the progression but divides 50
        assert legendre(50, 13) == -1

    def test_floor_parameter_requests_larger_witness(self):
        first = nonresidue_prime(-1, 8)
        second = nonresidue_prime(-1, 8, exceed=first.p)
        assert second.p > first.p
        assert legendre(-1, second.p) == -1

    def test_certificate_invariants_across_small_inputs(self):
        for D in range(-60, 61):
            if D == 0 or is_square(D) is not None:
                continue
            for ell in (1, 8, 8 * abs(D), -5):
                cert = nonresidue_prime(D, ell)
                assert cert.holds()
                assert legendre(D, cert.p) == -1
                assert ell % cert.p != 0
                assert cert.p > abs(ell)

    @pytest.mark.parametrize("D", [-1000003 * 1000033, -P150 * Q150])
    def test_unfactorable_d_gets_the_least_nonresidue_prime(self, D):
        with pytest.raises(FactorizationTooHard):
            square_decompose(D)
        for exceed in (None, 7, 10**6, 8000033, 10**30):
            assert nonresidue_prime(D, 8, exceed) == least_nonresidue_prime(
                D, 8, exceed=exceed
            )

    def test_square_and_zero_inputs_rejected(self):
        with pytest.raises(IsSquare):
            nonresidue_prime(49, 8)
        with pytest.raises(ZeroInput):
            nonresidue_prime(0, 8)
        with pytest.raises(ZeroInput):
            nonresidue_prime(-1, 0)


class TestLeastNonResiduePrime:
    def test_matches_euler_criterion_scan(self):
        for D in range(-60, 61):
            if D == 0 or is_square(D) is not None:
                continue
            for ell, exceed in ((1, None), (8, None), (8 * abs(D), None), (-5, 40)):
                cert = least_nonresidue_prime(D, ell, exceed=exceed)
                floor = abs(ell) if exceed is None else max(abs(ell), exceed)
                assert cert.p == least_nonresidue_prime_by_euler(D, floor)
                assert cert.holds()

    @pytest.mark.parametrize("D", [-1, 2, -7, 13, -1000003 * 1000033, P150 * Q150])
    def test_matches_euler_criterion_scan_past_the_plain_divisors(self, D):
        for floor in [*range(990, 1011), 10**6, 10**30]:
            cert = least_nonresidue_prime(D, 1, exceed=floor)
            assert cert.p == least_nonresidue_prime_by_euler(D, floor), floor
            assert cert.holds()

    def test_budget_exhaustion_is_loud(self):
        assert least_nonresidue_prime(-1, 8).p == 11
        # -1 is a residue mod 13 = 1 (mod 4), and 15 is composite
        with pytest.raises(BudgetExhausted):
            least_nonresidue_prime(-1, 12, budget=2)

    @pytest.mark.parametrize("floor", [1000, 10**6, 10**30])
    def test_budget_counts_every_odd_candidate_past_the_plain_divisors(self, floor):
        D = -1000003 * 1000033
        p = least_nonresidue_prime_by_euler(D, floor)
        spent = (p - ((floor + 1) | 1)) // 2 + 1  # odd candidates up to p
        assert least_nonresidue_prime(D, 1, budget=spent, exceed=floor).p == p
        with pytest.raises(BudgetExhausted, match=f"among {spent - 1} odd candidates"):
            least_nonresidue_prime(D, 1, budget=spent - 1, exceed=floor)

    def test_square_and_zero_inputs_rejected(self):
        with pytest.raises(IsSquare):
            least_nonresidue_prime(49, 8)
        with pytest.raises(ZeroInput):
            least_nonresidue_prime(-1, 0)


class TestTypedErrorsPastTheIntStrLimit:
    """A 5,000-digit argument gets its typed error, not the interpreter's
    int-to-str limit error from formatting the message."""

    BIG = 10**5000

    def test_prime_in_ap_not_coprime(self):
        with pytest.raises(NotCoprime, match="the progression holds"):
            prime_in_ap(self.BIG, self.BIG, 0)

    def test_crt_moduli_not_coprime(self):
        with pytest.raises(ModuliNotCoprime, match="shares a factor"):
            crt([(1, self.BIG)] * 2)

    def test_crt_nonpositive_modulus(self):
        with pytest.raises(ValueError, match="modulus must be positive"):
            crt([(1, -self.BIG)])

    def test_legendre_composite_modulus(self):
        with pytest.raises(NotOddPrime, match="odd prime"):
            legendre(2, self.BIG + 1)

    def test_jacobi_even_modulus(self):
        with pytest.raises(ValueError, match="odd positive n"):
            jacobi(1, self.BIG)
