"""Exact number-theory primitives behind the quadratic classifier.

Jacobi/Legendre symbols, square-free decomposition by trial division,
Chinese remaindering, a budgeted prime search in arithmetic progressions,
and a prime modulo which a given non-square is a quadratic non-residue:
nonresidue_prime constructs it from the factors, and where trial division
cannot finish, returns least_nonresidue_prime's scan, which needs none.
All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from math import gcd, isqrt, prod
from typing import Iterator, Sequence

from .decimals import to_decimal
from .errors import (
    BudgetExhausted,
    FactorizationTooHard,
    IsSquare,
    ModuliNotCoprime,
    NotCoprime,
    NotOddPrime,
    ZeroInput,
)

# Witnesses making Miller-Rabin deterministic for n < 3.317e24; past that
# it is a strong probable-prime test.  Witness primes do get that large:
# they exceed 8a, so a 150-digit coefficient a gives a 150-digit p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set, deterministic below 3.317e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by binary reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {to_decimal(n)}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p): 0 if p | a, else +-1 by quadratic character.

    Computed through the Jacobi symbol, which agrees with the Legendre
    symbol whenever p is an odd prime; a probable-prime check guards
    against misuse on composite or even moduli.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"modulus must be an odd prime, got {to_decimal(p)}")
    return jacobi(a, p)


def is_square(n: int) -> int | None:
    """The integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    t = isqrt(n)
    return t if t * t == n else None


@dataclass(frozen=True)
class SquareDecomposition:
    """|D| split as 2^beta * m^2 * (product of odd_primes), sign (-1)^alpha.

    alpha and beta are 0 or 1; odd_primes are distinct, ascending.
    """

    alpha: int
    beta: int
    m: int
    odd_primes: tuple[int, ...]


# The odd primes below _SMALL_LIMIT are sieved on their own as the first
# run of trial division, so a cofactor that they finish never builds the
# table of the rest.
_SMALL_LIMIT = 1000
_PRIME_TABLE_LIMIT = 10**6
# Table primes past _SMALL_LIMIT are screened this many at a time.
_BLOCK = 256


def _odd_primes_below(limit: int) -> list[int]:
    """The odd primes below limit, ascending, by a sieve of Eratosthenes."""
    half = limit // 2
    sieve = bytearray([1]) * half  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, isqrt(limit) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return list(compress(range(1, limit, 2), sieve))


@functools.cache
def _small_block() -> tuple[list[int], int]:
    """The 167 odd primes below _SMALL_LIMIT with their product."""
    primes = _odd_primes_below(_SMALL_LIMIT)
    return primes, prod(primes)


@functools.cache
def _prime_blocks() -> list[tuple[list[int], int]]:
    """The odd primes from _SMALL_LIMIT to 10^6 in ascending blocks of
    _BLOCK, each with the product of its primes (306 blocks).

    Sieved on first use and kept for the rest of the process.
    """
    primes = _odd_primes_below(_PRIME_TABLE_LIMIT)
    start = bisect_left(primes, _SMALL_LIMIT)
    blocks = [primes[i : i + _BLOCK] for i in range(start, len(primes), _BLOCK)]
    return [(block, prod(block)) for block in blocks]


def _trial_runs() -> Iterator[tuple[list[int], int]]:
    """Every odd prime below 10^6 in ascending runs, each with its product."""
    yield _small_block()
    yield from _prime_blocks()


def square_decompose(D: int) -> SquareDecomposition:
    """Factor D into sign, power of two, square part, and square-free odd part.

    Trial division by the odd primes below 10^6, ascending, in runs: the
    167 primes below 1,000, then blocks of 256 from a table of the rest,
    built once per process on first use.  A run is trial-divided only
    when gcd(product, n) != 1 for the cofactor n and the product of the
    run's primes, so one gcd stands in for a run of divisions that would
    all fail.  This is the batched-gcd idea of Bernstein, "How to find
    smooth parts of integers" (2004).  After a run ending at prime q, no
    prime up to q divides n, so once n < (q + 2)^2 it is 1 or a prime and
    the division stops.  When the cofactor left after every prime below
    10^6 is at least (10^6 + 1)^2, it may be composite: that raises
    FactorizationTooHard rather than stalling.
    """
    if D == 0:
        raise ZeroInput("cannot decompose zero")
    n = abs(D)
    alpha = 1 if D < 0 else 0
    e2 = 0
    while n % 2 == 0:
        n //= 2
        e2 += 1
    m = 1 << (e2 // 2)
    beta = e2 & 1
    odd: list[int] = []
    for run, product in _trial_runs():
        if gcd(product % n, n) != 1:
            for d in run:
                if d * d > n:
                    break
                if n % d == 0:
                    exp = 0
                    while n % d == 0:
                        n //= d
                        exp += 1
                    m *= d ** (exp // 2)
                    if exp & 1:
                        odd.append(d)
        if n < (run[-1] + 2) ** 2:
            break  # no prime up to run[-1] divides n, so it is 1 or a prime
    else:
        if (_PRIME_TABLE_LIMIT + 1) ** 2 <= n:
            raise FactorizationTooHard(
                f"no factor of remaining cofactor {to_decimal(n)} "
                f"below {_PRIME_TABLE_LIMIT}"
            )
    if n > 1:
        odd.append(n)  # prime cofactor, first power
    return SquareDecomposition(alpha=alpha, beta=beta, m=m, odd_primes=tuple(odd))


def crt(congruences: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli.

    Returns (s, M) with M the product of the moduli and 0 <= s < M the
    unique solution.  Raises ModuliNotCoprime when two moduli share a
    factor.
    """
    s, M = 0, 1
    for r, mod in congruences:
        if mod <= 0:
            raise ValueError(f"modulus must be positive, got {to_decimal(mod)}")
        if gcd(M, mod) != 1:
            raise ModuliNotCoprime(
                f"modulus {to_decimal(mod)} shares a factor with {to_decimal(M)}"
            )
        inv = pow(M % mod, -1, mod)
        s += M * ((r - s) * inv % mod)
        M *= mod
    return s % M, M


def prime_in_ap(s: int, M: int, exceed: int, budget: int = 10**6) -> int:
    """Smallest prime p = s (mod M) with p > exceed, testing at most budget candidates."""
    if M <= 0:
        raise ValueError(f"modulus must be positive, got {to_decimal(M)}")
    if gcd(s, M) != 1:
        raise NotCoprime(
            f"gcd({to_decimal(s)}, {to_decimal(M)}) != 1: "
            "the progression holds at most one prime"
        )
    if budget <= 0:
        raise ValueError("budget must be positive")
    t = exceed + 1
    candidate = t + (s - t) % M
    for _ in range(budget):
        if candidate >= 2 and is_prime(candidate):
            return candidate
        candidate += M
    raise BudgetExhausted(
        f"no prime = {to_decimal(s)} (mod {to_decimal(M)}) above "
        f"{to_decimal(exceed)} among {budget} candidates"
    )


@dataclass(frozen=True)
class NonResidueCertificate:
    """A prime p with (D/p) = -1 and p coprime to ell."""

    D: int
    ell: int
    p: int

    def holds(self) -> bool:
        """Re-check the defining invariants from scratch."""
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            return False
        if self.ell % self.p == 0:
            return False
        # p is an odd prime here, so the Jacobi symbol is the Legendre symbol
        return jacobi(self.D, self.p) == -1


def _require_nonsquare(D: int, ell: int) -> None:
    if D == 0 or ell == 0:
        raise ZeroInput("D and ell must both be nonzero")
    if is_square(D) is not None:
        raise IsSquare(
            f"{to_decimal(D)} is a perfect square; every odd prime sees it as a residue"
        )


def nonresidue_prime(
    D: int,
    ell: int,
    exceed: int | None = None,
) -> NonResidueCertificate:
    """A prime p > |ell| modulo which D is a quadratic non-residue.

    Writes D = (-1)^alpha 2^beta m^2 q_1...q_k and picks the residue class
    by cases: with no odd square-free primes, p = 3 (mod 4) handles
    D = -m^2 and p = 5 (mod 8) handles D = +-2 m^2; otherwise p = 1
    (mod 8), p = r_1 (mod q_1) for a non-residue r_1, and p = 1 (mod q_i)
    for the rest, combined by remaindering.  Any prime found in that class
    has (D/p) = -1 by multiplicativity and reciprocity, except primes
    dividing the square part m, which are skipped.  Where square_decompose
    cannot factor D (FactorizationTooHard), the answer is
    least_nonresidue_prime's instead, found without factors.

    Exists for every non-square D of any size (raises IsSquare
    otherwise); either search raises BudgetExhausted past its default
    budget of 10^6 candidates.  `exceed` raises the floor above the
    default |ell|, letting callers ask for the next witness prime when
    the smallest one does not suit them.
    """
    _require_nonsquare(D, ell)
    try:
        dec = square_decompose(D)
    except FactorizationTooHard:
        return least_nonresidue_prime(D, ell, exceed=exceed)
    if not dec.odd_primes:
        # D = -m^2 (beta = 0 forces alpha = 1 here) or D = +-2 m^2.
        s, M = (3, 4) if dec.beta == 0 else (5, 8)
    else:
        q1 = dec.odd_primes[0]
        # q1 is prime (a trial divisor, or a cofactor with no factor up to
        # its square root), so the Jacobi symbol is the Legendre symbol.
        r1 = next(r for r in count(2) if jacobi(r, q1) == -1)
        parts = [(1, 8), (r1, q1)] + [(1, q) for q in dec.odd_primes[1:]]
        s, M = crt(parts)
    floor = abs(ell) if exceed is None else max(abs(ell), exceed)
    while True:
        p = prime_in_ap(s, M, floor)
        if D % p != 0:
            break
        floor = p  # p divides the square part of D; (D/p) would be 0
    return NonResidueCertificate(D=D, ell=ell, p=p)


def least_nonresidue_prime(
    D: int,
    ell: int,
    budget: int = 10**6,
    exceed: int | None = None,
) -> NonResidueCertificate:
    """The least prime p > |ell| (and > exceed) with (D/p) = -1.

    Scans the odd numbers upward without factoring D, so nonresidue_prime
    returns it for a D that square_decompose cannot factor.  A candidate
    of at least 1,000 that shares a factor with the product of the odd
    primes below 1,000, square_decompose's first run, is composite and
    dropped at the cost of one gcd, as in its run screen; that leaves
    about one odd candidate in six.  The Jacobi symbol, cheap and
    -1 for about half the rest, is tested before primality; for a prime p
    it is the Legendre symbol.  Raises BudgetExhausted after budget odd
    candidates.
    """
    _require_nonsquare(D, ell)
    floor = abs(ell) if exceed is None else max(abs(ell), exceed)
    start = max(3, (floor + 1) | 1)
    small = _small_block()[1]
    for p in range(start, start + 2 * budget, 2):
        if p >= _SMALL_LIMIT and gcd(small, p) != 1:
            continue
        if jacobi(D, p) == -1 and is_prime(p):
            return NonResidueCertificate(D=D, ell=ell, p=p)
    raise BudgetExhausted(
        f"no prime above {to_decimal(floor)} with D a non-residue among "
        f"{budget} odd candidates"
    )
