"""Brute-force twins of closed forms and fast paths in the library.

Each oracle computes the same quantity the slow, direct way, and shares
no code with what it checks, so the tests can compare the two.
"""

from packpoly import (
    Collision,
    FrontierNotClosed,
    ModularGap,
    PackingVerdict,
    QuadPoly2,
    RegionCounts,
    SectorSpec,
    SquareDecomposition,
    diagonal_tail_min,
    sector_tail_min,
    validate,
)
from packpoly.errors import FactorizationTooHard, InvalidM, ZeroInput


def region_counts_bruteforce(m: int) -> RegionCounts:
    """The five region counts by direct iteration over the column bounds."""
    if m < 2:
        raise InvalidM(f"scale must be at least 2, got {m}")
    n1 = sum(len(range(0, 25 * m)) for _x in range(0, m))
    n2 = sum(len(range(0, 24 * m - x)) for x in range(m, 10 * m))
    n3 = sum(len(range(0, 10 * m)) for _x in range(10 * m, 14 * m))
    n4 = sum(len(range(0, 24 * m - x)) for x in range(14 * m, 23 * m))
    n5 = sum(len(range(0, m)) for _x in range(23 * m, 25 * m))
    return RegionCounts(m=m, n1=n1, n2=n2, n3=n3, n4=n4, n5=n5)


def sector_column(spec: SectorSpec, x: int) -> list[tuple[int, int]]:
    """Sector points with first coordinate x, ascending y."""
    return [(x, y) for y in range(x + 1) if spec.s * y <= spec.r * x]


def sector_prefix(spec: SectorSpec, count: int) -> list[tuple[int, int]]:
    """The first `count` sector points, column by column."""
    points: list[tuple[int, int]] = []
    x = 0
    while len(points) < count:
        points.extend(sector_column(spec, x))
        x += 1
    return points[:count]


def sector_prefix_frontier(spec: SectorSpec, which: str, count: int) -> int:
    """Proven lower bound beyond the first `count` sector points.

    Evaluates every point of the cut column past the prefix, and takes
    sector_tail_min for all later columns.
    """
    x_cut, y_cut = sector_prefix(spec, count)[-1]
    bound = sector_tail_min(spec, x_cut + 1)
    for x, y in sector_column(spec, x_cut):
        if y > y_cut:
            bound = min(bound, sector_value_by_numerator(spec, which, x, y))
    return bound


def gap_box_bound_by_bisection(F: QuadPoly2, g: int) -> int:
    """gap_box_bound by search: double, then bisect on the diagonal bound.

    The least B >= 1 with diagonal_tail_min(F, B + 1) > g, or 0 when the
    bound already exceeds g from the origin on.
    """
    if diagonal_tail_min(F, 0) > g:
        return 0
    lo, hi = 0, 1
    while diagonal_tail_min(F, hi + 1) <= g:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diagonal_tail_min(F, mid + 1) > g:
            hi = mid
        else:
            lo = mid
    return hi


def quadrant_outside_min_by_scan(F: QuadPoly2, box_bound: int) -> int:
    """quadrant_outside_min with the ring minimum found by evaluating
    every point of the lines x = box_bound + 1 and y = box_bound + 1
    up to their crossing.
    """
    bounds = [diagonal_tail_min(F, box_bound + 1)]
    if F.b >= 0 and F.a >= 0 and F.c >= 0 and F.a + F.d >= 0 and F.c + F.e >= 0:
        edge = box_bound + 1
        ring_doubled = min(
            min(F.doubled_value(edge, y) for y in range(edge + 1)),
            min(F.doubled_value(x, edge) for x in range(edge + 1)),
        )
        bounds.append(-(-ring_doubled // 2))
    return max(bounds)


def sector_value_by_numerator(spec: SectorSpec, which: str, x: int, y: int) -> int:
    """The sector polynomials at a sector point, from their displayed
    numerators, halved.

    lower = [r q^2 + (2 - r)x + (dr - 2d + 2)y] / 2 and
    upper = [r q^2 + (r + 2)x - (2d + s + 1)y] / 2 with q = x - dy.
    """
    r, s, d = spec.r, spec.s, spec.d
    q = x - d * y
    if which == "F":
        numerator = r * q * q + (2 - r) * x + (d * r - 2 * d + 2) * y
    else:
        numerator = r * q * q + (r + 2) * x - (2 * d + s + 1) * y
    assert numerator % 2 == 0, (spec, which, x, y)
    return numerator // 2


def modular_class_hit(F: QuadPoly2, cert: ModularGap, box: int):
    """A point of [0, box]^2 whose value lies in the claimed-empty class
    s + p mod p^2, or None.
    """
    p, s = cert.witness.p, cert.s
    for x in range(box + 1):
        for y in range(box + 1):
            if (F.evaluate(x, y) - s - p) % (p * p) == 0:
                return (x, y)
    return None


def gap_holds_by_scan(F: QuadPoly2, g: int, box: int) -> bool:
    """Whether Gap(g, box) holds for F, by a scan of the box's points.

    Growth must clear g beyond the box; inside, only [0, B*]^2 with
    B* = gap_box_bound_by_bisection(F, g) can attain g, and every point
    of that part of the box is evaluated.
    """
    if g < 0 or box < 0 or validate(F):
        return False
    if diagonal_tail_min(F, box + 1) <= g:
        return False
    inner = min(box, gap_box_bound_by_bisection(F, g))
    return all(
        F.evaluate(x, y) != g for x in range(inner + 1) for y in range(inner + 1)
    )


def square_decompose_by_odd_trial(D: int, trial_limit: int = 10**6) -> SquareDecomposition:
    """square_decompose by trial division with every odd d = 3, 5, 7, ...

    Raises FactorizationTooHard at the first d above trial_limit whose
    square does not exceed the cofactor left.
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
    d = 3
    while d * d <= n:
        if d > trial_limit:
            raise FactorizationTooHard(
                f"no factor of remaining cofactor {n} below {trial_limit}"
            )
        if n % d == 0:
            exp = 0
            while n % d == 0:
                n //= d
                exp += 1
            m *= d ** (exp // 2)
            if exp & 1:
                odd.append(d)
        d += 2
    if n > 1:
        odd.append(n)  # prime cofactor, first power
    return SquareDecomposition(alpha=alpha, beta=beta, m=m, odd_primes=tuple(odd))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _probably_prime(n: int) -> bool:
    """Exact by trial division up to 10^7; a Fermat test to the bases
    below 50 past that."""
    if n < 10**7:
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
    return all(n % q and pow(q, n - 1, n) == 1 for q in _SMALL_PRIMES)


def least_nonresidue_prime_by_euler(D: int, floor: int) -> int:
    """The least prime p > floor with D^((p-1)/2) = -1 (mod p), trying
    every integer in turn (Euler's criterion in place of the Jacobi
    symbol)."""
    n = floor + 1
    while not (n > 2 and pow(D % n, (n - 1) // 2, n) == n - 1 and _probably_prime(n)):
        n += 1
    return n


def verify_packing_by_dict_scan(
    evaluator, points, value_bound: int, frontier: int
) -> PackingVerdict:
    """verify_packing_bruteforce with a callback: evaluate each point in
    turn, keep the first point per value in a dict, and record the first
    repeat; then test every value up to the bound for membership.
    """
    if value_bound < 0:
        raise ValueError(f"value bound must be nonnegative, got {value_bound}")
    if frontier <= value_bound:
        raise FrontierNotClosed(
            f"outside lower bound {frontier} does not exceed value bound {value_bound}"
        )
    seen: dict = {}
    collision = None
    for pt in points:
        v = evaluator(pt)
        if collision is None and v in seen:
            collision = Collision(p1=seen[v], p2=pt, value=v)
        else:
            seen.setdefault(v, pt)
    return PackingVerdict(
        injective_on_box=collision is None,
        collision=collision,
        covered_upto=value_bound,
        gaps=tuple(v for v in range(value_bound + 1) if v not in seen),
        frontier_bound_used=frontier,
    )
