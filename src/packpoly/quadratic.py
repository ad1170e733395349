"""Standard-form integer quadratics F(x, y) = (a x^2 + 2b x y + c y^2 + d x + e y)/2 + f.

Any quadratic taking integer values on all of N0^2 can be written this
way with integer a..f satisfying a = d and c = e (mod 2).  This module
holds the representation, the structural checks a packing candidate must
pass, the complete-the-square identity used by the modular refutation,
the region counts behind the cross-coefficient bound, and exact growth
bounds that let finite scans speak about all of N0^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .decimals import to_decimal
from .errors import InvalidM, OddNumerator

Point2 = tuple[int, int]


@dataclass(frozen=True)
class QuadPoly2:
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def __repr__(self) -> str:
        # The dataclass repr, with coefficients of any size.
        fields = zip("abcdef", self.as_tuple())
        return "QuadPoly2(" + ", ".join(f"{k}={to_decimal(v)}" for k, v in fields) + ")"

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def numerator(self, x: int, y: int) -> int:
        """a x^2 + 2b x y + c y^2 + d x + e y, the doubled value minus 2f."""
        return (
            self.a * x * x
            + 2 * self.b * x * y
            + self.c * y * y
            + self.d * x
            + self.e * y
        )

    def doubled_value(self, x: int, y: int) -> int:
        """2 F(x, y); always an integer, whatever the parity of a..e."""
        return self.numerator(x, y) + 2 * self.f

    def evaluate(self, x: int, y: int) -> int:
        num = self.numerator(x, y)
        if num % 2:
            raise OddNumerator(
                f"numerator {to_decimal(num)} at ({to_decimal(x)}, {to_decimal(y)}) "
                "is odd; F is not integer-valued there"
            )
        return num // 2 + self.f

    def quadratic_part_doubled(self, x: int, y: int) -> int:
        """a x^2 + 2b x y + c y^2, twice the quadratic part."""
        return self.a * x * x + 2 * self.b * x * y + self.c * y * y


# The only two packing polynomials on the full quadrant, as coefficient tuples.
CANTOR1 = QuadPoly2(1, 1, 1, 1, 3, 0)
CANTOR2 = QuadPoly2(1, 1, 1, 3, 1, 0)


# ---------------------------------------------------------------------------
# structural validation


@dataclass(frozen=True)
class ValidationCheck:
    """One failed structural condition, with the identity that forces it.

    identity is human-readable documentation; witness (when present) is a
    lattice point realizing the failure and doubled_value is 2 F there
    (twice the quadratic part, for positive_definite_on_quadrant), so
    re-checking never divides by two.
    """

    name: str
    identity: str
    witness: Point2 | None = None
    doubled_value: int | None = None


def _doubling_scan_negative(F: QuadPoly2, direction: Point2) -> Point2:
    """First point t * direction (t = 1, 2, 4, ...) where 2F < 0.

    Only called when the restriction of F to that ray has negative leading
    coefficient, so termination is guaranteed.
    """
    t = 1
    while True:
        pt = (direction[0] * t, direction[1] * t)
        if F.doubled_value(*pt) < 0:
            return pt
        t *= 2


def _failed(
    F: QuadPoly2, name: str, identity: str, witness: Point2 | None = None
) -> ValidationCheck:
    doubled = None if witness is None else F.doubled_value(*witness)
    return ValidationCheck(name, identity, witness, doubled)


def validate(F: QuadPoly2) -> tuple[ValidationCheck, ...]:
    """The a-priori conditions F fails, in a fixed order; empty if none.

    Each failure comes with the identity that derives it from values of
    F alone, so it is a self-contained refutation; identities are only
    formatted for failures.  Positivity of the quadratic part on the
    quadrant is checked last, and only when every other condition holds.
    """
    a, b, c, d, e, f = F.as_tuple()
    failures: list[ValidationCheck] = []
    if a < 0:
        failures.append(_failed(
            F, "a_nonnegative",
            f"a = F(2,0) - 2F(1,0) + F(0,0) = {to_decimal(a)}; "
            "a < 0 makes F(x,0) negative for large x",
            _doubling_scan_negative(F, (1, 0)),
        ))
    if c < 0:
        failures.append(_failed(
            F, "c_nonnegative",
            f"c = F(0,2) - 2F(0,1) + F(0,0) = {to_decimal(c)}; "
            "c < 0 makes F(0,y) negative for large y",
            _doubling_scan_negative(F, (0, 1)),
        ))
    if f < 0:
        failures.append(_failed(
            F, "f_nonnegative",
            f"f = F(0,0) = {to_decimal(f)} must lie in the range N0", (0, 0),
        ))
    if (a - d) % 2:
        failures.append(_failed(
            F, "a_d_parity",
            f"F(1,0) - F(0,0) = (a + d)/2 with a = {to_decimal(a)}, "
            f"d = {to_decimal(d)} must be an integer",
            (1, 0),
        ))
    if (c - e) % 2:
        failures.append(_failed(
            F, "c_e_parity",
            f"F(0,1) - F(0,0) = (c + e)/2 with c = {to_decimal(c)}, "
            f"e = {to_decimal(e)} must be an integer",
            (0, 1),
        ))
    if (a, b, c) == (0, 0, 0):
        failures.append(_failed(
            F, "quadratic_part_nonzero",
            "a = b = c = 0 leaves an affine map, which packs no quadrant",
        ))
    if a == 0 and c == 0 and b < 1:
        failures.append(_failed(
            F, "cross_term_positive",
            "with a = c = 0, F(x,x) = b x^2 + ((d+e)/2) x + f >= 0 forces "
            f"b >= 1 (b = {to_decimal(b)})",
            _doubling_scan_negative(F, (1, 1)) if b < 0 else None,
        ))
    if failures:
        return tuple(failures)
    found = definiteness_witness(F)
    if found is None:
        return ()
    witness, doubled = found
    identity = (
        "the quadratic part must be positive on the quadrant "
        f"minus the origin; twice its value at ({to_decimal(witness[0])}, "
        f"{to_decimal(witness[1])}) is {to_decimal(doubled)}"
    )
    return (ValidationCheck("positive_definite_on_quadrant", identity, witness, doubled),)


# ---------------------------------------------------------------------------
# positivity of the quadratic part on the closed quadrant


def is_positive_definite_on_quadrant(F: QuadPoly2) -> bool:
    """True iff the quadratic part is positive on N0^2 minus the origin.

    Requires a >= 1 and c >= 1 (the axes witness anything less); then
    b >= 0 makes every term nonnegative, and b < 0 is positive exactly
    when b^2 < ac -- otherwise 2Q(c, -b) = c(ac - b^2) <= 0 at a lattice
    point of the quadrant.
    """
    if F.a < 1 or F.c < 1:
        return False
    return F.b >= 0 or F.b * F.b < F.a * F.c


def definiteness_witness(F: QuadPoly2) -> tuple[Point2, int] | None:
    """A quadrant lattice point (not the origin) with 2Q <= 0, or None."""
    if is_positive_definite_on_quadrant(F):
        return None
    if F.a < 1:
        return (1, 0), F.quadratic_part_doubled(1, 0)
    if F.c < 1:
        return (0, 1), F.quadratic_part_doubled(0, 1)
    # here b < 0 and b^2 >= ac
    pt = (F.c, -F.b)
    return pt, F.quadratic_part_doubled(*pt)


# ---------------------------------------------------------------------------
# complete-the-square identity


class SquareCompletion(NamedTuple):
    """Data for the identity 8aD * F(x,y) = D u(x,y)^2 - v(y)^2 + r.

    u(x, y) = 2a x + 2b y + d and v(y) = 2D y + (bd - ae), with
    D = b^2 - ac and r = (bd - ae)^2 - D d^2 + 8aDf.  The identity holds
    as polynomials in x and y for every integer a..f, including the
    degenerate cases a = 0 and D = 0.  Only D and r are kept: they are
    all the modular refutation reads.  A named tuple, not a frozen
    dataclass: it is built once per ModularGap classification and
    verification, and a tuple is the cheaper to build.
    """

    D: int
    r: int


def square_completion(F: QuadPoly2) -> SquareCompletion:
    a, b, c, d, e, f = F.as_tuple()
    D = b * b - a * c
    lincross = b * d - a * e
    r = lincross * lincross - D * d * d + 8 * a * D * f
    return SquareCompletion(D, r)


# ---------------------------------------------------------------------------
# region counts for the cross-coefficient bound


@dataclass(frozen=True)
class RegionCounts:
    """Lattice point counts of the five regions tiling the counting argument."""

    m: int
    n1: int
    n2: int
    n3: int
    n4: int
    n5: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2 + self.n3 + self.n4 + self.n5

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n1, self.n2, self.n3, self.n4, self.n5)


def region_counts(m: int) -> RegionCounts:
    """Closed-form counts; all five are integers for every m >= 2.

    The two halved forms are even: m^2 = m (mod 2), so 333 m^2 + 9m and
    99 m^2 + 9m are both even.
    """
    if m < 2:
        raise InvalidM(f"scale must be at least 2, got {to_decimal(m)}")
    return RegionCounts(
        m=m,
        n1=25 * m * m,
        n2=(333 * m * m + 9 * m) // 2,
        n3=40 * m * m,
        n4=(99 * m * m + 9 * m) // 2,
        n5=2 * m * m,
    )


# ---------------------------------------------------------------------------
# exact growth bounds (finite scans -> statements about all of N0^2)


def convex_tail_min(alpha: int, beta: int, gamma: int, start: int) -> int:
    """min over integers k >= start of alpha k^2 - beta k + gamma, alpha > 0."""
    if alpha <= 0:
        raise ValueError("leading coefficient must be positive")

    def q(k: int) -> int:
        return alpha * k * k - beta * k + gamma

    vertex = beta // (2 * alpha)  # floor of the real vertex
    lo = max(start, vertex)
    return min(q(lo), q(max(start, vertex + 1)))


def _growth_coefficients(F: QuadPoly2) -> tuple[int, int, int, int]:
    """(alpha, beta, gamma, scale) with alpha k^2 - beta k + gamma <= scale * F
    on the whole diagonal x + y = k of the quadrant.

    Sound whenever the quadratic part is positive on the quadrant:
    b >= 0 gives 4Q >= 2(a x^2 + c y^2) >= (x+y)^2, and b < 0 (so
    b^2 < ac) gives 2(a+c) * 2Q = 2(ac - b^2)(x^2 + y^2) + 2(cy + bx)^2
    + 2(ax + by)^2 >= (ac - b^2)(x+y)^2.  The linear part loses at most
    max(|d|, |e|) * k, and f only helps.
    """
    M = max(abs(F.d), abs(F.e))
    if F.b >= 0:
        return 1, 2 * M, 4 * F.f, 4
    spread = F.a + F.c
    return F.a * F.c - F.b * F.b, 2 * spread * M, 4 * spread * F.f, 4 * spread


def diagonal_tail_min(F: QuadPoly2, start: int) -> int:
    """Proven lower bound for F on every lattice point with x + y >= start.

    Requires the quadratic part positive on the quadrant.
    """
    alpha, beta, gamma, scale = _growth_coefficients(F)
    num = convex_tail_min(alpha, beta, gamma, start)
    return -(-num // scale)  # ceil: F is an integer >= num / scale


def gap_box_bound(F: QuadPoly2, g: int) -> int:
    """Smallest B >= 1 such that every lattice point outside [0, B]^2
    provably has F > g; 0 when the growth bound exceeds g everywhere.

    Outside the box means x + y >= B + 1, so it suffices that
    diagonal_tail_min(F, B + 1) > g, that is, h(j) = alpha j^2 - beta j
    + gamma - scale*g > 0 for every integer j >= B + 1 (coefficients from
    _growth_coefficients).  Unless that holds from j = 0 on, some integer
    j0 >= 0 has h(j0) <= 0, so h has a larger real root rho >= j0 and
    h <= 0 on every integer of [j0, rho]: the condition holds exactly for
    B + 1 > rho.  The least such B is floor(rho) = (beta + isqrt(disc))
    // (2 alpha), since flooring the square root first leaves the floor
    of the quotient unchanged.
    """
    if diagonal_tail_min(F, 0) > g:
        return 0
    alpha, beta, gamma, scale = _growth_coefficients(F)
    disc = beta * beta - 4 * alpha * (gamma - scale * g)
    return max(1, (beta + isqrt(disc)) // (2 * alpha))


def quadrant_outside_min(F: QuadPoly2, box_bound: int) -> int:
    """Proven lower bound for F on every lattice point outside [0, box_bound]^2.

    Requires the quadratic part positive on the quadrant.  Two sound
    bounds are combined: the diagonal growth bound, and -- when F is
    coordinatewise nondecreasing (b >= 0, a + d >= 0, c + e >= 0, with
    a, c >= 0) -- the exact minimum over the two boundary lines
    x = box_bound + 1 and y = box_bound + 1, to which every outside point
    walks down monotonically.  On those lines F is least where the other
    coordinate is 0, so the ring minimum is min(F(edge, 0), F(0, edge)).
    """
    bounds = [diagonal_tail_min(F, box_bound + 1)]
    if F.b >= 0 and F.a >= 0 and F.c >= 0 and F.a + F.d >= 0 and F.c + F.e >= 0:
        edge = box_bound + 1
        ring_doubled = min(F.doubled_value(edge, 0), F.doubled_value(0, edge))
        bounds.append(-(-ring_doubled // 2))
    return max(bounds)
