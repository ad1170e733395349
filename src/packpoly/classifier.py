"""Decision engine for quadratic packing candidates, with checkable certificates.

classify() either recognizes one of the two Cantor coefficient tuples or
refutes the candidate, and every refutation carries enough data to be
re-verified independently of the search that produced it:

  Collision     two distinct quadrant points with equal value
  Gap           a nonnegative value no lattice point attains, with a box
                outside which growth provably exceeds it
  ModularGap    a prime p and residue s such that values = s + p (mod p^2)
                are never attained
  StructuralFail  a violated a-priori condition with its witness

verify_certificate re-derives each claim from the polynomial and returns
False (never raises) when anything fails to match.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .decimals import to_decimal
from .errors import (
    CrossCheckFailed,
    DimensionTooSmall,
    NotQuadratic,
    PackpolyError,
    SearchExhausted,
)
from .numtheory import NonResidueCertificate, is_square, nonresidue_prime
from .quadratic import (
    CANTOR1,
    CANTOR2,
    QuadPoly2,
    ValidationCheck,
    diagonal_tail_min,
    gap_box_bound,
    is_positive_definite_on_quadrant,
    square_completion,
    validate,
)

Point2 = tuple[int, int]
PointM = tuple[int, ...]
# (D, ell, floor) -> nonresidue_prime(D, ell, exceed=floor), memoized or not
_WitnessSource = Callable[[int, int, int | None], NonResidueCertificate]
_MAX_DIAGONAL = 600  # the witness search gives up past this diagonal


@dataclass(frozen=True)
class Collision:
    """F(p1) = F(p2) = value with p1 != p2; refutes injectivity."""

    p1: PointM
    p2: PointM
    value: int


@dataclass(frozen=True)
class Gap:
    """No lattice point attains `value`; refutes surjectivity.

    Every point of [0, box_bound]^2 misses it and every point outside has
    x + y > box_bound, where the diagonal growth bound already exceeds it.
    verify_certificate solves F(x, y) = value for y on each column x of the
    least such box with one integer square root, so its cost grows with
    that box, about sqrt(value), and not with the box a document claims.
    """

    value: int
    box_bound: int


@dataclass(frozen=True)
class ModularGap:
    """Values congruent to s + p (mod p^2) are never attained.

    witness carries the non-residue prime p for D = b^2 - ac with
    ell = 8a; s is the least nonnegative solution of 8aD s = r (mod p)
    for the completed-square constant r.  Any attained value v has
    8aD v = D u^2 - v'^2 + r with (D/p) = -1, forcing v = s (mod p) to
    imply v = s (mod p^2); so the class of s + p modulo p^2 is empty.
    verify_certificate proves the identity from F's values at six points
    and re-checks each congruence.
    """

    witness: NonResidueCertificate
    s: int


@dataclass(frozen=True)
class StructuralFail:
    """One or more a-priori conditions failed; see each check's identity."""

    failures: tuple[ValidationCheck, ...]


@dataclass(frozen=True)
class CantorMatch:
    """Exact coefficient match with one of the two packing polynomials."""

    variant: int  # 1 or 2

    def __post_init__(self) -> None:
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {self.variant}")


Certificate = Union[Collision, Gap, ModularGap, StructuralFail, CantorMatch]


# ---------------------------------------------------------------------------
# classification


def classify(F: QuadPoly2) -> Certificate:
    """Decide whether F packs N0^2, producing a certificate either way.

    Pipeline: structural validation, positivity of the quadratic part
    included; modular refutation when D = b^2 - ac is not a square, of
    any size, with a witness prime from nonresidue_prime; exact
    coefficient match against the two Cantor tuples; witness search
    (collision / gap / negative value) over the first 601 diagonals,
    x + y <= 600, for everything else, raising SearchExhausted past them.
    Each call finds its witness primes afresh.
    """
    return _classify(F, nonresidue_prime)


def _classify(F: QuadPoly2, witness_prime: _WitnessSource) -> Certificate:
    """classify(F), taking each witness prime from witness_prime(D, 8a, floor)."""
    if (F.a, F.b, F.c) == (0, 0, 0):
        raise NotQuadratic("candidate has no quadratic part; use refute_linear")

    failures = validate(F)
    if failures:
        return StructuralFail(failures=failures)

    D = F.b * F.b - F.a * F.c
    if is_square(D) is None:
        return _modular_gap(F, D, witness_prime)

    if F.as_tuple() == CANTOR1.as_tuple():
        return CantorMatch(1)
    if F.as_tuple() == CANTOR2.as_tuple():
        return CantorMatch(2)

    # D is a square but the coefficients are not a Cantor tuple; a finite
    # witness (collision, gap, or negative value) is guaranteed to exist.
    return _witness_search(F)


def _modular_gap(F: QuadPoly2, D: int, witness_prime: _WitnessSource) -> ModularGap:
    """The ModularGap certificate for F, whose D = b^2 - ac is not a square.

    Each witness prime comes from one witness_prime(D, 8a, floor) call,
    with floor None at first and the previous prime on each retry; a
    retry factors D again (or scans again where D has no factor below
    10^6) unless the source caches it.  Retries are rare.
    """
    ell = 8 * F.a  # a >= 1 past the definiteness stage, so ell != 0
    r = square_completion(F).r
    floor = None
    while True:
        witness = witness_prime(D, ell, floor)
        p = witness.p
        # The certificate declares the class of s + p empty, so if the one
        # attainable lift happens to be that very class, move on to the
        # next witness prime.
        s0 = _attainable_lift(ell * D, r, p)
        s = s0 % p
        if (s + p - s0) % (p * p) != 0:
            return ModularGap(witness=witness, s=s)
        floor = p


def _attainable_lift(ell_D: int, r: int, p: int) -> int:
    """s0 with 8aD s0 = r (mod p^2): attained values = s0 (mod p) all lie in it.

    ell_D = 8aD is prime to p, since p > 8a and (D/p) = -1.
    """
    pp = p * p
    return r * pow(ell_D % pp, -1, pp) % pp


def _witness_search(F: QuadPoly2) -> Certificate:
    """Scan diagonals in enumeration order for the first refuting witness.

    Precondition: F validated and its quadratic part positive on the
    quadrant, so diagonal_tail_min applies and values are integers.
    """
    seen: dict[int, Point2] = {}
    probe = 0  # smallest value not yet confirmed attained
    for k in range(_MAX_DIAGONAL + 1):
        for x in range(k, -1, -1):  # lower right to upper left
            pt = (x, k - x)
            v = F.evaluate(*pt)
            if v < 0:
                return StructuralFail(
                    failures=(
                        ValidationCheck(
                            name="nonnegative_range",
                            identity=(
                                f"a packing polynomial maps into N0, but "
                                f"2 F{pt} = {to_decimal(2 * v)}"
                            ),
                            witness=pt,
                            doubled_value=2 * v,
                        ),
                    )
                )
            if v in seen:
                return Collision(p1=seen[v], p2=pt, value=v)
            seen[v] = pt
        # Everything not yet scanned lies on diagonals >= k + 1.
        floor_beyond = diagonal_tail_min(F, k + 1)
        while probe in seen:
            probe += 1
        if probe < floor_beyond:
            # probe is missed by every scanned point and provably exceeded
            # by every unscanned one: a genuine gap.
            return Gap(value=probe, box_bound=gap_box_bound(F, probe))
    raise SearchExhausted(
        f"no collision or certified gap within {_MAX_DIAGONAL} diagonals"
    )


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(F: QuadPoly2, certificate: Certificate) -> bool:
    """Re-check a certificate against F from scratch.

    Returns False (rather than raising) when the certificate does not
    hold for this polynomial, including certificates produced for a
    different polynomial.  A ModularGap is proved from six values of F,
    with no scan over a box of values.
    """
    try:
        return _verify(F, certificate)
    except (PackpolyError, ValueError, OverflowError):
        return False


# A polynomial of degree <= 2 in x, y that vanishes here is zero.
_UNISOLVENT_POINTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _verify(F: QuadPoly2, certificate: Certificate) -> bool:
    if isinstance(certificate, CantorMatch):
        target = CANTOR1 if certificate.variant == 1 else CANTOR2
        return F.as_tuple() == target.as_tuple()

    if isinstance(certificate, Collision):
        p1, p2 = certificate.p1, certificate.p2
        if len(p1) != 2 or len(p2) != 2 or p1 == p2:
            return False
        if min(p1) < 0 or min(p2) < 0:
            return False
        return (
            F.evaluate(*p1) == certificate.value
            and F.evaluate(*p2) == certificate.value
        )

    if isinstance(certificate, Gap):
        g, box = certificate.value, certificate.box_bound
        if g < 0 or box < 0:
            return False
        if validate(F):
            return False
        # growth beyond the box: every outside point has x + y > box
        if diagonal_tail_min(F, box + 1) <= g:
            return False
        # growth already clears g beyond the least such box, so only that
        # part of the claimed box is searched, whatever size it claims
        inner = gap_box_bound(F, g)
        if diagonal_tail_min(F, inner + 1) <= g:
            return False
        inner = min(box, inner)
        # on column x, F = g reads c y^2 + (2bx + e) y + (ax^2 + dx + 2f - 2g)
        # = 0 with c >= 1: an integer root needs a square discriminant
        for x in range(inner + 1):
            lin = 2 * F.b * x + F.e
            disc = lin * lin - 4 * F.c * (F.a * x * x + F.d * x + 2 * F.f - 2 * g)
            root = is_square(disc)
            if root is None:
                continue
            for num in (root - lin, -root - lin):
                if num % (2 * F.c) == 0 and 0 <= num // (2 * F.c) <= inner:
                    return False
        return True

    if isinstance(certificate, ModularGap):
        witness, s = certificate.witness, certificate.s
        a = F.a
        # a = d and c = e (mod 2) make every value of F an integer
        if (a - F.d) % 2 or (F.c - F.e) % 2:
            return False
        completion = square_completion(F)
        D, r = completion.D, completion.r
        if witness.D != D or witness.ell != 8 * a:
            return False
        # p is an odd prime, p does not divide 8a and (D/p) = -1, so p is
        # also prime to 8aD
        if not witness.holds():
            return False
        p = witness.p
        if not 0 <= s < p:
            return False
        # 8aD F = D u^2 - v^2 + r as polynomials: both sides have degree 2,
        # so agreeing on the six points with x + y <= 2 proves it.
        lincross = F.b * F.d - a * F.e
        for x, y in _UNISOLVENT_POINTS:
            u = 2 * a * x + 2 * F.b * y + F.d
            v = 2 * D * y + lincross
            if 8 * a * D * F.evaluate(x, y) != D * u * u - v * v + r:
                return False
        if (8 * a * D * s - r) % p != 0:
            return False
        # the one attainable lift of s mod p^2 must not be the claimed class
        s0 = _attainable_lift(8 * a * D, r, p)
        return (s + p - s0) % (p * p) != 0

    if isinstance(certificate, StructuralFail):
        if not certificate.failures:
            return False
        return all(_recheck_failure(F, chk) for chk in certificate.failures)

    return False


def _recheck_failure(F: QuadPoly2, chk: ValidationCheck) -> bool:
    """Re-derive one claimed structural failure from the coefficients."""
    name = chk.name
    witness_ok = True
    if chk.witness is not None:
        if len(chk.witness) != 2 or min(chk.witness) < 0:
            return False
        if chk.doubled_value is not None:
            witness_ok = F.doubled_value(*chk.witness) == chk.doubled_value

    if name == "a_nonnegative":
        return F.a < 0 and witness_ok
    if name == "c_nonnegative":
        return F.c < 0 and witness_ok
    if name == "f_nonnegative":
        return F.f < 0 and witness_ok
    if name == "a_d_parity":
        return (F.a - F.d) % 2 != 0
    if name == "c_e_parity":
        return (F.c - F.e) % 2 != 0
    if name == "quadratic_part_nonzero":
        return (F.a, F.b, F.c) == (0, 0, 0)
    if name == "cross_term_positive":
        return F.a == 0 and F.c == 0 and F.b < 1 and witness_ok
    if name == "positive_definite_on_quadrant":
        if is_positive_definite_on_quadrant(F):
            return False
        if chk.witness is None or chk.witness == (0, 0):
            return False
        return (
            F.quadratic_part_doubled(*chk.witness) == chk.doubled_value
            and chk.doubled_value <= 0
        )
    if name == "nonnegative_range":
        return (
            chk.witness is not None
            and chk.doubled_value is not None
            and chk.doubled_value < 0
            and witness_ok
        )
    return False


# ---------------------------------------------------------------------------
# linear candidates


@dataclass(frozen=True)
class LinearSubject:
    """F(x) = sum(coeffs[i] * x[i]) + constant on {x : min(x) >= ell}."""

    coeffs: tuple[int, ...]
    constant: int
    ell: int

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != len(self.coeffs):
            raise ValueError("dimension mismatch")
        return sum(a * x for a, x in zip(self.coeffs, point)) + self.constant


def refute_linear(coeffs: Sequence[int], constant: int, ell: int = 0) -> Collision:
    """Two distinct points of {x : min(x) >= ell} with equal value.

    No affine map with at least two variables is injective there: if all
    coefficients vanish any two points collide, otherwise shifting along
    a_i e_j - a_j e_i (first nonzero a_i, any other index j) leaves the
    value unchanged, and basing the shift at coordinates ell + max|a_i|
    keeps both points inside the domain.
    """
    m = len(coeffs)
    if m < 2:
        raise DimensionTooSmall(f"need at least 2 variables, got {m}")
    if ell < 0:
        raise ValueError(
            f"domain threshold must be nonnegative, got {to_decimal(ell)}"
        )
    coeffs = tuple(coeffs)
    subject = LinearSubject(coeffs=coeffs, constant=constant, ell=ell)
    if all(a == 0 for a in coeffs):
        p1 = (ell,) * m
        p2 = (ell + 1,) + (ell,) * (m - 1)
    else:
        i = next(idx for idx, a in enumerate(coeffs) if a != 0)
        j = 1 if i == 0 else 0
        spread = max(abs(a) for a in coeffs)
        base = [ell + spread] * m
        shifted = list(base)
        shifted[j] += coeffs[i]
        shifted[i] -= coeffs[j]
        p1, p2 = tuple(base), tuple(shifted)
    return Collision(p1=p1, p2=p2, value=subject.evaluate(p1))


def verify_linear_collision(subject: LinearSubject, certificate: Collision) -> bool:
    """Re-check a linear collision: both points in domain, distinct, equal."""
    try:
        p1, p2 = certificate.p1, certificate.p2
        m = len(subject.coeffs)
        if len(p1) != m or len(p2) != m or p1 == p2:
            return False
        if min(p1) < subject.ell or min(p2) < subject.ell:
            return False
        return (
            subject.evaluate(p1) == certificate.value
            and subject.evaluate(p2) == certificate.value
        )
    except (PackpolyError, ValueError):
        return False


# ---------------------------------------------------------------------------
# exhaustive search over small coefficient boxes


def search_quadratics(
    coeff_bound: int,
    region_bound: int,
    value_bound: int,
) -> list[tuple[QuadPoly2, Certificate]]:
    """All packing polynomials with |coefficients| <= coeff_bound.

    Enumerates every candidate satisfying the parity constraints with
    a, c, f in [0, coeff_bound] and b, d, e in [-coeff_bound, coeff_bound],
    classifies each as classify(F) does, and independently
    brute-force-verifies every match (injective on [0, region_bound]^2
    and gap-free up to value_bound) before reporting it; a match the
    brute force rejects raises CrossCheckFailed.  Results are sorted by
    coefficient tuple.  Within one call, candidates with the same
    D = b^2 - ac and a share their ModularGap witness primes through one
    memo of nonresidue_prime, so each is found once; nothing is kept
    between calls.  A negative bound raises ValueError before any
    candidate is classified.
    """
    from .bruteforce import verify_quadratic_packing

    for name, bound in (
        ("coefficient", coeff_bound),
        ("region", region_bound),
        ("value", value_bound),
    ):
        if bound < 0:
            raise ValueError(
                f"{name} bound must be nonnegative, got {to_decimal(bound)}"
            )
    B = coeff_bound
    witness_prime = functools.cache(nonresidue_prime)
    confirmed: list[tuple[QuadPoly2, Certificate]] = []
    for a in range(0, B + 1):
        for b in range(-B, B + 1):
            for c in range(0, B + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                for d in range(-B, B + 1):
                    if (a - d) % 2:
                        continue
                    for e in range(-B, B + 1):
                        if (c - e) % 2:
                            continue
                        for f in range(0, B + 1):
                            F = QuadPoly2(a, b, c, d, e, f)
                            cert = _classify(F, witness_prime)
                            if not isinstance(cert, CantorMatch):
                                continue
                            verdict = verify_quadratic_packing(
                                F, region_bound, value_bound
                            )
                            if not verdict.injective_on_box or verdict.gaps:
                                raise CrossCheckFailed(
                                    f"classifier and brute force disagree on {F}"
                                )
                            confirmed.append((F, cert))
    confirmed.sort(key=lambda pair: pair[0].as_tuple())
    return confirmed
