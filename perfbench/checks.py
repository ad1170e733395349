"""Independent checks of packpoly's outputs.

Nothing here imports packpoly.  Every fact a check relies on is computed
again from the inputs with this file's own arithmetic: polynomial values,
primality, Euler's criterion, the Cantor formulas, the sector formulas and
the diagonal and column enumerations.  Certificates are read from the JSON
text the library wrote, with the standard json module, not with the
library's decoder.

Each check returns None when the output holds and a one-line reason when
it does not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt
from typing import Any, Optional

Coeffs = tuple[int, int, int, int, int, int]

CANTOR_TUPLES = {(1, 1, 1, 1, 3, 0): 1, (1, 1, 1, 3, 1, 0): 2}
NAMES = ("a", "b", "c", "d", "e", "f")

# ---------------------------------------------------------------------------
# arithmetic


def twice_f(co: Coeffs, x: int, y: int) -> int:
    """2 F(x, y) = a x^2 + 2b xy + c y^2 + d x + e y + 2f."""
    a, b, c, d, e, f = co
    return a * x * x + 2 * b * x * y + c * y * y + d * x + e * y + 2 * f


def twice_q(co: Coeffs, x: int, y: int) -> int:
    """Twice the quadratic part, a x^2 + 2b xy + c y^2."""
    a, b, c = co[:3]
    return a * x * x + 2 * b * x * y + c * y * y


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_ROUNDS = 24


def is_prime(n: int) -> bool:
    """Trial division below 10^12, Miller-Rabin with random bases above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 10**12:
        return all(n % k for k in range(49, isqrt(n) + 1, 2))
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(_MR_ROUNDS):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_positive_definite(co: Coeffs) -> bool:
    """Quadratic part positive on the quadrant minus the origin."""
    a, b, c = co[:3]
    return a >= 1 and c >= 1 and (b >= 0 or b * b < a * c)


def stratum(co: Coeffs) -> str:
    """What a correct classifier must answer, decided from the coefficients.

    structural: a failed a-priori condition (sign, parity, definiteness);
    modular: definite with D = b^2 - ac not a square;
    witness: definite with D a square (Cantor match, collision, gap or a
    negative value).
    """
    a, b, c, d, e, f = co
    if min(a, c, f) < 0 or (a - d) % 2 or (c - e) % 2:
        return "structural"
    if not is_positive_definite(co):
        return "structural"
    D = b * b - a * c
    if D < 0 or isqrt(D) ** 2 != D:
        return "modular"
    return "witness"


def box(B: int) -> list[Coeffs]:
    """The coefficient box of the paper's search, with its parity rules."""
    out = []
    for a in range(B + 1):
        for b in range(-B, B + 1):
            for c in range(B + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                for d in range(-B, B + 1):
                    if (a - d) % 2:
                        continue
                    for e in range(-B, B + 1):
                        if (c - e) % 2:
                            continue
                        out.extend((a, b, c, d, e, f) for f in range(B + 1))
    return out


def box_count(B: int) -> int:
    """Number of candidates in box(B), counted by parity classes."""
    same_parity = {p: sum(1 for d in range(-B, B + 1) if d % 2 == p) for p in (0, 1)}
    total = 0
    for a in range(B + 1):
        for c in range(B + 1):
            b_values = 2 * B + 1 - (1 if a == c == 0 else 0)
            total += b_values * same_parity[a % 2] * same_parity[c % 2]
    return total * (B + 1)


def cantor_value(variant: int, x: int, y: int) -> int:
    """Position of (x, y) on its diagonal walk: k(k+1)/2 plus the step."""
    k = x + y
    return k * (k + 1) // 2 + (y if variant == 1 else x)


def diagonal_walk(count: int) -> list[tuple[int, int]]:
    """The first `count` points of the first Cantor walk, by enumeration."""
    points: list[tuple[int, int]] = []
    k = 0
    while len(points) < count:
        points.extend((k - y, y) for y in range(k + 1))
        k += 1
    return points[:count]


def in_sector(r: int, s: int, x: int, y: int) -> bool:
    return x >= 0 and y >= 0 and s * y <= r * x


def sector_value(r: int, s: int, which: str, x: int, y: int) -> int:
    """The sector polynomials through the segment q = x - dy.

    On a segment, F = q(rq + 2 - r)/2 + y climbs and G = q(rq + r + 2)/2 - y
    descends; both products are even because q(q - 1) and q(q + 1) are.
    """
    d = (s - 1) // r
    q = x - d * y
    if which == "F":
        return q * (r * q + 2 - r) // 2 + y
    return q * (r * q + r + 2) // 2 - y


def sector_columns(r: int, s: int, count: int) -> list[tuple[int, int]]:
    """The first `count` sector points, column by column."""
    points: list[tuple[int, int]] = []
    x = 0
    while len(points) < count:
        points.extend((x, y) for y in range(r * x // s + 1))
        x += 1
    return points[:count]


# ---------------------------------------------------------------------------
# certificates


def _int(token: Any) -> int:
    """A decimal string of any length: int() refuses more than 4,300 digits."""
    if not isinstance(token, str) or not token.lstrip("-").isdigit():
        raise ValueError(f"not a decimal string: {token!r}")
    digits = token.lstrip("-")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if token.startswith("-") else value


def _point(tokens: Any) -> tuple[int, int]:
    if not isinstance(tokens, list) or len(tokens) != 2:
        raise ValueError(f"not a point: {tokens!r}")
    x, y = (_int(t) for t in tokens)
    if min(x, y) < 0:
        raise ValueError(f"point {tokens!r} is outside the quadrant")
    return x, y


def _diagonal_min2(co: Coeffs, k: int) -> int:
    """Exact minimum of 2F over the lattice points with x + y = k."""
    values = [twice_f(co, 0, k), twice_f(co, k, 0)]
    a, b, c, d, e, _ = co
    # 2F(t, k - t) = alpha t^2 + beta t + gamma
    alpha = a - 2 * b + c
    beta = 2 * b * k - 2 * c * k + d - e
    if alpha > 0:
        t = -beta // (2 * alpha)
        values += [twice_f(co, u, k - u) for u in (t, t + 1) if 0 <= u <= k]
    return min(values)


def _gap_holds(co: Coeffs, g: int, box_bound: int) -> Optional[str]:
    if g < 0 or box_bound < 0:
        return "negative gap value or box"
    if not is_positive_definite(co):
        return "gap claimed for an indefinite quadratic part"
    for x in range(box_bound + 1):
        for y in range(box_bound + 1):
            if twice_f(co, x, y) == 2 * g:
                return f"gap value {g} is attained at ({x}, {y})"
    # Outside the box x + y > box_bound.  On the diagonal x + y = k,
    # 2F >= mu k^2 - L k + 2f with mu the minimum of the quadratic part over
    # the unit segment and L the worst linear slope; past K that bound
    # clears 2g and grows, and below K each diagonal is minimised exactly.
    a, b, c, d, e, f = co
    alpha = a - 2 * b + c
    mu = Fraction(min(a, c))
    if alpha > 0 and 0 < c - b < alpha:
        mu = Fraction(a * c - b * b, alpha)
    slope = max(0, -d, -e)
    k = box_bound + 1
    while not (mu * k * k - slope * k + 2 * f > 2 * g and 2 * mu * k >= slope):
        if _diagonal_min2(co, k) <= 2 * g:
            return f"the diagonal x + y = {k} outside the box reaches {g}"
        k += 1
    return None


def _structural_failure_holds(co: Coeffs, item: Any) -> Optional[str]:
    a, b, c, d, e, f = co
    name = item.get("name")
    witness = item.get("witness")
    doubled = item.get("doubled_value")
    point = None if witness is None else _point(witness)
    value = None if doubled is None else _int(doubled)
    if point is not None and value is not None:
        own = twice_q(co, *point) if name == "positive_definite_on_quadrant" else twice_f(co, *point)
        if own != value:
            return f"{name}: doubled value at {point} is {own}, not {value}"
    claims = {
        "a_nonnegative": a < 0,
        "c_nonnegative": c < 0,
        "f_nonnegative": f < 0,
        "a_d_parity": (a - d) % 2 == 1,
        "c_e_parity": (c - e) % 2 == 1,
        "quadratic_part_nonzero": (a, b, c) == (0, 0, 0),
        "cross_term_positive": a == 0 and c == 0 and b < 1,
        "positive_definite_on_quadrant": (
            not is_positive_definite(co)
            and point not in (None, (0, 0))
            and value is not None
            and value <= 0
        ),
        "nonnegative_range": point is not None and value is not None and value < 0,
    }
    if not claims.get(name, False):
        return f"structural failure {name!r} does not hold for {co}"
    return None


_ALLOWED = {
    "structural": {"structural_fail"},
    "modular": {"modular_gap"},
    "witness": {"is_cantor1", "is_cantor2", "collision", "gap", "structural_fail"},
}


def check_document(co: Coeffs, text: str, expected: str, rng: random.Random) -> Optional[str]:
    """Re-derive one certificate document for the candidate `co`."""
    try:
        node = json.loads(text)
        if node.get("format") != "packing-certificate" or node.get("version") != 1:
            return "unknown document format"
        subject = node["subject"]
        if subject.get("kind") != "quadratic":
            return "subject is not a quadratic"
        if tuple(_int(subject["coefficients"][n]) for n in NAMES) != co:
            return "document subject differs from the candidate"
        cert = node["certificate"]
        kind = cert["kind"]
        if kind not in _ALLOWED[expected]:
            return f"{co} is {expected} but the certificate is {kind}"
        if kind in ("is_cantor1", "is_cantor2"):
            if CANTOR_TUPLES.get(co) != int(kind[-1]):
                return f"{co} accepted as Cantor polynomial {kind[-1]}"
            return None
        if kind == "collision":
            p1, p2, value = _point(cert["p1"]), _point(cert["p2"]), _int(cert["value"])
            if p1 == p2:
                return "collision of a point with itself"
            if not twice_f(co, *p1) == twice_f(co, *p2) == 2 * value:
                return f"collision {p1}, {p2} does not share the value {value}"
            return None
        if kind == "gap":
            return _gap_holds(co, _int(cert["value"]), _int(cert["box_bound"]))
        if kind == "modular_gap":
            return _modular_gap_holds(co, cert, rng)
        failures = cert["failures"]
        if not isinstance(failures, list) or not failures:
            return "structural failure with no failures"
        if expected == "witness" and any(i.get("name") != "nonnegative_range" for i in failures):
            return f"definite candidate {co} refuted by a structural condition"
        for item in failures:
            reason = _structural_failure_holds(co, item)
            if reason:
                return reason
        return None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed document: {exc!r}"


def _modular_gap_holds(co: Coeffs, cert: Any, rng: random.Random) -> Optional[str]:
    a, b, c, d, e, f = co
    witness = cert["witness"]
    D, ell, p, s = (_int(witness["D"]), _int(witness["ell"]), _int(witness["p"]), _int(cert["s"]))
    if D != b * b - a * c or ell != 8 * a:
        return "modular witness is for another D or ell"
    if p <= abs(ell) or not is_prime(p):
        return f"witness p = {p} is not a prime above {abs(ell)}"
    if pow(D % p, (p - 1) // 2, p) != p - 1:
        return f"D is not a non-residue modulo {p} (Euler's criterion)"
    if not 0 <= s < p:
        return "residue s out of range"
    # 8aD F = D u^2 - v^2 + r with u = 2ax + 2by + d, v = 2Dy + bd - ae
    r = (b * d - a * e) ** 2 - D * d * d + 8 * a * D * f
    if (8 * a * D * s - r) % p:
        return "s does not solve 8aD s = r (mod p)"
    mod = p * p
    target = (s + p) % mod
    points = [(i, j) for i in range(3) for j in range(3 - i)]
    points += [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(64)]
    for x, y in points:
        if (twice_f(co, x, y) // 2 - target) % mod == 0:
            return f"F{(x, y)} lies in the claimed empty class {target} mod {mod}"
    return None


def tamper(text: str) -> str:
    """A copy of the document whose certificate no longer holds."""
    node = json.loads(text)
    cert = node["certificate"]
    kind = cert["kind"]
    if kind == "is_cantor1":
        cert["kind"] = "is_cantor2"
    elif kind == "is_cantor2":
        cert["kind"] = "is_cantor1"
    elif kind == "collision":
        cert["value"] = str(_int(cert["value"]) + 1)
    elif kind == "gap":
        cert["value"] = node["subject"]["coefficients"]["f"]  # F(0, 0) is attained
    elif kind == "modular_gap":
        cert["s"] = str((_int(cert["s"]) + 1) % _int(cert["witness"]["p"]))
    else:
        cert["failures"][0]["name"] = "quadratic_part_nonzero"
    return json.dumps(node, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# workload results


def check_search(matches: list[tuple[Coeffs, int]]) -> Optional[str]:
    """The classical theorem: exactly the two Cantor tuples pack."""
    if sorted(matches) != sorted(CANTOR_TUPLES.items()):
        return f"search returned {matches}, not the two Cantor polynomials"
    return None


def check_pair(variant: int, x: int, y: int, n: int, walk: list[tuple[int, int]]) -> Optional[str]:
    if cantor_value(variant, x, y) != n:
        return f"cantor{variant}({x}, {y}) != {n}"
    if variant == 1 and n < len(walk) and walk[n] != (x, y):
        return f"cantor1 places {(x, y)} at {n}, the diagonal walk has {walk[n]}"
    return None


def check_packm(coords: tuple[int, ...], n: int, back: tuple[int, ...]) -> Optional[str]:
    acc = coords[0]
    for value in coords[1:]:
        acc = cantor_value(1, acc, value)
    if acc != n or tuple(back) != tuple(coords):
        return f"pack/unpack round trip fails at dimension {len(coords)}"
    return None


def check_sector_point(r: int, s: int, which: str, n: int, point: tuple[int, int]) -> Optional[str]:
    x, y = point
    if not in_sector(r, s, x, y):
        return f"{point} lies outside the {r}/{s} sector"
    if sector_value(r, s, which, x, y) != n:
        return f"sector {which} at {point} is {sector_value(r, s, which, x, y)}, not {n}"
    return None


def check_sector_verdict(r: int, s: int, which: str, points: int, verdict: dict) -> Optional[str]:
    if not verdict["injective"] or verdict["gaps"] or verdict["collision"]:
        return f"sector {r}/{s} {which}: verdict is not a clean packing prefix"
    top = verdict["covered_upto"]
    if top < 0 or verdict["frontier"] != top + 1:
        return f"sector {r}/{s} {which}: frontier {verdict['frontier']} vs range {top}"
    values = sorted(
        v for v in (sector_value(r, s, which, x, y) for x, y in sector_columns(r, s, points)) if v <= top
    )
    if values != list(range(top + 1)):
        return f"sector {r}/{s} {which}: prefix does not take each value up to {top} once"
    return None


def check_fault(expected: str, error: BaseException) -> Optional[str]:
    """The two faults kept in certify-big, and nothing else."""
    if expected == "factorization" and type(error).__name__ == "FactorizationTooHard":
        return None
    if expected == "str-limit" and isinstance(error, ValueError) and "string conversion" in str(error):
        return None
    return f"unexpected failure ({expected}): {type(error).__name__}: {str(error)[:200]}"
