"""The four workloads: their inputs, one round of operations each, and checks.

A workload is built from a seed, then asked for rounds 0, 1, 2, ...  Round
i always performs the same operations on the same inputs, so a run can be
replayed and every run attempts whole rounds.  Operations call packpoly
through module attributes (``lib.classifier.classify``), the names a traced
run replaces.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Optional

import checks

SEARCH_BOX = (4, 60, 500)  # search_quadratics(coeff_bound, region_bound, value_bound)
CERTIFY_BOX = 4
# Candidates per certify round, by the stratum checks.stratum predicts.
CERTIFY_MIX = {"structural": 6, "modular": 4, "witness": 1}
BIG_DIGITS = (200, 1000, 3000)  # one ModularGap-bound candidate each
BIG_STRUCTURAL_DIGITS = (500, 4000)  # one parity and one definiteness failure
BIG_ROUNDS = 16
# Fixed inputs that fail every time today (see README): D = -1000003 * 1000033,
# D = -P Q with P, Q the primes below, and an f past 4300 digits.
PRIME_P = 10**149 + 183
PRIME_Q = 2 * 10**149 + 801
SLOPES = ((1, 2), (2, 3), (3, 7), (4, 9), (5, 11))
# n in [10^k, 1.1 * 10^k]; the cost grows with n, so 10^4 only on the cheapest slope
SECTOR_MAGNITUDES = (1, 2, 3)
SECTOR_LARGE = ((1, 2), 4)
SECTOR_POINTS = 3000
PAIR_BITS = (64, 1024, 4096)
PACKM_SHAPES = tuple((m, 64) for m in range(2, 9)) + ((10, 16), (12, 16))
INDEX_ROUNDS = 32
# Share of certificates the checks also pass through verify-cert (each one
# repeats a full verification); every tampered copy goes through it.
CLI_ACCEPT_SHARE = 0.25
SMALL_N = 5000  # cantor ops on n below this are checked against the walk


@dataclass
class Op:
    """One attempted operation: what it cost, what it returned, how to check it."""

    kind: str
    seconds: float
    work: int = 1
    error: Optional[BaseException] = None
    stages: dict[str, float] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None


LAYERS = ("pairing", "quadratic", "numtheory", "classifier", "bruteforce", "sector", "serialize", "cli")


def load_library() -> SimpleNamespace:
    """The packpoly layer modules, imported by name."""
    return SimpleNamespace(**{name: importlib.import_module(f"packpoly.{name}") for name in LAYERS})


# ---------------------------------------------------------------------------
# shared operations


def run_cli(lib: SimpleNamespace, argv: list[str], stdin_text: str) -> tuple[int, str, float]:
    """One in-process CLI call with stdin and stdout redirected."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = lib.cli.cli_dispatch(argv)
            seconds = perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), seconds


class Workload:
    """Inputs built from a seed; round(i, ops) appends round i's operations."""

    name = ""

    def __init__(self, lib: SimpleNamespace) -> None:
        self.lib = lib
        self.next_op: Callable[[], None] = lambda: None  # a traced run numbers operations

    def certify_one(self, co: checks.Coeffs, expected: str, fault: str = "") -> Op:
        """classify -> document_to_json -> document_from_json -> verify_document."""
        self.next_op()
        lib = self.lib
        F = lib.quadratic.QuadPoly2(*co)
        data: dict[str, Any] = {"co": co, "expected": expected, "fault": fault}
        stage = "classify"
        t0 = mark = perf_counter()
        try:
            cert = lib.classifier.classify(F)
            t1 = mark = perf_counter()
            stage = "roundtrip"
            text = lib.serialize.document_to_json(F, cert)
            subject, back = lib.serialize.document_from_json(text)
            t2 = mark = perf_counter()
            stage = "verify"
            verified = lib.serialize.verify_document(subject, back)
            t3 = perf_counter()
        except Exception as exc:  # a failed operation is counted and checked, not fatal
            end = perf_counter()
            data["failed_stage"] = stage
            return Op("certify", end - t0, error=exc, stages={stage: end - mark}, data=data)
        data.update(text=text, verified=verified, same=(subject == F and back == cert))
        stages = {"classify": t1 - t0, "roundtrip": t2 - t1, "verify": t3 - t2}
        return Op("certify", t3 - t0, stages=stages, data=data)

    def cli_verify(self, text: str) -> Op:
        self.next_op()
        code, out, seconds = run_cli(self.lib, ["verify-cert", "-"], text)
        return Op("cli", seconds, data={"code": code, "out": out})

    def check_certify(self, op: Op, rng: random.Random) -> Optional[str]:
        d = op.data
        if op.failed:
            if not d["fault"]:
                return f"{d['co']} failed: {type(op.error).__name__}: {str(op.error)[:200]}"
            return checks.check_fault(d["fault"], op.error)
        # A kept fault that no longer fails is checked like any other candidate.
        if not d["verified"]:
            return f"verify_document rejects the certificate of {d['co']}"
        if not d["same"]:
            return f"the document of {d['co']} does not round-trip"
        reason = checks.check_document(d["co"], d["text"], d["expected"], rng)
        if reason:
            return reason
        if rng.random() < CLI_ACCEPT_SHARE:
            code, out, _ = run_cli(self.lib, ["verify-cert", "-"], d["text"])
            if code != 0 or out.strip() != "valid":
                return f"verify-cert exits {code} on the certificate of {d['co']}"
        tampered = d.get("tampered") or checks.tamper(d["text"])
        code, out, _ = run_cli(self.lib, ["verify-cert", "-"], tampered)
        if code != 1 or not out.startswith("invalid"):
            return f"verify-cert exits {code} on a tampered certificate of {d['co']}"
        return None


def check_cli(op: Op) -> Optional[str]:
    if op.data["code"] != 0 or op.data["out"].strip() != "valid":
        return f"verify-cert does not accept a valid certificate: {op.data}"
    return None


# ---------------------------------------------------------------------------
# workloads


class Search(Workload):
    """search_quadratics over the B = 4 box; the inputs do not depend on the seed."""

    name = "search"

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        super().__init__(lib)
        self.candidates = checks.box_count(SEARCH_BOX[0])

    def round(self, i: int, ops: list[Op]) -> None:
        self.next_op()
        t0 = perf_counter()
        try:
            found = self.lib.classifier.search_quadratics(*SEARCH_BOX)
        except Exception as exc:
            ops.append(Op("search", perf_counter() - t0, self.candidates, error=exc))
            return
        seconds = perf_counter() - t0
        matches = [(F.as_tuple(), getattr(cert, "variant", 0)) for F, cert in found]
        ops.append(Op("search", seconds, self.candidates, data={"matches": matches}))

    def check(self, op: Op, rng: random.Random) -> Optional[str]:
        if op.failed:
            return f"search_quadratics failed: {op.error!r}"
        return checks.check_search(op.data["matches"])


class Certify(Workload):
    """A seeded sample of the B = 4 box, stratified, plus two verify-cert calls per round."""

    name = "certify"

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        super().__init__(lib)
        rng = random.Random(seed)
        strata: dict[str, list[checks.Coeffs]] = {k: [] for k in CERTIFY_MIX}
        for co in checks.box(CERTIFY_BOX):
            strata[checks.stratum(co)].append(co)
        for pool in strata.values():
            rng.shuffle(pool)
        self.strata = strata

    def round(self, i: int, ops: list[Op]) -> None:
        mine = []
        for kind, count in CERTIFY_MIX.items():
            pool = self.strata[kind]
            for j in range(i * count, (i + 1) * count):
                mine.append(self.certify_one(pool[j % len(pool)], kind))
        ops.extend(mine)
        # A third party checks two documents per round through the CLI: the
        # round's first structural failure and its first ModularGap.
        for source in (mine[0], mine[CERTIFY_MIX["structural"]]):
            ops.append(self.cli_verify(source.data.get("text", "")))

    def check(self, op: Op, rng: random.Random) -> Optional[str]:
        if op.kind == "cli":
            return check_cli(op)
        return self.check_certify(op, rng)


def _digits(rng: random.Random, digits: int) -> int:
    return rng.randrange(10 ** (digits - 1), 10**digits)


class CertifyBig(Workload):
    """The certify pipeline on coefficients of hundreds to thousands of digits."""

    name = "certify-big"

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        super().__init__(lib)
        rng = random.Random(seed)
        B = CERTIFY_BOX
        parts = [(a, b, c) for a in range(B + 1) for b in range(-B, B + 1) for c in range(B + 1)]
        modular = [p for p in parts if checks.stratum(p + (p[0] % 2, p[2] % 2, 0)) == "modular"]
        indefinite = [p for p in parts if p[0] == 0 and p[2] >= 1]
        faults = [
            ((1000003, 0, 1000033, 1, 1, 0), "factorization"),
            ((PRIME_P, 0, PRIME_Q, 1, 1, 0), "factorization"),
            ((1, 0, 1, 1, 1, 10**4400 + 1), "str-limit"),
        ]
        self.rounds = []
        for _ in range(BIG_ROUNDS):
            items = []
            for digits in BIG_DIGITS:
                a, b, c = rng.choice(modular)
                d = _digits(rng, digits) * rng.choice((1, -1))
                e = _digits(rng, digits) * rng.choice((1, -1))
                co = (a, b, c, d + (a - d) % 2, e + (c - e) % 2, _digits(rng, digits))
                items.append((co, "modular", ""))
            a, b, c = rng.choice(modular)
            big = _digits(rng, BIG_STRUCTURAL_DIGITS[0])
            items.append(((a, b, c, big + (a - big) % 2 + 1, c, big), "structural", ""))
            a, b, c = rng.choice(indefinite)
            big = _digits(rng, BIG_STRUCTURAL_DIGITS[1])
            items.append(((a, b, c, big + (a - big) % 2, big + (c - big) % 2, big), "structural", ""))
            items += [(co, checks.stratum(co), fault) for co, fault in faults]
            self.rounds.append(items)

    def round(self, i: int, ops: list[Op]) -> None:
        for co, expected, fault in self.rounds[i % len(self.rounds)]:
            ops.append(self.certify_one(co, expected, fault))

    def check(self, op: Op, rng: random.Random) -> Optional[str]:
        return self.check_certify(op, rng)


class Index(Workload):
    """Cantor pairs, m-dimensional folds, sector unpacking and sector verification."""

    name = "index"

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        super().__init__(lib)
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(INDEX_ROUNDS):
            specs: list[tuple] = []
            for variant in (1, 2):
                specs += [("pair", variant, rng.getrandbits(b), rng.getrandbits(b)) for b in PAIR_BITS]
                specs.append(("pair_n", variant, rng.randrange(SMALL_N)))
            specs += [("packm", tuple(rng.getrandbits(b) for _ in range(m))) for m, b in PACKM_SHAPES]
            for r, s in SLOPES:
                for which in ("F", "G"):
                    magnitudes = SECTOR_MAGNITUDES
                    if (r, s) == SECTOR_LARGE[0]:
                        magnitudes += (SECTOR_LARGE[1],)
                    specs += [
                        ("sector_unpack", r, s, which, 10**k + rng.randrange(10**k // 10 + 1))
                        for k in magnitudes
                    ]
                    specs.append(("sector_verify", r, s, which, SECTOR_POINTS))
            self.rounds.append(specs)
        self.walk = checks.diagonal_walk(SMALL_N)

    def round(self, i: int, ops: list[Op]) -> None:
        for spec in self.rounds[i % len(self.rounds)]:
            ops.append(self._run(spec))

    def _run(self, spec: tuple) -> Op:
        self.next_op()
        lib = self.lib
        kind = "pair" if spec[0] == "pair_n" else spec[0]
        t0 = perf_counter()
        try:
            if spec[0] == "pair":
                _, variant, x, y = spec
                pack = lib.pairing.cantor1 if variant == 1 else lib.pairing.cantor2
                unpack = lib.pairing.cantor1_inverse if variant == 1 else lib.pairing.cantor2_inverse
                n = pack(x, y)
                data = {"variant": variant, "point": (x, y), "n": n, "exact": unpack(n) == (x, y)}
            elif spec[0] == "pair_n":
                _, variant, n = spec
                pack = lib.pairing.cantor1 if variant == 1 else lib.pairing.cantor2
                unpack = lib.pairing.cantor1_inverse if variant == 1 else lib.pairing.cantor2_inverse
                point = unpack(n)
                data = {"variant": variant, "point": point, "n": n, "exact": pack(*point) == n}
            elif spec[0] == "packm":
                coords = spec[1]
                n = lib.pairing.pack_m(coords)
                data = {"coords": coords, "n": n, "back": lib.pairing.unpack_m(n, len(coords))}
            elif spec[0] == "sector_unpack":
                _, r, s, which, n = spec
                point = lib.sector.sector_unpack(lib.sector.SectorSpec(r, s), which, n)
                data = {"spec": spec[1:], "point": point}
            else:
                _, r, s, which, points = spec
                v = lib.bruteforce.verify_sector_packing(lib.sector.SectorSpec(r, s), which, points)
                data = {"spec": spec[1:], "verdict": {
                    "injective": v.injective_on_box, "gaps": v.gaps, "collision": v.collision,
                    "covered_upto": v.covered_upto, "frontier": v.frontier_bound_used,
                }}
        except Exception as exc:
            return Op(kind, perf_counter() - t0, error=exc, data={"spec": spec})
        return Op(kind, perf_counter() - t0, data=data)

    def check(self, op: Op, rng: random.Random) -> Optional[str]:
        if op.failed:
            return f"{op.data['spec'][:4]} failed: {type(op.error).__name__}: {op.error}"
        d = op.data
        if op.kind == "pair":
            if not d["exact"]:
                return f"cantor{d['variant']} round trip fails at {d['n']}"
            return checks.check_pair(d["variant"], *d["point"], d["n"], self.walk)
        if op.kind == "packm":
            return checks.check_packm(d["coords"], d["n"], d["back"])
        if op.kind == "sector_unpack":
            return checks.check_sector_point(*d["spec"], d["point"])
        return checks.check_sector_verdict(*d["spec"], d["verdict"])


WORKLOADS: dict[str, Callable[[SimpleNamespace, int], Workload]] = {
    w.name: w for w in (Search, Certify, CertifyBig, Index)
}
