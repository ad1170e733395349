"""Command-line interface.

Every subcommand reads and writes integers as decimal strings of
unbounded size, through decimals.from_decimal and to_decimal, so the
interpreter's int-to-str limit never applies.  Exit codes separate four
outcomes: 0 success or confirmed, 1 refuted or invalid certificate, 2
usage error, 3 inconclusive (a bounded search or budget ran out, which
is reported, never dressed up as an answer).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .bruteforce import verify_sector_packing
from .classifier import (
    CantorMatch,
    Certificate,
    Collision,
    Gap,
    LinearSubject,
    ModularGap,
    StructuralFail,
    classify,
    refute_linear,
    search_quadratics,
)
from .decimals import from_decimal, to_decimal
from .errors import (
    BudgetExhausted,
    CrossCheckFailed,
    FrontierNotClosed,
    PackpolyError,
    SearchExhausted,
)
from .numtheory import nonresidue_prime
from .pairing import (
    cantor1,
    cantor1_inverse,
    cantor2,
    cantor2_inverse,
    pack_m,
    unpack_m,
)
from .quadratic import QuadPoly2, region_counts
from .sector import SectorSpec, sector_evaluate, sector_unpack
from .serialize import document_to_json, document_from_json, make_document, verify_document

_INCONCLUSIVE = (BudgetExhausted, FrontierNotClosed, SearchExhausted)


def _point(p: Sequence[int]) -> str:
    """A point as its tuple prints, "(x, y)"."""
    return "(" + ", ".join(to_decimal(v) for v in p) + ")"


def _human_certificate(cert: Certificate) -> str:
    """Render a certificate; the first line is always the variant token."""
    if isinstance(cert, CantorMatch):
        return f"IsCantor{cert.variant}"
    if isinstance(cert, Collision):
        return (
            "Collision\n"
            f"  points {_point(cert.p1)} and {_point(cert.p2)} "
            f"share the value {to_decimal(cert.value)}"
        )
    if isinstance(cert, Gap):
        return (
            "Gap\n"
            f"  value {to_decimal(cert.value)} is attained nowhere: the box "
            f"[0, {to_decimal(cert.box_bound)}]^2 misses it and growth beyond the box "
            "provably exceeds it"
        )
    if isinstance(cert, ModularGap):
        w = cert.witness
        return (
            "ModularGap\n"
            f"  no value is congruent to {to_decimal(cert.s)} + {to_decimal(w.p)} "
            f"modulo {to_decimal(w.p)}^2\n"
            f"  (p = {to_decimal(w.p)} is a non-residue witness for D = "
            f"{to_decimal(w.D)}, found above {to_decimal(abs(w.ell))})"
        )
    if isinstance(cert, StructuralFail):
        lines = ["StructuralFail"]
        for chk in cert.failures:
            lines.append(f"  {chk.name}: {chk.identity}")
        return "\n".join(lines)
    raise TypeError(f"unsupported certificate type {type(cert).__name__}")


# ---------------------------------------------------------------------------
# handlers


def _cmd_pack(args: argparse.Namespace) -> int:
    coords = [from_decimal(tok) for tok in args.coords]
    if len(coords) != args.dim:
        print(
            f"error: expected {args.dim} coordinates, got {len(coords)}",
            file=sys.stderr,
        )
        return 2
    print(to_decimal(pack_m(coords)))
    return 0


def _cmd_unpack(args: argparse.Namespace) -> int:
    coords = unpack_m(from_decimal(args.n), args.dim)
    print(" ".join(to_decimal(v) for v in coords))
    return 0


def _cmd_pack2(args: argparse.Namespace) -> int:
    fn = cantor1 if args.variant == "c1" else cantor2
    print(to_decimal(fn(from_decimal(args.x), from_decimal(args.y))))
    return 0


def _cmd_unpack2(args: argparse.Namespace) -> int:
    fn = cantor1_inverse if args.variant == "c1" else cantor2_inverse
    x, y = fn(from_decimal(args.n))
    print(f"{to_decimal(x)} {to_decimal(y)}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    F = QuadPoly2(*(from_decimal(tok) for tok in args.coefficients))
    cert = classify(F)
    if args.json:
        print(document_to_json(F, cert))
    else:
        print(_human_certificate(cert))
    return 0 if isinstance(cert, CantorMatch) else 1


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
    try:
        subject, cert = document_from_json(text)
    except ValueError as exc:
        print(f"invalid: {exc}")
        return 1
    if verify_document(subject, cert):
        print("valid")
        return 0
    print("invalid: certificate does not hold for its subject")
    return 1


def _cmd_refute_linear(args: argparse.Namespace) -> int:
    numbers = [from_decimal(tok) for tok in args.numbers]
    if len(numbers) < 3:
        print(
            "error: need at least two coefficients and a constant",
            file=sys.stderr,
        )
        return 2
    coeffs, constant = numbers[:-1], numbers[-1]
    cert = refute_linear(coeffs, constant, ell=args.ell)
    if args.json:
        subject = LinearSubject(
            coeffs=tuple(coeffs), constant=constant, ell=args.ell
        )
        print(document_to_json(subject, cert))
    else:
        print(_human_certificate(cert))
    return 1


def _cmd_sector_pack(args: argparse.Namespace) -> int:
    spec = SectorSpec(args.r, args.s)
    which = "F" if args.variant == "f" else "G"
    print(
        to_decimal(
            sector_evaluate(spec, which, from_decimal(args.x), from_decimal(args.y))
        )
    )
    return 0


def _cmd_sector_unpack(args: argparse.Namespace) -> int:
    spec = SectorSpec(args.r, args.s)
    which = "F" if args.variant == "f" else "G"
    x, y = sector_unpack(spec, which, from_decimal(args.n))
    print(f"{to_decimal(x)} {to_decimal(y)}")
    return 0


def _cmd_sector_verify(args: argparse.Namespace) -> int:
    spec = SectorSpec(args.r, args.s)
    for which in {"f": ["F"], "g": ["G"], None: ["F", "G"]}[args.variant]:
        verdict = verify_sector_packing(spec, which, min_points=args.points)
        print(
            f"{which}: injective, every value in "
            f"[0, {to_decimal(verdict.covered_upto)}] attained exactly once "
            f"(frontier bound {to_decimal(verdict.frontier_bound_used)})"
        )
    return 0


def _cmd_search_quadratics(args: argparse.Namespace) -> int:
    results = search_quadratics(args.coeff_bound, args.box, args.values)
    if args.json:
        import json

        documents = [make_document(F, cert) for F, cert in results]
        print(json.dumps(documents, indent=2, sort_keys=True))
    else:
        for F, cert in results:
            coeffs = " ".join(str(v) for v in F.as_tuple())
            print(f"{coeffs}  IsCantor{cert.variant}")
    return 0


def _cmd_nonresidue_prime(args: argparse.Namespace) -> int:
    cert = nonresidue_prime(from_decimal(args.D), from_decimal(args.L))
    print(to_decimal(cert.p))
    return 0


def _cmd_region_counts(args: argparse.Namespace) -> int:
    counts = region_counts(args.m)
    for index, value in enumerate(counts.as_tuple(), start=1):
        print(f"N{index} {to_decimal(value)}")
    print(f"total {to_decimal(counts.total)}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packpoly",
        description="Exact packing polynomials over lattice domains, "
        "with certificate-producing classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="pack m coordinates into one integer")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("coords", nargs="+")
    p.set_defaults(handler=_cmd_pack)

    p = sub.add_parser("unpack", help="invert pack for the given dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("n")
    p.set_defaults(handler=_cmd_unpack)

    p = sub.add_parser("pack2", help="two-variable packing value")
    p.add_argument("--variant", choices=("c1", "c2"), default="c1")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_pack2)

    p = sub.add_parser("unpack2", help="invert the two-variable packing")
    p.add_argument("--variant", choices=("c1", "c2"), default="c1")
    p.add_argument("n")
    p.set_defaults(handler=_cmd_unpack2)

    p = sub.add_parser(
        "classify",
        help="decide a standard-form quadratic, emitting a certificate",
    )
    p.add_argument("coefficients", nargs=6, metavar=("N"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify-cert", help="re-check a certificate document")
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser(
        "refute-linear",
        help="collision certificate for a linear polynomial (a1 ... am c)",
    )
    p.add_argument("--ell", type=from_decimal, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("numbers", nargs="+")
    p.set_defaults(handler=_cmd_refute_linear)

    p = sub.add_parser("sector", help="rational-sector packing operations")
    sector_sub = p.add_subparsers(dest="sector_command", required=True)

    sp = sector_sub.add_parser("pack", help="evaluate a sector polynomial")
    sp.add_argument("--r", type=from_decimal, required=True)
    sp.add_argument("--s", type=from_decimal, required=True)
    sp.add_argument("--variant", choices=("f", "g"), default="f")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.set_defaults(handler=_cmd_sector_pack)

    sp = sector_sub.add_parser("unpack", help="invert a sector polynomial")
    sp.add_argument("--r", type=from_decimal, required=True)
    sp.add_argument("--s", type=from_decimal, required=True)
    sp.add_argument("--variant", choices=("f", "g"), default="f")
    sp.add_argument("n")
    sp.set_defaults(handler=_cmd_sector_unpack)

    sp = sector_sub.add_parser(
        "verify", help="proven packing verdict on an enumeration prefix"
    )
    sp.add_argument("--r", type=from_decimal, required=True)
    sp.add_argument("--s", type=from_decimal, required=True)
    sp.add_argument("--variant", choices=("f", "g"), default=None)
    sp.add_argument("--points", type=int, default=3000)
    sp.set_defaults(handler=_cmd_sector_verify)

    p = sub.add_parser(
        "search-quadratics",
        help="all packing quadratics within a coefficient bound",
    )
    p.add_argument("--coeff-bound", type=int, required=True)
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--values", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_search_quadratics)

    p = sub.add_parser(
        "nonresidue-prime",
        help="prime p above |L| with D a quadratic non-residue mod p",
    )
    p.add_argument("D")
    p.add_argument("L")
    p.set_defaults(handler=_cmd_nonresidue_prime)

    p = sub.add_parser("region-counts", help="lattice counts for the five regions")
    p.add_argument("m", type=from_decimal)
    p.set_defaults(handler=_cmd_region_counts)

    return parser


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _INCONCLUSIVE as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except CrossCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (PackpolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
