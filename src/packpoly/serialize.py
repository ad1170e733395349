"""JSON interchange for classification subjects and their certificates.

Documents are self-describing tagged trees.  Every mathematical integer
is rendered as a decimal string so arbitrary-precision values survive
any JSON implementation untruncated; parsing is strict (optional sign
and digits only) and rejects raw JSON numbers for those fields.  Those
strings are written and read by decimals.to_decimal / from_decimal, so
an integer of any size converts, past Python's int-to-str limit too,
without changing that limit.  Serialization is deterministic: sorted
keys, no timestamps.
"""

from __future__ import annotations

import json
import re
from typing import Any, Union

from .classifier import (
    CantorMatch,
    Certificate,
    Collision,
    Gap,
    LinearSubject,
    ModularGap,
    StructuralFail,
    verify_certificate,
    verify_linear_collision,
)
from .decimals import from_decimal, to_decimal
from .numtheory import NonResidueCertificate
from .quadratic import QuadPoly2, ValidationCheck

FORMAT = "packing-certificate"
VERSION = 1

Subject = Union[QuadPoly2, LinearSubject]

_INT_TOKEN = re.compile(r"-?[0-9]+")


def _encode_int(n: int) -> str:
    return to_decimal(int(n))


def _decode_int(token: Any, label: str) -> int:
    if not isinstance(token, str) or not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"{label} must be a decimal-string integer, got {token!r}")
    return from_decimal(token)


def _decode_point(tokens: Any, label: str) -> tuple[int, ...]:
    if not isinstance(tokens, list) or not tokens:
        raise ValueError(f"{label} must be a non-empty array of coordinates")
    return tuple(_decode_int(t, f"{label} coordinate") for t in tokens)


# ---------------------------------------------------------------------------
# subjects


def encode_subject(subject: Subject) -> dict[str, Any]:
    if isinstance(subject, QuadPoly2):
        names = ("a", "b", "c", "d", "e", "f")
        return {
            "kind": "quadratic",
            "coefficients": {
                name: _encode_int(value)
                for name, value in zip(names, subject.as_tuple())
            },
        }
    if isinstance(subject, LinearSubject):
        return {
            "kind": "linear",
            "coefficients": [_encode_int(a) for a in subject.coeffs],
            "constant": _encode_int(subject.constant),
            "domain_min": _encode_int(subject.ell),
        }
    raise TypeError(f"unsupported subject type {type(subject).__name__}")


def decode_subject(node: Any) -> Subject:
    if not isinstance(node, dict):
        raise ValueError("subject must be an object")
    kind = node.get("kind")
    if kind == "quadratic":
        coeffs = node.get("coefficients")
        if not isinstance(coeffs, dict):
            raise ValueError("quadratic subject needs a coefficients object")
        names = ("a", "b", "c", "d", "e", "f")
        if set(coeffs) != set(names):
            raise ValueError(f"coefficients must be exactly {names}")
        return QuadPoly2(
            *(_decode_int(coeffs[name], f"coefficient {name}") for name in names)
        )
    if kind == "linear":
        return LinearSubject(
            coeffs=_decode_point(node.get("coefficients"), "coefficients"),
            constant=_decode_int(node.get("constant"), "constant"),
            ell=_decode_int(node.get("domain_min"), "domain_min"),
        )
    raise ValueError(f"unknown subject kind {kind!r}")


# ---------------------------------------------------------------------------
# certificates


def encode_certificate(cert: Certificate) -> dict[str, Any]:
    if isinstance(cert, CantorMatch):
        return {"kind": f"is_cantor{cert.variant}"}
    if isinstance(cert, Collision):
        return {
            "kind": "collision",
            "p1": [_encode_int(v) for v in cert.p1],
            "p2": [_encode_int(v) for v in cert.p2],
            "value": _encode_int(cert.value),
        }
    if isinstance(cert, Gap):
        return {
            "kind": "gap",
            "value": _encode_int(cert.value),
            "box_bound": _encode_int(cert.box_bound),
        }
    if isinstance(cert, ModularGap):
        return {
            "kind": "modular_gap",
            "witness": {
                "D": _encode_int(cert.witness.D),
                "ell": _encode_int(cert.witness.ell),
                "p": _encode_int(cert.witness.p),
            },
            "s": _encode_int(cert.s),
        }
    if isinstance(cert, StructuralFail):
        return {
            "kind": "structural_fail",
            "failures": [
                {
                    "name": chk.name,
                    "identity": chk.identity,
                    "witness": (
                        None
                        if chk.witness is None
                        else [_encode_int(v) for v in chk.witness]
                    ),
                    "doubled_value": (
                        None
                        if chk.doubled_value is None
                        else _encode_int(chk.doubled_value)
                    ),
                }
                for chk in cert.failures
            ],
        }
    raise TypeError(f"unsupported certificate type {type(cert).__name__}")


def decode_certificate(node: Any) -> Certificate:
    if not isinstance(node, dict):
        raise ValueError("certificate must be an object")
    kind = node.get("kind")
    if kind == "is_cantor1":
        return CantorMatch(1)
    if kind == "is_cantor2":
        return CantorMatch(2)
    if kind == "collision":
        return Collision(
            p1=_decode_point(node.get("p1"), "p1"),
            p2=_decode_point(node.get("p2"), "p2"),
            value=_decode_int(node.get("value"), "value"),
        )
    if kind == "gap":
        return Gap(
            value=_decode_int(node.get("value"), "value"),
            box_bound=_decode_int(node.get("box_bound"), "box_bound"),
        )
    if kind == "modular_gap":
        witness = node.get("witness")
        if not isinstance(witness, dict):
            raise ValueError("modular_gap needs a witness object")
        return ModularGap(
            witness=NonResidueCertificate(
                D=_decode_int(witness.get("D"), "witness D"),
                ell=_decode_int(witness.get("ell"), "witness ell"),
                p=_decode_int(witness.get("p"), "witness p"),
            ),
            s=_decode_int(node.get("s"), "s"),
        )
    if kind == "structural_fail":
        failures = node.get("failures")
        if not isinstance(failures, list) or not failures:
            raise ValueError("structural_fail needs a non-empty failures array")
        checks = []
        for item in failures:
            if not isinstance(item, dict):
                raise ValueError("each failure must be an object")
            name = item.get("name")
            identity = item.get("identity")
            if not isinstance(name, str) or not isinstance(identity, str):
                raise ValueError("failure name and identity must be strings")
            witness = item.get("witness")
            point = None if witness is None else _decode_point(witness, "witness")
            doubled = item.get("doubled_value")
            checks.append(
                ValidationCheck(
                    name=name,
                    identity=identity,
                    witness=point,  # type: ignore[arg-type]
                    doubled_value=(
                        None if doubled is None else _decode_int(doubled, "doubled_value")
                    ),
                )
            )
        return StructuralFail(failures=tuple(checks))
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# documents


def make_document(subject: Subject, cert: Certificate) -> dict[str, Any]:
    return {
        "format": FORMAT,
        "version": VERSION,
        "subject": encode_subject(subject),
        "certificate": encode_certificate(cert),
    }


def document_to_json(subject: Subject, cert: Certificate) -> str:
    return json.dumps(make_document(subject, cert), indent=2, sort_keys=True)


def document_from_json(text: str) -> tuple[Subject, Certificate]:
    """Parse and decode a document; any malformed one raises ValueError.

    That includes nesting too deep for the parser or for the repr in an
    error message, which Python reports as RecursionError.
    """
    try:
        node = json.loads(text)
        if not isinstance(node, dict):
            raise ValueError("document must be a JSON object")
        if node.get("format") != FORMAT:
            raise ValueError(f"unknown document format {node.get('format')!r}")
        version = node.get("version")
        # True == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
        if type(version) is not int or version != VERSION:
            raise ValueError(f"unsupported document version {version!r}")
        return decode_subject(node.get("subject")), decode_certificate(
            node.get("certificate")
        )
    except RecursionError:
        raise ValueError("document is nested too deeply") from None


def verify_document(subject: Subject, cert: Certificate) -> bool:
    """Dispatch verification by subject type; mismatches are just False."""
    if isinstance(subject, QuadPoly2):
        return verify_certificate(subject, cert)
    if isinstance(subject, LinearSubject):
        if not isinstance(cert, Collision):
            return False
        return verify_linear_collision(subject, cert)
    return False
