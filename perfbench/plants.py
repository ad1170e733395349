"""Planted wrong answers, one per check, for the checker self-check.

Each plant rewrites one recorded output of a short run into a wrong answer
before the checks run; the run must then report itself as not correct.
A plant returns False when the run holds no output it can rewrite.
"""

from __future__ import annotations

import json
from typing import Callable

import checks
from workloads import Op


def _first(ops: list[Op], kind: str, **data: object) -> Op | None:
    for op in ops:
        if op.kind == kind and not op.failed and all(op.data.get(k) == v for k, v in data.items()):
            return op
    return None


def _rewrite(op: Op | None, edit: Callable[[dict, checks.Coeffs], None]) -> bool:
    if op is None:
        return False
    node = json.loads(op.data["text"])
    edit(node["certificate"], op.data["co"])
    op.data["text"] = json.dumps(node, indent=2, sort_keys=True)
    return True


def third_cantor_tuple(ops: list[Op]) -> bool:
    ops[0].data["matches"].append(((1, 0, 1, 1, 1, 0), 1))
    return True


def cantor_accepted(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        cert.clear()
        cert["kind"] = "is_cantor2" if checks.CANTOR_TUPLES.get(co) == 1 else "is_cantor1"
    return _rewrite(_first(ops, "certify", expected="witness"), edit)


def unequal_collision(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        origin = checks.twice_f(co, 0, 0)
        other = next(p for p in ((1, 0), (0, 1), (1, 1), (2, 0)) if checks.twice_f(co, *p) != origin)
        cert.clear()
        cert.update(kind="collision", p1=["0", "0"], p2=[str(v) for v in other], value=str(origin // 2))
    return _rewrite(_first(ops, "certify", expected="witness"), edit)


def attained_gap(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        cert.clear()
        cert.update(kind="gap", value=str(co[5]), box_bound="0")
    return _rewrite(_first(ops, "certify", expected="witness"), edit)


def modular_wrong_residue(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        cert["s"] = str((int(cert["s"]) + 1) % int(cert["witness"]["p"]))
    return _rewrite(_first(ops, "certify", expected="modular"), edit)


def modular_composite_prime(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        p = int(cert["witness"]["p"])
        cert["witness"]["p"] = str(p * p)
    return _rewrite(_first(ops, "certify", expected="modular"), edit)


def false_structural_claim(ops: list[Op]) -> bool:
    def edit(cert: dict, co: checks.Coeffs) -> None:
        cert["failures"] = [{"name": "cross_term_positive", "identity": "planted",
                             "witness": None, "doubled_value": None}]
    target = next((op for op in ops if op.kind == "certify" and not op.failed
                   and op.data["expected"] == "structural" and (op.data["co"][0] or op.data["co"][2])), None)
    return _rewrite(target, edit)


def _on_first(kind: str, change: Callable[[Op], None]) -> Callable[[list[Op]], bool]:
    """A plant that applies `change` to the first successful operation of `kind`."""
    def plant(ops: list[Op]) -> bool:
        op = _first(ops, kind)
        if op is None:
            return False
        change(op)
        return True
    return plant


def unexpected_failure(ops: list[Op]) -> bool:
    op = next((op for op in ops if op.failed), None)
    if op is None:
        return False
    op.error = RuntimeError("planted")
    return True


def _shift_last(values: tuple[int, ...]) -> tuple[int, ...]:
    return values[:-1] + (values[-1] + 1,)


PLANTS: dict[str, tuple[str, Callable[[list[Op]], bool]]] = {
    "third-cantor-tuple": ("search", third_cantor_tuple),
    "cantor-accepted": ("certify", cantor_accepted),
    "unequal-collision": ("certify", unequal_collision),
    "attained-gap": ("certify", attained_gap),
    "modular-wrong-residue": ("certify", modular_wrong_residue),
    "modular-composite-prime": ("certify", modular_composite_prime),
    "false-structural-claim": ("certify", false_structural_claim),
    "verify-rejects": ("certify", _on_first("certify", lambda op: op.data.update(verified=False))),
    "roundtrip-differs": ("certify", _on_first("certify", lambda op: op.data.update(same=False))),
    # the "tampered" copy sent to verify-cert is the valid original
    "tampered-accepted": ("certify", _on_first("certify", lambda op: op.data.update(tampered=op.data["text"]))),
    "cli-rejects": ("certify", _on_first("cli", lambda op: op.data.update(code=1))),
    "unexpected-failure": ("certify-big", unexpected_failure),
    "pair-off-by-one": ("index", _on_first("pair", lambda op: op.data.update(n=op.data["n"] + 1))),
    "packm-mismatch": ("index", _on_first("packm", lambda op: op.data.update(back=_shift_last(op.data["back"])))),
    "sector-point-off": ("index", _on_first("sector_unpack", lambda op: op.data.update(point=_shift_last(op.data["point"])))),
    "sector-verdict-gap": ("index", _on_first("sector_verify", lambda op: op.data["verdict"].update(gaps=(5,)))),
}
