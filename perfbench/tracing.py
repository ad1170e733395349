"""Spans around packpoly's public functions, recorded from outside the library.

install() replaces every public function of the eight layer modules at each
name a caller looks it up by (``packpoly.classifier.nonresidue_prime``,
``packpoly.numtheory.is_prime``, ...), and ``QuadPoly2.evaluate`` on its
class.  Each call keeps a frame on a stack, so a function's self time is
its duration minus the time of the traced calls it made.  Spans (name,
start, end, parent, operation id) stay in memory and are written out by
write().  Calls of the hot leaf functions in HOT are counted and timed but
get no span of their own, and at most SPAN_CAP spans are kept.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from types import FunctionType
from typing import Any, Callable

from workloads import LAYERS

EVALUATE = "quadratic.QuadPoly2.evaluate"
HOT = frozenset({
    EVALUATE,
    "numtheory.is_prime", "numtheory.jacobi", "numtheory.legendre", "numtheory.is_square",
    "quadratic.diagonal_tail_min", "quadratic.convex_tail_min",
    "sector.sector_evaluate", "sector.sector_F", "sector.sector_G", "sector.sector_contains",
    "sector.sector_column_points", "sector.sector_tail_min",
    "pairing.triangular", "pairing.triangular_root",
})
SPAN_CAP = 200_000
KINDS = {
    "StructuralFail": "structural_fail", "ModularGap": "modular_gap", "Collision": "collision",
    "Gap": "gap", "CantorMatch": "cantor_match",
}


class Tracer:
    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.classify_us: dict[str, list[float]] = defaultdict(list)
        self.verify_us: dict[str, list[float]] = defaultdict(list)
        self.modular_issued = 0
        self.nonresidue_in_classify = 0
        self.modular_verifies = 0
        self.evaluate_in_modular_verify = 0
        self.document_bytes: list[int] = []
        self.packed_bits: list[int] = []
        self.op = 0
        self._ops = 0
        self._stack: list[list[Any]] = []  # [key, child seconds, span index]
        self._names: dict[str, int] = {}
        self._span = {"name": array("I"), "start": array("d"), "end": array("d"),
                      "parent": array("q"), "op": array("q")}
        self.dropped = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = perf_counter()

    def next_op(self) -> None:
        """Start a new operation id; the workloads call this before each operation."""
        self._ops += 1
        self.op = self._ops

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[Callable, Callable] = {}
        for modname, module in list(sys.modules.items()):
            if modname != "packpoly" and not modname.startswith("packpoly."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, FunctionType):
                    continue
                owner, _, layer = value.__module__.rpartition(".")
                if owner != "packpoly" or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patch(module, attr, wrappers[value])
        quadpoly = sys.modules["packpoly.quadratic"].QuadPoly2
        self._patch(quadpoly, "evaluate", self._wrap(EVALUATE, quadpoly.evaluate))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, key: str, fn: Callable) -> Callable:
        call = self._call
        hot = key in HOT

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(key, hot, fn, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _open_span(self, key: str) -> int:
        span = self._span
        if len(span["start"]) >= SPAN_CAP:
            self.dropped += 1
            return -1
        parent = next((f[2] for f in reversed(self._stack) if f[2] >= 0), -1)
        span["name"].append(self._names.setdefault(key, len(self._names)))
        span["start"].append(0.0)
        span["end"].append(0.0)
        span["parent"].append(parent)
        span["op"].append(self.op)
        return len(span["start"]) - 1

    def _call(self, key: str, hot: bool, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        saved_op = self.op
        if key == "classifier.classify" and stack and stack[-1][0] == "classifier.search_quadratics":
            self.next_op()  # each candidate of a search is an operation of its own
        span = -1 if hot else self._open_span(key)
        frame = [key, 0.0, span]
        before = (self.calls["numtheory.nonresidue_prime"], self.calls[EVALUATE])
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            seconds = end - start
            self.self_time[key] += seconds - frame[1]
            self.calls[key] += 1
            if stack:
                stack[-1][1] += seconds
            if span >= 0:
                self._span["start"][span] = start - self._t0
                self._span["end"][span] = end - self._t0
            self.op = saved_op
        if key == "classifier.classify":
            kind = KINDS.get(type(result).__name__, "other")
            self.classify_us[kind].append(seconds * 1e6)
            if kind == "modular_gap":
                self.modular_issued += 1
                self.nonresidue_in_classify += self.calls["numtheory.nonresidue_prime"] - before[0]
        elif key == "classifier.verify_certificate":
            kind = KINDS.get(type(args[1]).__name__, "other")
            self.verify_us[kind].append(seconds * 1e6)
            if kind == "modular_gap":
                self.modular_verifies += 1
                self.evaluate_in_modular_verify += self.calls[EVALUATE] - before[1]
        elif key == "serialize.document_to_json":
            self.document_bytes.append(len(result.encode()))
        elif key == "pairing.pack_m":
            self.packed_bits.append(result.bit_length())
        return result

    # -- results -----------------------------------------------------------

    def layer_metrics(self, work: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times and counts are per operation of the workload."""
        st, calls = self.self_time, self.calls

        def per_op(*keys: str) -> float:
            return sum(st[k] for k in keys) / work

        def calls_per_op(key: str) -> float:
            return calls[key] / work

        def mean(values: list[int]) -> float:
            return sum(values) / len(values) if values else 0.0

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {
            "numtheory.nonresidue_prime_s": (per_op("numtheory.nonresidue_prime"), "s/op"),
            "numtheory.square_decompose_s": (per_op("numtheory.square_decompose"), "s/op"),
            "numtheory.prime_in_ap_s": (per_op("numtheory.prime_in_ap"), "s/op"),
            "numtheory.is_prime_calls": (calls_per_op("numtheory.is_prime"), "calls/op"),
            "numtheory.legendre_calls": (calls_per_op("numtheory.legendre"), "calls/op"),
            "numtheory.is_square_calls": (calls_per_op("numtheory.is_square"), "calls/op"),
            "numtheory.nonresidue_prime_per_modular_gap": (
                ratio(self.nonresidue_in_classify, self.modular_issued), "calls/cert"),
            "classifier.classify_s": (per_op("classifier.classify"), "s/op"),
            "classifier.search_quadratics_s": (per_op("classifier.search_quadratics"), "s/op"),
        }
        for kind in KINDS.values():
            for stage, samples in (("classify", self.classify_us), ("verify", self.verify_us)):
                values = samples.get(kind)
                m[f"classifier.{stage}.{kind}_us"] = (median(values) if values else 0.0, "us")
        m.update({
            "quadratic.validate_s": (per_op("quadratic.validate"), "s/op"),
            "quadratic.evaluate_calls": (calls_per_op(EVALUATE), "calls/op"),
            "quadratic.evaluate_per_modular_verify": (
                ratio(self.evaluate_in_modular_verify, self.modular_verifies), "calls/cert"),
            "quadratic.square_completion_calls": (calls_per_op("quadratic.square_completion"), "calls/op"),
            "quadratic.diagonal_tail_min_calls": (calls_per_op("quadratic.diagonal_tail_min"), "calls/op"),
            "quadratic.gap_box_bound_s": (per_op("quadratic.gap_box_bound"), "s/op"),
            "serialize.document_to_json_s": (per_op("serialize.document_to_json"), "s/op"),
            "serialize.document_from_json_s": (per_op("serialize.document_from_json"), "s/op"),
            "serialize.document_bytes": (mean(self.document_bytes), "bytes"),
            "cli.cli_dispatch_s": (per_op("cli.cli_dispatch"), "s/op"),
            "bruteforce.verify_quadratic_packing_s": (per_op("bruteforce.verify_quadratic_packing"), "s/op"),
            "bruteforce.verify_sector_packing_s": (per_op("bruteforce.verify_sector_packing"), "s/op"),
            "pairing.cantor_s": (per_op("pairing.cantor1", "pairing.cantor2"), "s/op"),
            "pairing.cantor_inverse_s": (
                per_op("pairing.cantor1_inverse", "pairing.cantor2_inverse"), "s/op"),
            "pairing.pack_m_s": (per_op("pairing.pack_m"), "s/op"),
            "pairing.unpack_m_s": (per_op("pairing.unpack_m"), "s/op"),
            "pairing.packed_bits": (mean(self.packed_bits), "bits"),
            "sector.sector_unpack_s": (per_op("sector.sector_unpack"), "s/op"),
            "sector.columns_explored": (calls_per_op("sector.sector_column_points"), "calls/op"),
            "sector.sector_evaluate_calls": (calls_per_op("sector.sector_evaluate"), "calls/op"),
        })
        return m

    def layer_self_time(self) -> dict[str, float]:
        """Total self seconds per layer module, over the whole traced run."""
        totals: dict[str, float] = defaultdict(float)
        for key, seconds in self.self_time.items():
            totals[key.partition(".")[0]] += seconds
        return dict(totals)

    def write(self, path: Path) -> int:
        """Write the kept spans as gzipped JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        span = self._span
        names = sorted(self._names, key=self._names.get)
        with gzip.open(path, "wt", compresslevel=1) as out:
            header = {"fields": ["name", "start_s", "end_s", "parent", "op"],
                      "names": names, "dropped": self.dropped}
            out.write(json.dumps(header) + "\n")
            for row in zip(span["name"], span["start"], span["end"], span["parent"], span["op"]):
                out.write(json.dumps(row) + "\n")
        return len(span["start"])
