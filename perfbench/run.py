"""packpoly benchmark.

    python3 perfbench/run.py --workload search|certify|certify-big|index|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout: the library is imported from ./src.  A run
builds its inputs from the seed, performs whole rounds of operations for at
least S seconds in one process, checks every output with the benchmark's own
arithmetic (checks.py), and prints a report whose last line is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the same rounds run with
spans around every layer (tracing.py), then again untraced to measure the
tracing overhead, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from plants import PLANTS
from tracing import Tracer
from workloads import SECTOR_POINTS, WORKLOADS, Op, Workload, load_library

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_EVERY_S = 0.5  # more set-ups, spread over the measured time
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it

Metrics = dict[str, tuple[float, str]]


# ---------------------------------------------------------------------------
# set-up


def import_library():
    """Import packpoly afresh from ./src, never from an installed copy."""
    if not (SRC / "packpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no packpoly sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "packpoly" or n.startswith("packpoly.")]:
        del sys.modules[name]
    module = importlib.import_module("packpoly")
    if Path(module.__file__).resolve().parent != SRC / "packpoly":
        raise SystemExit(f"error: imported packpoly from {module.__file__}, not {SRC}")
    return load_library()


@dataclass(frozen=True)
class _Pair:
    x: int
    y: int


def interpreter_sample() -> int:
    """Fixed interpreter work in the library's mix: frozen dataclasses,
    small-int arithmetic, dicts, f-strings and modest bigints (about 3 ms)."""
    acc = 0
    for _ in range(20):
        table = {}
        for i in range(100):
            pair = _Pair(i, acc & 1023)
            acc = (acc * 1103515245 + pair.x + pair.y) & 0xFFFFFFFF
            table[acc & 255] = f"{i}:{acc}"
        big = 3**300
        for _ in range(30):
            big = big * 7 % (10**90 + 7)
        acc += len(table) + big % 7
    return acc


_BIG = 7**3550  # 3,001 digits


def bigint_sample() -> int:
    """Fixed bigint work like verifying a 3,000-digit certificate: a
    quadratic with huge linear terms at small points (about 6 ms)."""
    acc = 0
    for _ in range(10):
        for x in range(10):
            for y in range(10):
                acc ^= ((x * x + 2 * x * y + y * y + _BIG * x + _BIG * y) // 2 + _BIG) % 1000003
    return acc


# The calibration sample each workload's rounds are scaled by, and its rate
# (samples per second) at roughly this machine's full speed.  Contention
# from other work on the host slows interpreter-bound code far more than
# long bigint loops, so certify-big, whose time goes to bigint arithmetic,
# has its own.  Set-up (imports, building inputs) is interpreter-bound in
# every workload.
INTERPRETER = (interpreter_sample, 250.0)
CALIBRATION: dict[str, tuple[Callable[[], int], float]] = {
    "search": INTERPRETER,
    "certify": INTERPRETER,
    "index": INTERPRETER,
    "certify-big": (bigint_sample, 130.0),
}


def machine_speed(sample: Callable[[], int]) -> float:
    """Calibration samples per second, right now.

    This machine's speed swings by a third within seconds as other work on
    the host comes and goes, in spells that can outlast a run; timing fixed
    work next to the workload lets each measurement be scaled to one
    reference speed.
    """
    t0 = perf_counter()
    sample()
    return 1 / (perf_counter() - t0)


def setup(name: str, seed: int) -> tuple[Workload, float]:
    """Import the library afresh and build the workload's inputs.

    Returns the workload and the time taken, scaled to the reference
    interpreter speed measured just before.
    """
    sample, reference = INTERPRETER
    speed = machine_speed(sample)
    gc.collect()  # the previous set-up's garbage is not this one's cost
    t0 = perf_counter()
    workload = WORKLOADS[name](import_library(), seed)
    return workload, (perf_counter() - t0) * speed / reference


# ---------------------------------------------------------------------------
# measuring


def measure(
    workload: Workload, seconds: float, between: Callable[[], None] = lambda: None
) -> tuple[list[Op], list[int], float]:
    """Whole rounds until `seconds` have passed; between() runs around each.

    Returns the operations, the index in ops where each round starts, and
    the wall time.
    """
    ops: list[Op] = []
    starts: list[int] = []
    start = perf_counter()
    deadline = start + seconds
    between()
    while True:
        starts.append(len(ops))
        workload.round(len(starts) - 1, ops)
        between()
        if perf_counter() >= deadline:
            return ops, starts, perf_counter() - start


def replay(workload: Workload, rounds: int) -> float:
    ops: list[Op] = []
    start = perf_counter()
    for i in range(rounds):
        workload.round(i, ops)
    return perf_counter() - start


def check_ops(workload: Workload, ops: list[Op], seed: int) -> list[str]:
    rng = random.Random(f"check-{seed}")
    return [reason for reason in (workload.check(op, rng) for op in ops) if reason]


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latencies(ops: list[Op]) -> list[float]:
    """Per-operation seconds; a failed operation misses every latency limit."""
    return [math.inf if op.failed else op.seconds for op in ops]


def tail_percentile(n: int) -> Optional[float]:
    """Highest of the usual percentiles with at least TAIL_BEYOND samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - q / 100) >= TAIL_BEYOND:
            return q
    return None


def end_to_end(
    ops: list[Op], starts: list[int], speeds: list[float], setups: list[float], reference: float
) -> Metrics:
    """Throughput and set-up time, each scaled to the machine at the reference speed.

    speeds[i] is the calibration speed measured just before round i (and
    speeds[i + 1] just after it).  A round's rate is its completed work per
    busy second, times REFERENCE_SPEED over the round's mean speed; the
    metric is the median over rounds.
    """
    rates = []
    for i, (begin, end) in enumerate(zip(starts, starts[1:] + [len(ops)])):
        round_ops = ops[begin:end]
        busy = sum(op.seconds for op in round_ops)
        done = sum(op.work for op in round_ops if not op.failed)
        speed = (speeds[i] + speeds[i + 1]) / 2
        rates.append(done / busy * reference / speed)
    return {
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _rate(ops: list[Op], stage: Optional[str] = None, per_op: int = 1) -> float:
    """Completed operations (or stages) per second of all attempted ones."""
    if stage is None:
        busy = sum(op.seconds for op in ops)
        done = sum(1 for op in ops if not op.failed)
    else:
        busy = sum(op.stages.get(stage, 0.0) for op in ops)
        done = sum(1 for op in ops if stage in op.stages and op.data.get("failed_stage") != stage)
    return done * per_op / busy if busy else 0.0


def named_metrics(name: str, ops: list[Op]) -> Metrics:
    """The workload's own metrics, by the names the README's tables use."""
    by_kind: dict[str, list[Op]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    if name == "search":
        search = by_kind["search"]
        done = sum(op.work for op in search if not op.failed)
        return {"search_candidates_per_s": (done / sum(op.seconds for op in search), "candidates/s")}
    if name == "index":
        return {
            "pair_roundtrips_per_s": (_rate(by_kind["pair"]), "round-trips/s"),
            "packm_roundtrips_per_s": (_rate(by_kind["packm"]), "round-trips/s"),
            "sector_unpacks_per_s": (_rate(by_kind["sector_unpack"]), "unpacks/s"),
            "sector_verify_per_s": (_rate(by_kind["sector_verify"], per_op=SECTOR_POINTS), "points/s"),
        }
    certify = by_kind["certify"]
    m = {
        "classify_per_s": (_rate(certify, "classify"), "candidates/s"),
        "verify_per_s": (_rate(certify, "verify"), "certificates/s"),
        "roundtrip_per_s": (_rate(certify, "roundtrip"), "documents/s"),
        "certify_p50_ms": (percentile(latencies(certify), 50) * 1e3, "ms"),
    }
    if name == "certify":
        q = tail_percentile(len(certify))
        if q is not None:
            m["certify_tail_ms"] = (percentile(latencies(certify), q) * 1e3, f"ms(p{q:g})")
        m["cli_per_s"] = (_rate(by_kind["cli"]), "calls/s")
    return m


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: float, trace: bool, plant: str = "") -> dict:
    sample, reference = CALIBRATION[name]
    workload, first_setup = setup(name, seed)
    setups = [first_setup]
    speeds: list[float] = []
    last_setup = perf_counter()

    def between_rounds() -> None:
        # Sample the machine's speed; every SETUP_EVERY_S also set up again.
        nonlocal last_setup
        speeds.append(machine_speed(sample))
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(setup(name, seed)[1])
            last_setup = perf_counter()

    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    if trace:
        tracer = Tracer()
        workload.next_op = tracer.next_op
        tracer.install()
        try:
            ops, starts, traced_wall = measure(workload, seconds)
        finally:
            tracer.uninstall()
            workload.next_op = lambda: None
        untraced_wall = replay(workload, len(starts))
    else:
        ops, starts, _ = measure(workload, seconds, between_rounds)
    setup_s = statistics.median(setups)
    lines.append(f"  setup_s {setup_s:.6f} s (median of {len(setups)} set-ups)")
    if plant:
        target, mutate = PLANTS[plant]
        if target != name or not mutate(ops):
            raise SystemExit(f"error: plant {plant!r} found nothing to rewrite in {name}")
    problems = check_ops(workload, ops, seed)
    attempted = sum(op.work for op in ops)
    failed = sum(op.work for op in ops if op.failed)
    lines.append(f"  rounds {len(starts)}  operations {len(ops)}  attempted {attempted}  failed {failed}")
    if trace:
        metrics = tracer.layer_metrics(attempted)
        overhead = (traced_wall - untraced_wall) / untraced_wall * 100
        metrics["trace.overhead_pct"] = (overhead, "%")
        lines.append(f"  traced wall {traced_wall:.3f} s, same rounds untraced {untraced_wall:.3f} s, "
                     f"overhead {overhead:.1f}%")
        layers = tracer.layer_self_time()
        total = sum(layers.values())
        for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"  self time {layer:<11} {self_s:10.4f} s  {100 * self_s / total:5.1f}%")
        path = OUT / f"trace-{name}-seed{seed}.jsonl.gz"
        kept = tracer.write(path)
        lines.append(f"  spans kept {kept} (dropped {tracer.dropped}), written to "
                     f"{path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(ops, starts, speeds, setups, reference)
        lines.append(f"  machine speed {min(speeds):.1f}..{max(speeds):.1f}, median "
                     f"{statistics.median(speeds):.1f} {sample.__name__}s/s; scaled to {reference:g}")
        for key, (value, unit) in named_metrics(name, ops).items():
            lines.append(f"  {key:<26} {value:14.4f} {unit}")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<46} {value:16.6f} {unit}")
    for reason in problems[:20]:
        lines.append(f"  CHECK FAILED: {reason}")
    if len(problems) > 20:
        lines.append(f"  ... and {len(problems) - 20} more check failures")
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def selfcheck() -> int:
    """Every check must catch its planted wrong answer; unplanted runs must pass."""
    bad = 0
    for name in WORKLOADS:
        report = run(name, seed=1, seconds=0, trace=False)
        ok = report["result"]["correct"]
        bad += not ok
        print(f"unplanted {name:<12} {'correct' if ok else 'NOT CORRECT (wrong)'}")
        if not ok:
            print("\n".join(report["lines"]))
    for plant, (name, _) in PLANTS.items():
        report = run(name, seed=1, seconds=0, trace=False, plant=plant)
        caught = not report["result"]["correct"]
        bad += not caught
        reasons = [line.strip() for line in report["lines"] if "CHECK FAILED" in line]
        print(f"planted {plant:<24} {'caught' if caught else 'MISSED'}: {reasons[:1]}")
    print(json.dumps({"selfcheck_ok": bad == 0}))
    return 0 if bad == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="packpoly benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = run(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report["lines"]), flush=True)
        results[name] = report["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
        for n, r in results.items():
            print(json.dumps({n: r}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
