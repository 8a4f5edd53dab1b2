"""Rounds, timing and metrics shared by the workloads.

A workload is a list of `Op`s built once from the seed (the set-up).  A run
repeats whole rounds of those ops.  Round 1 warms caches and has every
output checked in full; each later round must reproduce round 1's output
digests exactly.  End-to-end metrics come from the rounds after the first,
which start until ``seconds`` have passed and at least three have run; the
round in progress then ends.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import machine
from .checks import CheckFailed


#: the per-op medians behind items_per_s and cpu_s need a few rounds
MIN_MEASURED_ROUNDS = 3


@dataclass
class Op:
    """One timed call into the program.

    ``call`` is the timed part.  ``check`` (round 1) and ``digest`` (every
    round) read its return value untimed.
    """

    label: str
    items: int
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any]


@dataclass
class RunStats:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks
    errors: list = field(default_factory=list)  # ops that raised
    walls: list = field(default_factory=list)  # measured rounds x ops, s
    cpus: list = field(default_factory=list)  # measured rounds x ops, CPU s
    op_items: list = field(default_factory=list)
    peak_threads: int = 0
    measured_rounds: int = 0
    peak_rss_mb: float = 0.0


def _run_op(op: Op, tracer, stats: RunStats, measured: bool, index: int):
    """Run one op; returns (output, ok) and files its wall and CPU time."""
    if tracer is not None:
        tracer.op = index
    c0 = machine.cpu_seconds()
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # counted as failed; the run goes on but is not correct
        stats.failed += op.items
        stats.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return None, False
    t1 = time.perf_counter()
    c1 = machine.cpu_seconds()
    if tracer is not None:
        stats.peak_threads = max(stats.peak_threads, machine.thread_count())
    if measured:
        stats.walls[-1][index] = t1 - t0
        stats.cpus[-1][index] = c1 - c0
    return out, True


def run_rounds(ops: list[Op], seconds: float, tracer=None) -> RunStats:
    """Round 1 checks everything; later rounds are measured and compared."""
    stats = RunStats()
    reference = []
    if tracer is not None:
        tracer.phase = "warmup"
    for i, op in enumerate(ops):
        stats.attempted += op.items
        out, ok = _run_op(op, tracer, stats, False, i)
        if not ok:
            reference.append(None)
            continue
        try:
            op.check(out)
        except CheckFailed as exc:
            stats.problems.append(f"{op.label}: {exc}")
        reference.append(op.digest(out))
        del out
    stats.rounds = 1
    stats.op_items = [op.items for op in ops]
    if tracer is not None:
        tracer.phase = "measured"
    start = time.perf_counter()
    while stats.measured_rounds < MIN_MEASURED_ROUNDS or time.perf_counter() - start < seconds:
        stats.walls.append([math.nan] * len(ops))
        stats.cpus.append([math.nan] * len(ops))
        for i, op in enumerate(ops):
            stats.attempted += op.items
            out, ok = _run_op(op, tracer, stats, True, i)
            if ok and op.digest(out) != reference[i]:
                stats.problems.append(f"{op.label}: round {stats.rounds + 1} output differs")
            del out
        stats.rounds += 1
        stats.measured_rounds += 1
    stats.peak_rss_mb = machine.peak_rss_mb()
    return stats


def op_medians(rows: list) -> list[float]:
    """Each op's median over the measured rounds; ops that raised (NaN) are left out.

    A round slowed by another process on the shared machine moves these less
    than it moves the plain per-round times.
    """
    medians = []
    for column in zip(*rows):
        done = [x for x in column if not math.isnan(x)]
        if done:
            medians.append(statistics.median(done))
    return medians


def typical_round(rows: list) -> float:
    """Sum over ops of each op's median over the measured rounds."""
    return sum(op_medians(rows))


def items_per_round(stats: RunStats) -> int:
    """Items of the ops that completed in some measured round."""
    return sum(n for n, column in zip(stats.op_items, zip(*stats.walls))
               if not all(math.isnan(x) for x in column))


def end_to_end(stats: RunStats, setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": items_per_round(stats) / typical_round(stats.walls),
                        "unit": "items/s"},
        "op_p50_s": {"value": statistics.median(op_medians(stats.walls)), "unit": "s"},
        "cpu_s": {"value": typical_round(stats.cpus), "unit": "s"},
        "peak_rss_mb": {"value": stats.peak_rss_mb, "unit": "MB"},
    }


#: per-layer self times (s per measured round) and counts (per measured round)
PER_ROUND_SPANS = [
    "cli.main",
    "lab.make_instance",
    "lab.run_one",
    "proofkit.replay.new",
    "proofkit.replay.schur",
    "proofkit.replay.complementary",
    "proofkit.factorize",
    "proofkit.replay_sets",
    "sets.schur_set",
    "sets.schur_set_via_gaps",
    "sets.g_set",
    "sets.d_set",
    "sets.s_set",
    "sets.riesz_support",
    "riesz.riesz_expansion",
    "grid.synth",
    "measures.check_measure_bound",
    "measures.check_measure_bound_via_lift",
    "lift.lifted_s_set",
    "lift.lifted_schur_set",
    "lift.lifted_d_sets",
    "lift.lifted_riesz_support",
]
SETUP_SPANS = ["measures.random_density_measure", "measures.random_atomic_measure"]
PER_ROUND_COUNTS = [
    "proofkit.trace_rows",
    "proofkit.index_set_members",
    "sets.members",
    "riesz.support_points",
]


def per_layer(stats: RunStats, tracer) -> dict:
    rounds = stats.measured_rounds
    measured = tracer.self_time["measured"]
    counts = tracer.counts["measured"]
    out = {}
    for name in PER_ROUND_SPANS:
        out[f"{name}.self_s"] = {"value": measured.get(name, 0.0) / rounds, "unit": "s"}
    for name in SETUP_SPANS:
        out[f"{name}.self_s"] = {"value": tracer.self_time["setup"].get(name, 0.0), "unit": "s"}
    for name in PER_ROUND_COUNTS:
        out[name] = {"value": counts.get(name, 0) / rounds, "unit": "count"}
    out["process.threads"] = {"value": stats.peak_threads, "unit": "count"}
    wall, cpu = typical_round(stats.walls), typical_round(stats.cpus)
    out["process.cpu_per_wall"] = {"value": cpu / wall, "unit": "ratio"}
    out["traced.items_per_s"] = {"value": items_per_round(stats) / wall, "unit": "items/s"}
    return out
