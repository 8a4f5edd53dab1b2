"""In-memory spans around the lab's public functions, for the traced run.

Each span wraps a function at the name its caller binds (for example
``paleylab.lab.replay``, the name ``run_one`` calls), so the program's code is
left as it is.  A layer's self time is its span's duration minus the time of
its child spans; spans nest strictly because every workload runs in one
thread.  Counts are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _replay_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "new")
    dsets = kwargs.get("dsets", args[3] if len(args) > 3 else None)
    if mode == "new" and dsets is not None:
        return "proofkit.replay.schur"
    return f"proofkit.replay.{mode}"


def _count_replay(counts, args, kwargs, out):
    counts["proofkit.trace_rows"] += len(out.rows)
    dsets = kwargs.get("dsets", args[3] if len(args) > 3 else None)
    if dsets is not None:
        counts["proofkit.index_set_members"] += sum(len(d) for d in dsets)


def _count_replay_sets(counts, args, kwargs, out):
    counts["proofkit.trace_rows"] += len(out.rows)
    dsets = kwargs.get("dsets", args[2] if len(args) > 2 else ())
    counts["proofkit.index_set_members"] += sum(len(d) for d in dsets)


def _count_members(counts, args, kwargs, out):
    counts["sets.members"] += len(out.members)


def _count_support(counts, args, kwargs, out):
    counts["riesz.support_points"] += len(out.numerators)


# (module, attribute the caller looks up, span name or namer, counter)
WRAPS = [
    ("paleylab.cli", "main", "cli.main", None),
    ("paleylab.lab", "run_one", "lab.run_one", None),
    ("paleylab.lab", "make_instance", "lab.make_instance", None),
    ("paleylab.lab", "replay", _replay_name, _count_replay),
    ("paleylab.lab", "synth", "grid.synth", None),
    ("paleylab.lab", "schur_set", "sets.schur_set", _count_members),
    ("paleylab.lab", "d_set", "sets.d_set", _count_members),
    ("paleylab.lab", "s_set", "sets.s_set", _count_members),
    ("paleylab.proofkit", "factorize", "proofkit.factorize", None),
    ("paleylab.measures", "replay", _replay_name, _count_replay),
    ("paleylab.measures", "replay_sets", "proofkit.replay_sets", _count_replay_sets),
    ("paleylab.measures", "riesz_expansion", "riesz.riesz_expansion", _count_support),
    ("paleylab.measures", "synth", "grid.synth", None),
    ("paleylab.measures", "schur_set", "sets.schur_set", _count_members),
    ("paleylab.measures", "riesz_support", "sets.riesz_support", _count_members),
    ("paleylab.measures", "s_set", "sets.s_set", _count_members),
    ("paleylab.measures", "lifted_s_set", "lift.lifted_s_set", None),
    ("paleylab.measures", "lifted_schur_set", "lift.lifted_schur_set", None),
    ("paleylab.measures", "lifted_d_sets", "lift.lifted_d_sets", None),
    ("paleylab.measures", "lifted_riesz_support", "lift.lifted_riesz_support", None),
    ("paleylab.measures", "check_measure_bound", "measures.check_measure_bound", None),
    (
        "paleylab.measures",
        "check_measure_bound_via_lift",
        "measures.check_measure_bound_via_lift",
        None,
    ),
    ("paleylab.measures", "random_density_measure", "measures.random_density_measure", None),
    ("paleylab.measures", "random_atomic_measure", "measures.random_atomic_measure", None),
    ("paleylab.sets", "schur_set", "sets.schur_set", _count_members),
    ("paleylab.sets", "schur_set_via_gaps", "sets.schur_set_via_gaps", _count_members),
    ("paleylab.sets", "g_set", "sets.g_set", _count_members),
    ("paleylab.sets", "d_set", "sets.d_set", _count_members),
    ("paleylab.sets", "s_set", "sets.s_set", _count_members),
    ("paleylab.sets", "riesz_support", "sets.riesz_support", _count_members),
    ("paleylab.riesz", "riesz_expansion", "riesz.riesz_expansion", _count_support),
]


class Tracer:
    """Span recorder; ``phase`` and ``op`` tag every span and count."""

    def __init__(self):
        self.spans: list[dict] = []
        self.self_time = defaultdict(lambda: defaultdict(float))  # phase -> name -> s
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> name -> n
        self.phase = "setup"
        self.op = None
        self._stack: list[list] = []  # [span id, child seconds]

    def _wrap(self, fn, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append([sid, 0.0])
            record = {"id": sid, "parent": parent, "name": name, "op": tracer.op,
                      "phase": tracer.phase}
            tracer.spans.append(record)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                duration = end - start
                record["start"], record["end"] = start, end
                record["self"] = duration - child
                tracer.self_time[tracer.phase][name] += duration - child
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if counter is not None:
                counter(tracer.counts[tracer.phase], args, kwargs, out)
            return out

        return traced

    def install(self):
        for module_name, attr, namer, counter in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), namer, counter))
