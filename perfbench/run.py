#!/usr/bin/env python3
"""Benchmark of the lab: run one workload from a seed and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads: campaign, exact-sets, lift-chain (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from spans around the lab's public functions.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the machine.  Both, and the spans of a
traced run, are also written under perfbench/out/.  The lab is imported from
the checkout's own src/; without it the run exits with code 2.
"""

import time

# Set-up time runs from the process's start.  The interpreter's start-up,
# before this line, waits on nothing, so its CPU time stands for its wall time.
STARTED = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "exact-sets", "lift-chain")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: a few small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "paleylab" / "__init__.py").is_file():
        print(f"error: no lab source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))

    from perfbench import campaign, exact_sets, harness, lift_chain, machine

    import paleylab  # noqa: F401  (its import is part of the set-up)

    if not Path(paleylab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: paleylab imported from {paleylab.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    module = {"campaign": campaign, "exact-sets": exact_sets, "lift-chain": lift_chain}
    ops = module[args.workload].build(args.seed, args.size, workdir)
    setup_s = time.perf_counter() - STARTED

    stats = harness.run_rounds(ops, args.seconds, tracer)
    if stats.failed == stats.attempted:
        print("error: every operation failed: " + "; ".join(stats.errors[:3]), file=sys.stderr)
        return 1
    if tracer is None:
        metrics = harness.end_to_end(stats, setup_s)
    else:
        metrics = harness.per_layer(stats, tracer)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    result = {
        # an op that raised left its output unchecked, so the run is not correct
        "correct": not stats.problems and not stats.errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    record = {
        "machine": machine.machine_record(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "rounds": stats.rounds,
        "problems": stats.problems,
        "errors": stats.errors,
    }
    timings = {"ops": [op.label for op in ops], "walls": stats.walls, "cpus": stats.cpus}
    (workdir / "result.json").write_text(
        json.dumps({**record, "result": result, "timings": timings}, indent=1))
    for line in stats.problems + stats.errors:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
