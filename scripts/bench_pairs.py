#!/usr/bin/env python3
"""Interleaved before/after runs of one benchmark workload.

Exports the committed files of a base revision to `.bench_build/<rev>/` with
`git archive` and runs `perfbench/run.py` there and in this checkout, in ten
pairs.  Every run uses the same seed and the run length `run_seconds` of
`BENCHMARK.json`, and the side that runs first alternates from pair to pair,
so drift on the machine falls on both sides alike.  The checkout must have
no uncommitted changes outside the `BENCH_*.json` records, so the measured
code is the commit named in the record.  A run whose result is not `correct`
stops the script with exit code 1.  The record (the machine, both
revisions, every pair's end-to-end metrics, per-side medians and quartiles,
and per-metric win counts of the checkout) goes to `BENCH_<workload>.json`
at the root of the checkout.

Usage, from the root of a checkout, with the change committed:

    python3 scripts/bench_pairs.py --workload exact-sets --base <parent rev>
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 101


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of `rev`, unpacked once under .bench_build/."""
    sha = git("rev-parse", rev)
    dest = ROOT / ".bench_build" / sha
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: (machine record, result); exits on an incorrect run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"run in {checkout} is not correct:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="exact-sets")
    p.add_argument("--base", required=True, help="revision to compare against")
    args = p.parse_args(argv)

    if git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json"):
        sys.exit("the checkout has uncommitted changes; commit them first")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"base": export(args.base), "head": ROOT}
    pairs, machine = [], None
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            record, result = run(sides[side], args.workload, seconds)
            machine = machine or record["machine"]
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    def values(side, name):
        return [pr[side][name] for pr in pairs]

    medians = {side: {name: statistics.median(values(side, name)) for name in better}
               for side in sides}
    quartiles = {side: {name: statistics.quantiles(values(side, name), n=4)[::2]
                        for name in better} for side in sides}

    def improved(name, pair):
        head, base = pair["head"][name], pair["base"][name]
        return head < base if better[name] == "lower" else head > base

    wins = {name: sum(improved(name, pr) for pr in pairs) for name in better}
    out = {
        "workload": args.workload,
        "seconds": seconds,
        "seed": SEED,
        "machine": machine,
        "base": {"rev": git("rev-parse", args.base)},
        "head": {"rev": git("rev-parse", "HEAD")},
        "pairs": pairs,
        "medians": medians,
        "quartiles": quartiles,
        "head_over_base": {name: medians["head"][name] / medians["base"][name]
                           for name in better if medians["base"][name]},
        "head_wins": wins,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}: medians {json.dumps(medians)}; head wins {json.dumps(wins)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
