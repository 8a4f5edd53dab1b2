#!/usr/bin/env python3
"""Wall time and peak RSS of deep lift chains, one fresh process per J.

Each chain is `check_measure_bound_via_lift` on the first J entries of
K = [7, -13, 29, 4, -2, 17, 53, -97, 211] (J = 8 ends at -97), for the
density measure `random_density_measure(K, "s", M, seed=3)` with M the sum
of |gamma| over K.  The measure is drawn before the clock starts; `chain_s`
times the chain alone, and `peak_rss_mb` is the child process's whole peak
resident set (`ru_maxrss`), the interpreter and numpy included.  Prints one
JSON line: {"chains": [{"J", "k", "chain_s", "peak_rss_mb", "ok", "ratio"},
...]}, in the order of --J.  Uses the `src/` next to this script.

Usage: python scripts/lift_frontier.py [--J 7 8]
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

K = [7, -13, 29, 4, -2, 17, 53, -97, 211]
SEED = 3


def chain(J: int) -> dict:
    """Run the J-entry chain in this process."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from paleylab.measures import check_measure_bound_via_lift, random_density_measure
    from paleylab.sets import Enumeration

    e = Enumeration(K[:J])
    mu = random_density_measure(e, "s", sum(map(abs, K[:J])), seed=SEED)
    start = time.perf_counter()
    report = check_measure_bound_via_lift(mu, e)
    chain_s = time.perf_counter() - start
    return {
        "J": J,
        "k": K[:J],
        "chain_s": chain_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok": report.ok,
        "ratio": report.ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--J", type=int, nargs="+", default=[7, 8],
                        choices=range(1, len(K) + 1), metavar="J",
                        help=f"chain lengths, 1..{len(K)} (default 7 8)")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(chain(args.child)))
        return 0
    chains = []
    for J in args.J:
        proc = subprocess.run([sys.executable, __file__, "--child", str(J)],
                              capture_output=True, text=True, check=True)
        chains.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(json.dumps({"chains": chains}))
    return 0 if all(c["ok"] for c in chains) else 1


if __name__ == "__main__":
    sys.exit(main())
