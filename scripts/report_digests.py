#!/usr/bin/env python3
"""SHA-256 digests of fixed-seed `paleylab` reports, for byte-identity checks.

Runs a fixed list of `paleylab.cli.main` calls in process (set listings,
among them three at the 10^6 window scale of acceptance criterion 2, Riesz
expansions, the lift check, a replay in each mode, a criterion-3 campaign
under `--no-timing --workers 1`, and measure chains: density and atomic
chains on Z under each hypothesis and density and atomic lifts) and prints one
`name sha256` line per report.  Two checkouts produce the same lines exactly
when every report is byte-identical.  Uses the `src/` next to this script.
`--check FILE` runs the runs named in FILE, a file of such lines, prints
each digest that differs and exits 1 if any does.  `scripts/digests.txt`
holds the current lines.

Usage: python scripts/report_digests.py [--check scripts/digests.txt]
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paleylab import cli  # noqa: E402


def criterion3_template(i: int) -> dict:
    """Template i of the acceptance suite's criterion-3 campaign."""
    r = np.random.default_rng([424242, i])
    J = int(r.integers(1, 9))
    ks = [int(r.integers(1, 12))]
    target = int(2 ** r.uniform(4, 9))
    while len(ks) < J:
        nxt = 2 * ks[-1] + int(r.integers(1, max(2, ks[-1])))
        if nxt > target:
            break
        ks.append(nxt)
    M = min(512, max(int(ks[-1] * r.uniform(1.0, 1.6)), ks[-1]))
    return {"k": ks, "forbidden": "schur", "M": M, "seed": 0}


CONFIGS = {
    "replay.json": {"k": [2, 5, 11, 23], "forbidden": "schur", "M": 32, "seed": 3},
    "replay-halfline.json": {"k": [1, 3, 7], "forbidden": "negative-halfline", "M": 16, "seed": 4},
    "replay-complementary.json": {"k": [2, 5, 11], "forbidden": "outside-K-positive", "M": 24,
                                  "seed": 5},
    "campaign.json": {
        "templates": [criterion3_template(i) for i in range(24)]
        + [{"k": [4, 5, 9], "forbidden": "schur", "M": 16, "seed": 0}]
    },
    "measures.json": [
        {"k": [1, 3, 7], "hypothesis": "schur-riesz", "seed": 5},
        {"k": [7, -13, 29, 4], "lift": True, "seed": 2},
    ],
    "measures-atomic.json": {"k": [2, 5, 11], "hypothesis": "schur-riesz", "type": "atomic",
                             "M": 24, "seed": 1},
    "measures-negative.json": {"k": [1, 3, 7], "hypothesis": "negative", "M": 16, "seed": 4},
    "measures-lift-atomic.json": {"k": [3, -5, 8], "lift": True, "type": "atomic", "M": 24,
                                  "seed": 4},
}

#: criterion 2's draw at the 10^6 window scale
WIDE_K = "3930,12265,28038,59834,121105,245840,495979,993257"

RUNS = [
    ("sets-schur", ["sets", "--k", "1,3,7,15", "--set", "schur", "--window", "-60:0"]),
    ("sets-schur-bounded", ["sets", "--k", "3,1,7", "--set", "schur", "--coeff-bound", "3",
                            "--window", "-20:20"]),
    ("sets-gj", ["sets", "--k", "1,3,7,15", "--set", "gj", "--j", "2", "--window", "-60:10"]),
    ("sets-dj", ["sets", "--k", "1,3,7,15", "--set", "dj", "--j", "2", "--window", "-40:-1"]),
    ("sets-schur-wide", ["sets", "--k", WIDE_K, "--set", "schur", "--window", "-993257:0"]),
    ("sets-gj-wide", ["sets", "--k", WIDE_K, "--set", "gj", "--j", "3",
                      "--window", "-961461:31796"]),
    ("sets-dj-wide", ["sets", "--k", WIDE_K, "--set", "dj", "--j", "3",
                      "--window", "-993257:-1"]),
    ("sets-s", ["sets", "--k", "3,1,7,2,5", "--set", "s"]),
    ("sets-s-vector", ["sets", "--k", "2,1;0,3;5,-2;1,1", "--set", "s"]),
    ("sets-riesz", ["sets", "--k", "1,3,7,15", "--set", "riesz"]),
    ("sets-alt", ["sets", "--k", "1,3,7,15", "--set", "alt"]),
    ("riesz", ["riesz", "--k", "3,7,18,40"]),
    ("lift", ["lift", "--k", "7,-13,29,4"]),
    ("replay-schur", ["replay", "--instances", "replay.json"]),
    ("replay-halfline", ["replay", "--instances", "replay-halfline.json"]),
    ("replay-complementary", ["replay", "--instances", "replay-complementary.json"]),
    ("verify-criterion3", ["verify", "--instances", "campaign.json", "--trials", "4",
                           "--seed", "7", "--workers", "1", "--no-timing"]),
    ("measures", ["measures", "--instances", "measures.json"]),
    ("measures-atomic", ["measures", "--instances", "measures-atomic.json"]),
    ("measures-negative", ["measures", "--instances", "measures-negative.json"]),
    ("measures-lift-atomic", ["measures", "--instances", "measures-lift-atomic.json"]),
]


def digests(names=None) -> dict[str, str]:
    """{name: sha256 of the report bytes} for the runs named, in RUNS order
    (all of them when names is None).  Raises RuntimeError on a run that
    exits nonzero or writes no report."""
    runs = [(name, argv) for name, argv in RUNS if names is None or name in names]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, config in CONFIGS.items():
            (tmp / name).write_text(json.dumps(config))
        for name, argv in runs:
            argv = [str(tmp / a) if a in CONFIGS else a for a in argv]
            report = tmp / f"{name}.out"
            code = cli.main(argv + ["--out", str(report)])
            if code != 0 or not report.is_file():
                raise RuntimeError(f"{name} exit code {code}")
            out[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def read_digests(path) -> dict[str, str]:
    """The `name sha256` lines of a digest file as a dict."""
    return dict(line.split() for line in Path(path).read_text().splitlines() if line.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests in FILE instead of printing them")
    args = parser.parse_args(argv)
    if args.check is None:
        for name, sha in digests().items():
            print(name, sha)
        return 0
    want = read_digests(args.check)
    got = digests(want)
    bad = [name for name in want if got.get(name) != want[name]]
    for name in bad:
        print(f"{name}: expected {want[name]}, got {got.get(name, 'no such run')}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
