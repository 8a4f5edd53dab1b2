"""scripts/lift_frontier.py on its smallest useful chain, J = 3."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "lift_frontier.py"


def test_lift_frontier_j3_smoke():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--J", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    (chain,) = json.loads(lines[0])["chains"]
    assert chain["J"] == 3 and chain["k"] == [7, -13, 29] and chain["ok"]
    assert chain["chain_s"] > 0 and chain["peak_rss_mb"] > 0
