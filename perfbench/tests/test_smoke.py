"""Small-size runs of every workload through the benchmark's entry point.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    p = run("--workload", workload, "--seed", "5", "--seconds", "0.5",
            "--trace", trace, "--size", "smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    machine = json.loads(lines[-2])["machine"]
    assert machine["nproc"] >= 1 and "OPENBLAS_NUM_THREADS" in machine["env"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_counts():
    a, b = (run("--workload", "exact-sets", "--seed", "9", "--seconds", "0.2",
                "--trace", "1", "--size", "smoke") for _ in range(2))
    ma, mb = (json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in (a, b))
    for name in ("sets.members", "riesz.support_points"):
        assert ma[name]["value"] == mb[name]["value"] > 0


def test_refuses_without_the_lab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run("--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_op_that_raises_makes_the_run_incorrect(monkeypatch, capsys):
    from perfbench import exact_sets, run as bench
    from perfbench.harness import Op

    def fail():
        raise ValueError("hypothesis violation")

    ops = [Op("fine", 1, lambda: 1, lambda out: None, lambda out: out),
           Op("raises", 1, fail, lambda out: None, lambda out: out)]
    monkeypatch.setattr(exact_sets, "build", lambda seed, size, workdir: ops)
    code = bench.main(["--workload", "exact-sets", "--seed", "1", "--seconds", "0.01",
                       "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 > 0
