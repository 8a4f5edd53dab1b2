"""scripts/bench_pairs.py with its benchmark runs and git calls replaced by
fakes: no benchmark runs and no git state is read or written."""

import importlib.util
import json
import pathlib
import subprocess
import types

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "t", "better": "lower"}, {"name": "r", "better": "higher"}],
    }))
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "git", lambda *args: "" if args[0] == "status" else f"sha-{args[-1]}")
    monkeypatch.setattr(mod, "export", lambda rev: tmp_path / "base")
    return mod


def fake_runs(bench, tmp_path, metrics):
    """Replace `run` by one that logs (side, pair) and returns
    metrics(side, pair) for the pair-th run of that side."""
    calls = []

    def run(checkout, workload, seconds):
        assert seconds == 7
        side = "base" if checkout == tmp_path / "base" else "head"
        i = sum(s == side for s, _ in calls)
        calls.append((side, i))
        values = metrics(side, i)
        return ({"machine": {"nproc": 2}},
                {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}})

    bench.run = run
    return calls


def test_first_side_alternates(bench, tmp_path):
    calls = fake_runs(bench, tmp_path, lambda side, i: {"t": 1.0, "r": 1.0})
    assert bench.main(["--workload", "w", "--base", "b"]) == 0
    firsts = [side for side, _ in calls[::2]]
    assert firsts == ["base", "head"] * 5
    record = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert [p["first"] for p in record["pairs"]] == firsts
    assert record["base"]["rev"] == "sha-b" and record["head"]["rev"] == "sha-HEAD"


def test_medians_quartiles_and_wins(bench, tmp_path):
    def metrics(side, i):
        if side == "base":
            return {"t": 10.0 + i, "r": 1.0}
        # pair 9 ties on t and pair 0 on r: a tie is no win
        return {"t": 19.0 if i == 9 else 5.0 + i, "r": 1.0 if i == 0 else 2.0}

    fake_runs(bench, tmp_path, metrics)
    assert bench.main(["--workload", "w", "--base", "b"]) == 0
    record = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert record["seconds"] == 7 and len(record["pairs"]) == 10
    assert record["machine"] == {"nproc": 2}
    # base t = 10..19; head t = 5..13 and 19
    assert record["medians"] == {"base": {"t": 14.5, "r": 1.0}, "head": {"t": 9.5, "r": 2.0}}
    assert record["quartiles"]["base"]["t"] == [11.75, 17.25]
    assert record["quartiles"]["head"]["t"] == [6.75, 12.25]
    assert record["head_wins"] == {"t": 9, "r": 9}
    assert record["head_over_base"] == {"t": 9.5 / 14.5, "r": 2.0}


def test_incorrect_run_exits_nonzero_without_record(bench, tmp_path, monkeypatch):
    result = {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
    stdout = json.dumps({"machine": {}}) + "\n" + json.dumps(result) + "\n"

    def fake_run(cmd, **kwargs):
        assert cmd[1] == "perfbench/run.py"
        return subprocess.CompletedProcess(cmd, 0, stdout, "check failed")

    monkeypatch.setattr(bench, "subprocess", types.SimpleNamespace(run=fake_run))
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "w", "--base", "b"])
    assert exc.value.code not in (0, None)
    assert not list(tmp_path.glob("BENCH_*.json"))
