import json
import subprocess
import sys


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "paleylab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


def test_sets_command_s_set():
    proc = run_cli("sets", "--k", "1,3,7", "--set", "s")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"members": [-3], "exact": True} or payload == {
        "exact": True,
        "members": [-3],
    }


def test_sets_command_schur_window():
    proc = run_cli("sets", "--k", "1,3", "--set", "schur", "--window", "-10:0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["members"] == [-9, -7, -5, -3, -1]


def test_sets_dj_requires_j():
    proc = run_cli("sets", "--k", "1,3,7", "--set", "dj", "--window", "-9:-1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_riesz_command_over_cap_exits_2():
    # 15 strongly lacunary entries: 3^15 support points, refused before any work
    ks = ",".join(str(3**j) for j in range(1, 16))
    proc = run_cli("riesz", "--k", ks, timeout=60)
    assert proc.returncode == 2
    assert "cap" in proc.stderr


def test_riesz_command_includes_unit_constant():
    proc = run_cli("riesz", "--k", "1,3")
    assert proc.returncode == 0
    triples = json.loads(proc.stdout)
    assert [0, 1, 0] in triples


def test_unknown_flag_exits_2():
    proc = run_cli("sets", "--nonsense", "x")
    assert proc.returncode == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("replay", "--instances", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_replay_roundtrip(tmp_path):
    inst = {"k": [2, 5, 11], "forbidden": "schur", "M": 24, "seed": 3}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    proc = run_cli("replay", "--instances", str(path))
    assert proc.returncode == 0
    trace = json.loads(proc.stdout)
    assert trace["ratio"] <= 2 + 1e-9
    assert trace["mode"] == "new"


def test_verify_all_pass_and_deterministic(tmp_path):
    config = {
        "templates": [
            {"k": [2, 5, 11], "forbidden": "schur", "M": 20},
            {"k": [1, 3, 7], "forbidden": "outside-K-positive", "M": 16},
        ]
    }
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(config))
    out1 = run_cli(
        "verify", "--instances", str(path), "--trials", "3", "--seed", "7",
        "--workers", "1", "--no-timing",
    )
    out2 = run_cli(
        "verify", "--instances", str(path), "--trials", "3", "--seed", "7",
        "--workers", "2", "--no-timing",
    )
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout  # byte-identical reports
    report = json.loads(out1.stdout)
    assert report["failures"] == 0
    assert report["instances"] == 6


def test_optimize_csv_log(tmp_path):
    template = {"k": [3], "forbidden": "custom", "M": 6}
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(template))
    proc = run_cli(
        "optimize", "--instances", str(path), "--restarts", "2",
        "--iterations", "40", "--format", "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "restart,iteration,ratio,step"
    assert len(lines) == 2 * 40 + 1


def test_optimize_enumeration_outside_window_exits_2(tmp_path):
    template = {"k": [2, 5, 11], "forbidden": "negative-halfline", "M": 4}
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(template))
    proc = run_cli("optimize", "--instances", str(path), "--restarts", "1", "--iterations", "5")
    assert proc.returncode == 2
    assert "exceeds the window" in proc.stderr


def test_lift_command():
    proc = run_cli("lift", "--k", "1,3,7")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["extremely_lacunary"] and payload["exact"]
    assert payload["simple_s_ok"]
    assert payload["s_members"] == [[-3, 1, 1, -1]]


def test_replay_from_spectrum_dump(tmp_path):
    # a dump with an explicit spectrum is replayed as-is; a spectrum that
    # violates the hypothesis reproduces the failure
    dump = {
        "template": {"k": [5], "forbidden": "negative-halfline", "M": 10, "seed": 0},
        "spectrum": [[5, 1.0, 0.0], [-3, 0.5, 0.0]],
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    proc = run_cli("replay", "--instances", str(path))
    assert proc.returncode == 2
    assert "-3" in proc.stderr

    good = {
        "template": {"k": [5], "forbidden": "negative-halfline", "M": 10, "seed": 0},
        "spectrum": [[5, 1.0, 0.0]],
    }
    path.write_text(json.dumps(good))
    proc2 = run_cli("replay", "--instances", str(path))
    assert proc2.returncode == 0
    assert abs(json.loads(proc2.stdout)["ratio"] - 1.0) < 1e-9


def test_verify_broken_template_exits_1(tmp_path):
    # a template whose custom forbidden set overlaps K cannot be generated;
    # the campaign records the failure with a dump and exits 1
    config = {
        "templates": [
            {"k": [2, 5], "forbidden": "custom", "M": 12, "custom_forbidden": [5]}
        ]
    }
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(config))
    proc = run_cli("verify", "--instances", str(path), "--trials", "2", "--no-timing")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["failures"] == 2
    assert report["counterexamples"][0]["template"]["k"] == [2, 5]


def test_replay_mode_flag_and_explicit_dsets(tmp_path):
    # complementary mode via the flag
    inst = {"k": [2, 5, 11], "forbidden": "outside-K-positive", "M": 16, "seed": 1}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    proc = run_cli("replay", "--instances", str(path), "--mode", "complementary")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mode"] == "complementary"

    # explicit index sets in the instance file
    from paleylab.sets import Enumeration, Window, d_set

    e = Enumeration([2, 5, 11])
    depth = max(e.gaps()) + 1
    dsets = [
        [m[0] for m in d_set(j, e, Window(-depth, -1)).members] for j in range(1, 4)
    ]
    inst2 = {"k": [2, 5, 11], "forbidden": "schur", "M": 16, "seed": 2, "dsets": dsets}
    path.write_text(json.dumps(inst2))
    proc2 = run_cli("replay", "--instances", str(path))
    assert proc2.returncode == 0


def test_workers_env_variable(tmp_path, monkeypatch):
    import os
    import subprocess

    config = {"templates": [{"k": [2, 5], "forbidden": "schur", "M": 12}]}
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PALEY_LAB_WORKERS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "paleylab", "verify", "--instances", str(path),
         "--trials", "2", "--no-timing"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["instances"] == 2


def test_measures_command(tmp_path):
    config = [
        {"k": [2, 5, 11], "hypothesis": "schur-riesz", "M": 24, "seed": 1},
        {"k": [5, -3, 8], "lift": True, "M": 24, "seed": 2},
    ]
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(config))
    proc = run_cli("measures", "--instances", str(path))
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert all(r["ok"] for r in reports)
