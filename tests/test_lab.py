import math

import numpy as np
import pytest

from paleylab import lab
from paleylab.grid import GridFunction, WindowViolation, coeff, norm_l1, norm_l2, synth
from paleylab.lab import (
    HypothesisNotCertified,
    Instance,
    check_ratio,
    forbidden_members,
    instance_rng,
    make_instance,
    run_campaign,
    run_one,
)


def test_instance_validates_selector():
    with pytest.raises(ValueError):
        Instance(k=(1, 3), forbidden="nonsense", M=10)


def test_forbidden_members_selectors():
    inst = Instance(k=(1, 3), forbidden="schur", M=10)
    assert [m[0] for m in forbidden_members(inst).members] == [-9, -7, -5, -3, -1]
    neg = Instance(k=(1, 3), forbidden="negative-halfline", M=5)
    assert [m[0] for m in forbidden_members(neg).members] == [-5, -4, -3, -2, -1]
    out = Instance(k=(2, 5), forbidden="outside-K-positive", M=7)
    assert [m[0] for m in forbidden_members(out).members] == [1, 3, 4, 6, 7]


def test_make_instance_respects_forbidden_support():
    inst = Instance(k=(1, 3), forbidden="schur", M=16, seed=5)
    f = make_instance(inst)
    forbidden = {m[0] for m in forbidden_members(inst).members}
    for n in forbidden:
        assert abs(coeff(f, n)) <= 1e-14 * norm_l2(f)
    for k in inst.k:
        assert abs(coeff(f, k)) > 1e-8
    assert abs(norm_l1(f) - 1) < 1e-12


def test_make_instance_rejects_overlap():
    inst = Instance(k=(2, 5), forbidden="custom", M=12, custom_forbidden=(5, -1))
    with pytest.raises(ValueError, match="overlap"):
        make_instance(inst)


def test_make_instance_rejects_inexact_forbidden():
    inst = Instance(k=(3, 1, 7), forbidden="schur", M=12)
    with pytest.raises(HypothesisNotCertified):
        make_instance(inst)


def test_make_instance_deterministic():
    inst = Instance(k=(2, 5, 11), forbidden="schur", M=24, seed=9)
    f1 = make_instance(inst, instance_rng(7, 3))
    f2 = make_instance(inst, instance_rng(7, 3))
    assert np.array_equal(f1.samples, f2.samples)
    f3 = make_instance(inst, instance_rng(7, 4))
    assert not np.array_equal(f1.samples, f3.samples)


def test_check_ratio_examples():
    inst = Instance(k=(4,), forbidden="negative-halfline", M=8)
    spec = inst.grid()
    f = synth({(4,): 1.0}, spec)
    assert abs(check_ratio(f, [4]) - 1) < 1e-12
    g = synth({(1,): 1.0, (3,): 1.0}, type(spec)((4096,), (8,)))
    assert abs(check_ratio(g, [1, 3]) - math.pi * math.sqrt(2) / 4) < 1e-3
    off = synth({(2,): 1.0}, spec)
    assert check_ratio(off, [4]) < 1e-14


def test_check_ratio_scale_invariance():
    inst = Instance(k=(2, 5), forbidden="negative-halfline", M=8, seed=0)
    f = make_instance(inst)
    r1 = check_ratio(f, [2, 5])
    g = GridFunction(f.spec, f.samples * (3.7 - 1.2j))
    assert abs(check_ratio(g, [2, 5]) - r1) < 1e-12 * max(r1, 1)


def test_check_ratio_equals_per_k_coefficient_sum():
    inst = Instance(k=(2, 5, 11), forbidden="schur", M=24, seed=0)
    f = make_instance(inst)
    K = [11, -3, 2, 24, -24, 5]
    total = 0.0
    for k in K:
        total += abs(coeff(f, k)) ** 2
    assert check_ratio(f, K) == math.sqrt(total) / norm_l1(f)


def test_check_ratio_rejects_k_outside_window():
    inst = Instance(k=(2, 5), forbidden="negative-halfline", M=8, seed=0)
    f = make_instance(inst)
    with pytest.raises(WindowViolation, match=r"\(9,\)"):
        check_ratio(f, [2, 9])
    with pytest.raises(WindowViolation):
        check_ratio(f, [(-9,)])


def test_check_ratio_zero_function():
    inst = Instance(k=(2,), forbidden="negative-halfline", M=4)
    f = synth({}, inst.grid())
    with pytest.raises(ValueError):
        check_ratio(f, [2])


def test_run_one_schur_instance():
    inst = Instance(k=(2, 5, 11), forbidden="schur", M=24)
    rec = run_one(inst, 0, master_seed=3)
    assert rec["ok"], rec["violations"]
    assert rec["ratio"] <= math.sqrt(2) + 1e-6


def test_run_one_detects_spoiled_instance(monkeypatch):
    # force an instance violating its own hypothesis: campaign must fail it
    inst = Instance(k=(2, 5), forbidden="negative-halfline", M=12, mode=None)

    bad = Instance(k=(2, 5), forbidden="custom", M=12, custom_forbidden=(), mode=None)
    rec = run_one(bad, 0, master_seed=1)
    assert rec["ok"]  # custom empty forbidden: nothing to violate, no constant


def test_campaign_small_all_pass():
    templates = [
        Instance(k=(2, 5, 11), forbidden="schur", M=24),
        Instance(k=(1, 3, 7), forbidden="negative-halfline", M=16),
        Instance(k=(2, 5, 11), forbidden="outside-K-positive", M=24),
    ]
    report = run_campaign(templates, trials=4, master_seed=11)
    assert report.ok
    assert report.instances == 12
    assert report.failures == 0
    assert report.max_ratio <= math.sqrt(math.e) + 1e-6
    assert report.counterexamples == ()


def test_campaign_propagates_instance_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("instance blew up")

    monkeypatch.setattr(lab, "run_one", broken)
    templates = [Instance(k=(2, 5, 11), forbidden="schur", M=20)]
    with pytest.raises(RuntimeError, match="instance blew up"):
        run_campaign(templates, trials=2, master_seed=5, workers=1)


def test_campaign_deterministic_across_worker_counts():
    templates = [Instance(k=(2, 5, 11), forbidden="schur", M=20)]
    r1 = run_campaign(templates, trials=3, master_seed=5, workers=1)
    r2 = run_campaign(templates, trials=3, master_seed=5, workers=2)
    assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)


def test_campaign_failure_carries_replayable_dump():
    # an s-selector instance on a lacunary K has constant 4; force a fake
    # tiny constant by pretending the ceiling applies to a custom selector
    inst = Instance(k=(1, 3, 7), forbidden="s", M=16)
    rec = run_one(inst, 0, master_seed=2)
    assert rec["ok"]
    # dumps appear only on failure; simulate one by corrupting the ratio path
    from paleylab.lab import failure_dump

    f = make_instance(inst, instance_rng(2, 0))
    dump = failure_dump(inst, 0, 2, f, None)
    assert dump["template"]["k"] == [1, 3, 7]
    spec = inst.grid()
    rebuilt = synth({(n,): complex(re, im) for n, re, im in dump["spectrum"]}, spec)
    assert np.max(np.abs(rebuilt.samples - f.samples)) < 1e-9


@pytest.mark.parametrize("k, forbidden, M", [((1, 3, 7), "s", 16), ((2, 5, 11), "schur", 20)])
def test_failure_dump_spectrum_equals_window_loop(k, forbidden, M):
    from paleylab.lab import failure_dump

    inst = Instance(k=k, forbidden=forbidden, M=M)
    f = make_instance(inst, instance_rng(3, 1))
    hat = f.hat()
    expected = []
    for n in range(-M, M + 1):
        c = hat[n % f.spec.dims[0]]
        if abs(c) > 1e-15:
            expected.append([n, float(c.real), float(c.imag)])
    got = failure_dump(inst, 1, 3, f, None)["spectrum"]
    assert got == expected  # the same floats, in the same order
    assert all(type(x) is float for row in got for x in row[1:])
    assert 0 < len(got) < 2 * M + 1  # the 1e-15 filter drops the zeros
