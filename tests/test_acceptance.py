"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass line (run with -s or -rA to see them)."""

import math
import time
from fractions import Fraction

import numpy as np

from paleylab.cones import ConeOrder
from paleylab.grid import GridSpec, norm_l1, synth
from paleylab.lab import Instance, check_ratio, run_campaign
from paleylab.lift import check_simple_s, lift_enumeration, lifted_s_set
from paleylab.measures import (
    check_measure_bound,
    random_atomic_measure,
    random_density_measure,
)
from paleylab.optimize import OptimizerConfig, optimize_ratio
from paleylab.riesz import riesz_expansion, riesz_polynomial
from paleylab.sets import (
    Enumeration,
    Window,
    alt_sum_set,
    d_set,
    g_set,
    riesz_support,
    s_set,
    schur_set,
    schur_set_via_gaps,
)

SQRT2 = math.sqrt(2.0)
SQRTE = math.sqrt(math.e)


def scalars(report):
    return report.array[:, 0].tolist()


def random_lacunary_for(seed, max_j=8, k_max=10**6):
    r = np.random.default_rng([20240808, seed])
    if seed % 40 == 0:
        # build a chain downward from the top of the admissible range so the
        # campaign genuinely exercises windows at the 10^6 scale
        J = int(r.integers(4, max_j + 1))
        ks = [k_max - int(r.integers(0, 10_000))]
        while len(ks) < J and ks[-1] > 4:
            ks.append((ks[-1] - int(r.integers(1, min(ks[-1] // 2, 5000) + 1))) // 2)
        return list(reversed(ks))
    J = int(r.integers(2, max_j + 1))
    ks = [int(10 ** r.uniform(0, 3.2)) + 1]
    while len(ks) < J:
        nxt = 2 * ks[-1] + int(r.integers(1, max(2, ks[-1])))
        if nxt > k_max:
            break
        ks.append(nxt)
    return ks


def test_criterion_1_combinatorial_ground_truths():
    start = time.time()
    assert scalars(s_set(Enumeration([1, 3, 7]))) == [-3]
    assert scalars(s_set(Enumeration([1, 3]))) == []
    assert scalars(schur_set(Enumeration([1, 3]), Window(-10, 0))) == [-9, -7, -5, -3, -1]
    assert scalars(alt_sum_set(Enumeration([1, 3, 7, 15]))) == [5, 9, 11, 13]
    exp = riesz_expansion([1, 3])
    expected = {
        0: Fraction(1), 1: Fraction(1, 2), -1: Fraction(1, 2),
        3: Fraction(1, 2), -3: Fraction(1, 2), 2: Fraction(1, 4),
        -2: Fraction(1, 4), 4: Fraction(1, 4), -4: Fraction(1, 4),
    }
    assert {k[0]: v for k, v in exp.coeffs.items()} == expected
    assert riesz_expansion([1, 2, 3])[(0,)] == Fraction(5, 4)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1 PASS (combinatorial ground truths, {elapsed:.2f}s)")


def test_criterion_2_set_system_properties():
    start = time.time()
    checked = 0
    largest_window = 0
    for seed in range(200):
        ks = random_lacunary_for(seed)
        largest_window = max(largest_window, ks[-1])
        e = Enumeration(ks)
        W = ks[-1]
        w = Window(-W, 0)
        schur = schur_set(e, w)
        gaps_route = schur_set_via_gaps(e, w)
        assert schur.exact and gaps_route.exact
        assert schur.members == gaps_route.members, ks
        mem = np.array(scalars(schur), dtype=np.int64)
        assert mem.size == 0 or mem.max() < 0  # Schur of lacunary is negative

        # Schur = union of (G_{j+1} - dk_j), windowed
        union: set[int] = set()
        for j in range(1, e.J):
            dk = ks[j] - ks[j - 1]
            gw = Window(-W + dk, dk)
            union |= {m - dk for m in scalars(g_set(j, e, gw)) if -W <= m - dk <= 0}
        assert union == set(mem.tolist()), ks

        # capped window for the quadratic / nested sub-identities
        V = min(W, 20_000)
        wv = Window(-V, 0)
        gsets = [set(scalars(g_set(j, e, wv))) for j in range(1, e.J)]
        for a, b in zip(gsets, gsets[1:]):
            assert a <= b  # G-nesting
        dsets = [set(scalars(d_set(j, e, Window(-V, -1)))) for j in range(1, e.J + 1)]
        for a, b in zip(dsets, dsets[1:]):
            assert b <= a  # D-antinesting
        # additive closure inside the window
        for dj in dsets[:-1]:
            arr = np.fromiter(dj, dtype=np.int64)
            if arr.size == 0 or arr.size > 900:
                continue
            sums = arr[:, None] + arr[None, :]
            inside = (sums >= -V) & (sums <= -1)
            assert all(int(v) in dj for v in np.unique(sums[inside]))

        # S inside Schur ∩ Riesz
        s_members = {m[0] for m in s_set(e).members if -W <= m[0] <= 0}
        riesz = {m[0] for m in riesz_support(ks).members}
        assert s_members <= (set(mem.tolist()) & riesz), ks
        checked += 1
    elapsed = time.time() - start
    assert checked >= 200
    assert elapsed < 60.0
    assert largest_window > 9 * 10**5  # the draw genuinely reaches the 10^6 scale
    print(
        f"\n[acceptance] criterion 2 PASS ({checked} enumerations, "
        f"windows to {largest_window}, {elapsed:.1f}s)"
    )


def _criterion3_template(i):
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
    return Instance(k=tuple(ks), forbidden="schur", M=M, seed=0)


def test_criterion_3_replay_campaign_1000():
    start = time.time()
    templates = [_criterion3_template(i) for i in range(24)]
    # one non-lacunary increasing enumeration whose Schur set avoids K
    templates.append(Instance(k=(4, 5, 9), forbidden="schur", M=16, seed=0))
    report = run_campaign(templates, trials=40, master_seed=7, workers=2)
    elapsed = time.time() - start
    assert report.instances == 1000
    assert report.failures == 0, report.counterexamples[:1]
    assert report.worst_residual <= 1e-9
    assert report.max_ratio <= 2 + 1e-9
    assert elapsed < 300.0
    print(
        f"\n[acceptance] criterion 3 PASS (1000 replays, max ratio "
        f"{report.max_ratio:.6f}, worst residual {report.worst_residual:.2e}, {elapsed:.1f}s)"
    )
    # stash for criterion 4
    test_criterion_3_replay_campaign_1000.max_ratio = report.max_ratio


def test_criterion_4_sharp_constant_ceilings():
    start = time.time()
    worst_t15 = 0.0
    # campaign ratios for Theorem-1 and Theorem-5 style instances
    t1_templates = [
        Instance(k=(2, 5, 11, 23), forbidden="negative-halfline", M=32),
        Instance(k=(1, 3, 7, 15, 31), forbidden="schur", M=40),
        Instance(k=(3, 8, 17, 40), forbidden="schur", M=48),
    ]
    rep = run_campaign(t1_templates, trials=60, master_seed=13, workers=2)
    assert rep.failures == 0
    worst_t15 = max(worst_t15, rep.max_ratio)
    # optimizer pushes toward the extremal ratio and still stays under
    for k, forb in (((2, 5, 11), "schur"), ((1, 3, 7), "negative-halfline")):
        res = optimize_ratio(
            Instance(k=k, forbidden=forb, M=24),
            OptimizerConfig(restarts=4, iterations=200, seed=3),
        )
        worst_t15 = max(worst_t15, res.ratio)
    # Theorem-4 (group) configuration
    order = ConeOrder("lex-last", dim=2)
    spec = GridSpec((32, 16), (12, 6))
    worst_t4 = 0.0
    from paleylab.proofkit import replay_group

    for seed in range(40):
        r = np.random.default_rng([31, seed])
        spectrum = {}
        for n1 in range(-12, 13):
            for n2 in range(-6, 7):
                if not order.in_strict_cone((-n1, -n2)):
                    spectrum[(n1, n2)] = complex(r.standard_normal(), r.standard_normal())
        tr = replay_group(synth(spectrum, spec), Enumeration([(5, 1), (0, 3)]), order)
        assert tr.check() == []
        worst_t4 = max(worst_t4, tr.ratio)
    assert worst_t15 <= SQRT2 + 1e-6
    assert worst_t4 <= SQRT2 + 1e-6
    # Theorem-2 (complementary) configurations
    t2_templates = [
        Instance(k=(2, 5, 11, 23), forbidden="outside-K-positive", M=32),
        Instance(k=(1, 3, 7, 15), forbidden="outside-K-positive", M=24),
    ]
    rep2 = run_campaign(t2_templates, trials=60, master_seed=17, workers=2)
    assert rep2.failures == 0
    assert rep2.max_ratio <= SQRTE + 1e-6
    elapsed = time.time() - start
    print(
        f"\n[acceptance] criterion 4 PASS (ceilings: T1/4/5 max {worst_t15:.6f} <= sqrt2,"
        f" group max {worst_t4:.6f}, T2 max {rep2.max_ratio:.6f} <= sqrt e, {elapsed:.1f}s)"
    )


def test_criterion_5_closed_form_spot_check():
    spec = GridSpec((4096,), (4,))
    f = synth({(1,): 1.0, (3,): 1.0}, spec)
    ratio = check_ratio(f, [1, 3])
    target = math.pi * SQRT2 / 4
    assert abs(ratio - target) < 5e-4
    print(f"\n[acceptance] criterion 5 PASS (ratio {ratio:.6f} vs pi*sqrt2/4 = {target:.6f})")


def test_criterion_6_riesz_exact_facts():
    start = time.time()
    ks = [3]
    while len(ks) < 12:
        ks.append(2 * ks[-1] + 1 + len(ks))
    for upto in (1, 2, 4, 8, 12):
        K = ks[:upto]
        t0 = time.time()
        exp = riesz_expansion(K)
        assert exp[(0,)] == Fraction(1)
        for k in K:
            assert exp[(k,)] >= Fraction(1, 2)
        assert time.time() - t0 < 1.0
    # sampled facts on a desk-size instance
    K = [2, 5, 11, 23, 47]
    spec = GridSpec((512,), (sum(K) + 1,))
    f, exp = riesz_polynomial(K, spec)
    assert f.samples.real.min() >= -1e-12
    assert abs(norm_l1(f) - 1.0) <= 1e-10
    elapsed = time.time() - start
    print(f"\n[acceptance] criterion 6 PASS (exact Riesz facts to |K|=12, {elapsed:.1f}s)")


def _measure_enum(seed):
    r = np.random.default_rng([8181, seed])
    J = int(r.integers(2, 7))
    ks = [int(r.integers(1, 6))]
    while len(ks) < J:
        nxt = 2 * ks[-1] + int(r.integers(1, 4))
        if nxt > 60:
            break
        ks.append(nxt)
    return Enumeration(ks)


def test_criterion_7_measure_chain():
    start = time.time()
    worst = 0.0
    for seed in range(200):
        e = _measure_enum(seed)
        hyp = "schur-riesz" if seed % 2 == 0 else "schur"
        mu = random_density_measure(e, hyp, M=sum(e.scalars()) + 1, seed=seed)
        rep = check_measure_bound(mu, e, hypothesis=hyp)
        assert rep.check() == [], (e.scalars(), seed)
        worst = max(worst, rep.ratio)
    for seed in range(50):
        e = _measure_enum(1000 + seed)
        mu = random_atomic_measure(e, "schur-riesz", M=sum(e.scalars()) + 1, seed=seed)
        rep = check_measure_bound(mu, e, hypothesis="schur-riesz")
        assert rep.check() == [], (e.scalars(), seed)
        worst = max(worst, rep.ratio)
    elapsed = time.time() - start
    assert worst <= 2 * SQRT2 + 1e-6
    assert elapsed < 120.0
    print(
        f"\n[acceptance] criterion 7 PASS (200 density + 50 atomic chains, "
        f"max ratio {worst:.6f} <= 2*sqrt2, {elapsed:.1f}s)"
    )


def test_criterion_8_lift_identity():
    start = time.time()
    rng = np.random.default_rng(31337)
    for trial in range(100):
        J = int(rng.integers(1, 7))
        gammas = [int(g) for g in rng.choice(np.arange(-60, 61), size=J, replace=False)]
        e = Enumeration(gammas)
        ok, witnesses = check_simple_s(e)
        assert ok, (gammas, witnesses[:3])
        # exhaustive projection property of lifted S membership
        base = {v[0] for v in s_set(e).members}
        for m in lifted_s_set(lift_enumeration(e)).members:
            assert m[0] in base
    elapsed = time.time() - start
    print(f"\n[acceptance] criterion 8 PASS (100 lifted enumerations, {elapsed:.1f}s)")


def test_criterion_9_determinism_across_workers():
    templates = [
        Instance(k=(2, 5, 11), forbidden="schur", M=24),
        Instance(k=(1, 3, 7), forbidden="outside-K-positive", M=16),
    ]
    r1 = run_campaign(templates, trials=5, master_seed=99, workers=1)
    r2 = run_campaign(templates, trials=5, master_seed=99, workers=2)
    assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)
    assert r1.ok
    print("\n[acceptance] criterion 9 PASS (identical reports for 1 and 2 workers)")
