import math

import numpy as np
import pytest

from paleylab.grid import norm_l1
from paleylab.lab import Instance, check_ratio
from paleylab.optimize import OptimizerConfig, optimize_ratio


def test_single_character_reaches_one():
    inst = Instance(k=(4,), forbidden="custom", M=8, custom_forbidden=())
    res = optimize_ratio(inst, OptimizerConfig(restarts=4, iterations=200, seed=1))
    assert res.ratio >= 1 - 1e-3
    assert res.ratio <= 1 + 1e-9  # a single coefficient never beats the L1 norm


def test_result_is_feasible_and_consistent():
    inst = Instance(k=(2, 5, 11), forbidden="schur", M=24)
    res = optimize_ratio(inst, OptimizerConfig(restarts=3, iterations=150, seed=2))
    assert abs(norm_l1(res.best) - 1) < 1e-9
    assert abs(check_ratio(res.best, [2, 5, 11]) - res.ratio) < 1e-6
    assert res.ratio <= math.sqrt(2) + 1e-6


def test_enumeration_outside_window_rejected():
    # on the 10-point grid of M = 4, k = 11 would alias onto frequency 1
    inst = Instance(k=(2, 5, 11), forbidden="negative-halfline", M=4)
    with pytest.raises(ValueError, match="exceeds the window"):
        optimize_ratio(inst, OptimizerConfig(restarts=1, iterations=5))


def test_iteration_log_monotone():
    inst = Instance(k=(2, 5), forbidden="negative-halfline", M=12)
    res = optimize_ratio(inst, OptimizerConfig(restarts=2, iterations=80, seed=3))
    best = -1.0
    for _, _, ratio, _ in res.log:
        assert ratio >= best - 1e-15
        best = max(best, ratio)
    csv = res.log_csv()
    assert csv.splitlines()[0] == "restart,iteration,ratio,step"


def test_deterministic_per_seed():
    inst = Instance(k=(2, 5), forbidden="schur", M=12)
    cfg = OptimizerConfig(restarts=2, iterations=60, seed=7)
    a = optimize_ratio(inst, cfg)
    b = optimize_ratio(inst, cfg)
    assert a.ratio == b.ratio
    assert a.log == b.log


def test_monotone_in_forbidden_set():
    # enlarging the forbidden set never increases the achievable ratio: the
    # S-set run is warm-started with the Schur winner's spectrum restricted
    # to its support, which stays feasible for the smaller forbidden set
    cfg = OptimizerConfig(restarts=3, iterations=120, seed=5)
    big = Instance(k=(2, 5, 11), forbidden="schur", M=24)
    small = Instance(k=(2, 5, 11), forbidden="s", M=24)
    res_big = optimize_ratio(big, cfg)
    hat = res_big.best.hat()
    ns = np.arange(-big.M, big.M + 1)
    coeffs = hat[ns % hat.size]
    keep = np.abs(coeffs) > 1e-15 * np.abs(hat).max()
    warm = dict(zip(ns[keep].tolist(), coeffs[keep].tolist()))
    res_small = optimize_ratio(small, cfg, warm_starts=[warm])
    assert res_small.ratio >= res_big.ratio - 1e-6


def test_ceilings_across_configs():
    for k, forbidden in (((2, 5, 11), "schur"), ((1, 3, 7), "negative-halfline")):
        inst = Instance(k=k, forbidden=forbidden, M=16)
        res = optimize_ratio(inst, OptimizerConfig(restarts=3, iterations=150, seed=11))
        assert res.ratio <= math.sqrt(2) + 1e-6
