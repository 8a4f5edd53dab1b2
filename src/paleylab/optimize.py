"""Projected gradient ascent for the extremal inequality ratio.

Maximizes the l2 coefficient mass on K over functions of unit discrete L1
norm whose spectrum avoids a forbidden set.  The nonsmooth L1 denominator is
smoothed as sqrt(|f|^2 + eps^2) for the ascent; reported ratios are always
recomputed unsmoothed.  The optimizer is a heuristic lower bound on the
extremal ratio and is never asserted against anything except the sharp
upper-bound ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .lab import Instance, certified_forbidden


EPSILON = 1e-6  # smoothing scale, times max |f|
STEP = 0.4
STEP_DECAY = 0.995


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 6
    iterations: int = 250
    seed: int = 0


@dataclass(frozen=True)
class OptimizeResult:
    best: GridFunction
    ratio: float
    log: tuple  # rows (restart, iteration, best_ratio_so_far, step)

    def log_csv(self) -> str:
        lines = ["restart,iteration,ratio,step"]
        for r in self.log:
            lines.append(f"{r[0]},{r[1]},{r[2]:.12f},{r[3]:.6g}")
        return "\n".join(lines) + "\n"


def _ratio_unsmoothed(c: np.ndarray, kmask: np.ndarray, spec_size: int) -> float:
    f = np.fft.ifft(c) * spec_size
    l1 = float(np.mean(np.abs(f)))
    if l1 == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(c[kmask]) ** 2)) / l1)


def optimize_ratio(
    inst: Instance,
    cfg: OptimizerConfig | None = None,
    warm_starts=(),
) -> OptimizeResult:
    """Best found ratio for an instance template's support constraints.

    Deterministic per seed; multi-restart; returns the best feasible iterate
    rescaled to unit L1 norm together with the monotone iteration log.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    forbidden = certified_forbidden(inst)
    spec = inst.grid()
    N = spec.dims[0]
    M = inst.M
    ns = np.arange(-M, M + 1)
    allowed = np.zeros(N, bool)
    allowed[ns[~np.isin(ns, forbidden)] % N] = True
    kmask = np.zeros(N, bool)
    for k in inst.k:
        kmask[k % N] = True

    log = []
    best_ratio = -1.0
    best_c = None
    starts = []
    for w in warm_starts:
        c0 = np.zeros(N, complex)
        for n, v in w.items():
            c0[int(n) % N] = v
        starts.append(c0)
    rng_master = np.random.default_rng([cfg.seed, inst.seed])
    while len(starts) < max(cfg.restarts, len(warm_starts) + 1):
        c0 = np.zeros(N, complex)
        c0[allowed] = rng_master.standard_normal(int(allowed.sum())) + 1j * rng_master.standard_normal(
            int(allowed.sum())
        )
        starts.append(c0)

    for restart, c in enumerate(starts):
        c = np.where(allowed, c, 0)
        if not np.any(np.abs(c[kmask]) > 0):
            c[kmask] = 1.0
        step = STEP
        for it in range(cfg.iterations):
            f = np.fft.ifft(c) * N
            absf = np.abs(f)
            eps = EPSILON * max(float(absf.max()), 1e-30)
            l1s = float(np.mean(np.sqrt(absf**2 + eps**2)))
            c = c / l1s  # scale invariance: work at smoothed norm 1
            f = f / l1s
            eps = eps / l1s
            smooth = np.sqrt(np.abs(f) ** 2 + eps**2)
            phi = float(np.sqrt(np.sum(np.abs(c[kmask]) ** 2)))
            if phi == 0:
                break
            # Wirtinger ascent direction of phi / smoothed-L1 at norm 1
            grad_num = np.where(kmask, c / phi, 0)
            grad_den = np.fft.fft(f / smooth) / N
            grad = np.where(allowed, grad_num - phi * grad_den, 0)
            c = c + step * grad
            step *= STEP_DECAY
            ratio = _ratio_unsmoothed(c, kmask, N)
            if ratio > best_ratio:
                best_ratio = ratio
                best_c = c.copy()
            log.append((restart, it, best_ratio, step))
    f = np.fft.ifft(best_c) * N
    scale = float(np.mean(np.abs(f)))
    best = GridFunction(spec, f / scale)
    return OptimizeResult(best, best_ratio, tuple(log))
