"""Workload `exact-sets`: criterion-2 set draws and exact Riesz expansions.

A draw does what criterion 2 of the acceptance suite does: both Schur routes
over the full window [-W, 0], `g_set(j)` for every j over the shifted full
window [-W + Δk_j, Δk_j], `g_set` and `d_set` for every j over the capped
window [-min(W, 20000), 0], `s_set` and `riesz_support`.  A round holds:

* criterion 2's own draw at the 10^6 window scale (J = 8, K fixed);
* 8 typical draws at the 10^4 scale (J = 6), drawn from the seed;
* 4 small draws (J = 2..4), drawn from the seed, whose Schur sets are also
  enumerated by brute force over sign vectors;
* `riesz_expansion` for |K| = 10, 11, 12 and 13.

Typical draws follow criterion 2's chain built downward from the top of the
window, with smaller seeded steps, but their two lowest entries are 1 and 3
and their third is even, so the Schur set fills its window and a draw's cost
follows its window size alone.  With freely drawn low entries a draw's
member count, and its time with it, swings by up to 2x between seeds.  The
Riesz sets are the acceptance suite's criterion-6 chain (k_{j+1} = 2 k_j + 1
+ j from 3) times a seeded factor, which keeps every support size, and so the
cost, the same for every seed.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .harness import Op

CAP = 20_000
SIZES = {
    # (wide K, typical count, typical top, small count, Riesz sizes)
    # criterion 2's draw at the 10^6 scale (its seed 0), and a tenth-size copy
    "full": ([3930, 12265, 28038, 59834, 121105, 245840, 495979, 993257],
             8, 10**4, 4, (10, 11, 12, 13)),
    "smoke": ([39, 122, 280, 598, 1211, 2458, 4959, 9932], 2, 2000, 2, (6, 7)),
}
BRUTE_VECTORS = 30_000  # sign vectors per brute-force enumeration, at most
PERIOD = 1_000_003  # Riesz products are evaluated at t = 2π p / PERIOD


def dense_chain(rng, J: int, top: int) -> list[int]:
    """Strongly lacunary chain down from ~top, ending in ..., even, 3, 1.

    Each entry is the one above it less a seeded step, halved, as in
    criterion 2; the step is at most 1/16 of the entry, so that the sets'
    block structure, and with it a draw's cost, is the same for every seed.
    """
    ks = [top - int(rng.integers(0, top // 100))]
    while len(ks) < J - 2:
        k = ks[-1]
        ks.append((k - int(rng.integers(1, min(k // 16, 5000) + 1))) // 2)
    ks[-1] -= ks[-1] % 2  # one odd gap, so the set is not confined to one parity
    return [1, 3] + ks[::-1]


def small_chain(rng) -> list[int]:
    J = int(rng.integers(2, 5))
    ks = [int(rng.integers(1, 7))]
    while len(ks) < J:
        ks.append(2 * ks[-1] + int(rng.integers(1, max(2, ks[-1]))))
    return ks


def riesz_set(n: int, scale: int) -> list[int]:
    ks = [3]
    while len(ks) < n:
        ks.append(2 * ks[-1] + 1 + len(ks))
    return [scale * k for k in ks]


def _array(report) -> np.ndarray:
    return np.fromiter((m[0] for m in report.members), dtype=np.int64,
                       count=len(report.members))


def _ints(report) -> list[int]:
    return [m[0] for m in report.members]


def brute_window(ks) -> tuple[int, int] | None:
    """A window [lo, -1] whose sign-vector search fits BRUTE_VECTORS, with
    the coefficient bound the exactness argument of `schur_set` needs."""
    J = len(ks)
    bound = 1
    while (2 * bound + 3) ** J <= BRUTE_VECTORS:
        bound += 1
    min_gap = min(b - a for a, b in zip(ks, ks[1:]))
    lo = max(-ks[-1], ks[-1] - (bound - 1) * min_gap)
    return (lo, bound) if lo <= -1 else None


def _draw_op(label, ks, sets, brute=False) -> Op:
    e = sets.Enumeration(ks)
    W = ks[-1]
    dks = [b - a for a, b in zip(ks, ks[1:])]  # Δk_j, j = 1..J-1
    V = min(W, CAP)

    def call():
        full = sets.Window(-W, 0)
        return (
            sets.schur_set(e, full),
            sets.schur_set_via_gaps(e, full),
            [sets.g_set(j, e, sets.Window(-W + dk, dk)) for j, dk in enumerate(dks, 1)],
            [sets.g_set(j, e, sets.Window(-V, 0)) for j in range(1, e.J)],
            [sets.d_set(j, e, sets.Window(-V, -1)) for j in range(1, e.J + 1)],
            sets.s_set(e),
            sets.riesz_support(ks),
        )

    def check(out):
        dp, gaps, g_fulls, g_caps, d_caps, s, riesz = out
        checks.require(dp.exact and gaps.exact, "a Schur report is not exact")
        schur = _array(dp)
        checks.check_schur_routes(schur, _array(gaps))
        if brute:
            lo, bound = brute_window(ks)
            brute_members = checks.brute_schur(ks, lo, -1, bound)
            checks.check_against_brute(schur, lo, -1, brute_members)
        checks.check_draw(
            ks, W, schur, [_array(g) for g in g_fulls], dks,
            [_array(g) for g in g_caps], [_array(d) for d in d_caps],
            _ints(s), _ints(riesz),
        )

    def digest(out):
        dp, gaps, g_fulls, g_caps, d_caps, s, riesz = out
        return tuple(hash(r.members) for r in [dp, gaps, s, riesz, *g_fulls, *g_caps, *d_caps])

    return Op(label=label, items=1, call=call, check=check, digest=digest)


def _riesz_op(ks, riesz, phases) -> Op:
    def check(expansion):
        checks.check_riesz(ks, expansion.numerators, expansion.exp2, phases, PERIOD)

    return Op(
        label=f"riesz_expansion |K|={len(ks)}",
        items=1,
        call=lambda: riesz.riesz_expansion(ks),
        check=check,
        digest=lambda expansion: hash(frozenset(expansion.numerators.items())),
    )


def build(seed: int, size: str, workdir) -> list[Op]:
    from paleylab import riesz, sets

    wide, n_typical, typical_top, n_small, riesz_sizes = SIZES[size]
    rng = np.random.default_rng([20240808, seed])
    ops = [_draw_op(f"wide draw k={wide}", wide, sets)]
    for i in range(n_typical):
        ops.append(_draw_op(f"typical draw {i}", dense_chain(rng, 6, typical_top), sets))
    for i in range(n_small):
        ks = small_chain(rng)
        while brute_window(ks) is None:
            ks = small_chain(rng)
        ops.append(_draw_op(f"small draw {i} k={ks}", ks, sets, brute=True))
    scale = int(rng.integers(1, 100))
    phases = [int(p) for p in rng.integers(1, PERIOD, size=8)]
    for n in riesz_sizes:
        ops.append(_riesz_op(riesz_set(n, scale), riesz, phases))
    return ops
