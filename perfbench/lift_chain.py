"""Workload `lift-chain`: measure chains on Z and through the product-group lift.

One op is one chain.  A round holds `check_measure_bound` on density
measures under the `schur` and `schur-riesz` hypotheses for six fixed
strongly lacunary K (criterion-7 shapes), on four atomic measures, and
`check_measure_bound_via_lift` for four fixed arbitrary K with J = 3, 4
(density and atomic) and 5.  Every K is fixed, so every seed replays on grids
of the same shape; the seed draws the measures, in the set-up.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .harness import Op

CHAIN_K = [
    [1, 3, 7, 15],
    [2, 5, 11, 23, 47],
    [3, 8, 18, 38, 78],
    [1, 4, 9, 19, 40],
    [2, 5, 12, 26, 53, 108],
    [1, 3, 8, 17, 37, 77],
]
ATOMIC = [(0, "schur-riesz"), (1, "schur-riesz"), (3, "schur-riesz"), (0, "schur")]
# (K, measure type): arbitrary K whose lifted grid has the smallest gamma
# axis, 2·Σ|γ| + 2 before rounding up to a 5-smooth length
LIFTS = {
    "full": [([29, 13, 44], "density"), ([26, 17, 38, 11], "density"),
             ([17, -26, -11, 38], "atomic"), ([-9, 40, 14, 31, 23], "density")],
    "smoke": [([-13, 29, 44], "density"), ([5, 16, 9], "atomic")],
}


def _measure_data(mu):
    if hasattr(mu, "density"):
        return "density", mu.density.samples
    return "atomic", [(loc[0], m) for loc, m in mu.atoms]


def _chain_op(label, mu, gammas, call, lifted_s=None) -> Op:
    kind, data = _measure_data(mu)

    def check(report):
        on_k, tv = checks.measure_on_k_and_tv(kind, data, gammas)
        checks.check_chain(report.to_json(), report.check(), on_k, tv)
        if lifted_s is not None:
            checks.check_lift_projection(
                lifted_s(), checks.brute_s_set(gammas),
                [m[0] for m in report.hypothesis_members],
            )

    return Op(
        label=label,
        items=1,
        call=call,
        check=check,
        digest=lambda report: repr(report.to_json()),
    )


def build(seed: int, size: str, workdir) -> list[Op]:
    from paleylab import lift, measures
    from paleylab.sets import Enumeration

    rng = np.random.default_rng([8181, seed])
    ops = []
    chain_k = CHAIN_K if size == "full" else CHAIN_K[:2]
    for i, ks in enumerate(chain_k):
        e = Enumeration(ks)
        for hyp in ("schur", "schur-riesz"):
            mu = measures.random_density_measure(e, hyp, M=sum(ks) + 1, seed=int(rng.integers(2**31)))
            ops.append(_chain_op(
                f"density {hyp} k={ks}", mu, ks,
                lambda mu=mu, e=e, hyp=hyp: measures.check_measure_bound(mu, e, hypothesis=hyp),
            ))
    for i, hyp in ATOMIC if size == "full" else ATOMIC[:1]:
        ks = CHAIN_K[i]
        e = Enumeration(ks)
        mu = measures.random_atomic_measure(e, hyp, M=sum(ks) + 1, seed=int(rng.integers(2**31)))
        ops.append(_chain_op(
            f"atomic {hyp} k={ks}", mu, ks,
            lambda mu=mu, e=e, hyp=hyp: measures.check_measure_bound(mu, e, hypothesis=hyp),
        ))
    for gammas, kind in LIFTS[size]:
        e = Enumeration(gammas)
        draw = measures.random_density_measure if kind == "density" else measures.random_atomic_measure
        mu = draw(e, "s", sum(map(abs, gammas)), seed=int(rng.integers(2**31)))
        ops.append(_chain_op(
            f"lift {kind} J={len(gammas)} k={gammas}", mu, gammas,
            lambda mu=mu, e=e: measures.check_measure_bound_via_lift(mu, e),
            lifted_s=lambda e=e: lift.lifted_s_set(lift.lift_enumeration(e)).members,
        ))
    return ops
