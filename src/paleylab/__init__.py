"""Exact desk-scale laboratory for lacunary coefficient inequalities.

Forbidden-set combinatorics (Schur, S, Riesz, alternating-sum and gap sets),
exact finite Fourier analysis on uniform grids, Riesz products in rational
arithmetic, nested-projection proof replays, inequality campaigns, measure
chains, and the product-group lift.
"""

from . import _blas
from .cones import (
    ConeOrder,
    ExtremeLacunarity,
    is_extremely_lacunary,
    is_strongly_lacunary,
    is_strongly_lacunary_ordered,
)
from .sets import (
    Enumeration,
    SetReport,
    Window,
    admissible_signs,
    alt_sum_set,
    check_inclusion_s_in_schur_riesz,
    d_set,
    g_set,
    preorder_less,
    riesz_support,
    s_set,
    schur_set,
    schur_set_via_gaps,
)
from .grid import GridFunction, GridSpec, auto_spec, coeff, norm_l1, norm_l2, synth
from .riesz import RieszExpansion, riesz_expansion, riesz_polynomial
from .proofkit import (
    Factorization,
    ProofTrace,
    factorize,
    replay,
    replay_group,
    replay_sets,
)
from .lab import CampaignReport, Instance, check_ratio, make_instance, run_campaign
from .optimize import OptimizerConfig, OptimizeResult, optimize_ratio
from .lift import (
    LiftedEnumeration,
    check_simple_s,
    lift_enumeration,
    lifted_d_sets,
    lifted_riesz_support,
    lifted_s_set,
    lifted_schur_set,
)
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    check_measure_bound,
    check_measure_bound_via_lift,
    measure_bound_via_total_order,
    random_atomic_measure,
    random_density_measure,
    riesz_convolve,
)

_blas.pin_one_thread()

__all__ = [
    "AtomicMeasure",
    "CampaignReport",
    "ConeOrder",
    "DensityMeasure",
    "Enumeration",
    "ExtremeLacunarity",
    "Factorization",
    "GridFunction",
    "GridSpec",
    "Instance",
    "LiftedEnumeration",
    "OptimizeResult",
    "OptimizerConfig",
    "ProofTrace",
    "RieszExpansion",
    "SetReport",
    "Window",
    "admissible_signs",
    "alt_sum_set",
    "auto_spec",
    "check_inclusion_s_in_schur_riesz",
    "check_measure_bound",
    "check_measure_bound_via_lift",
    "check_ratio",
    "check_simple_s",
    "coeff",
    "d_set",
    "factorize",
    "g_set",
    "is_extremely_lacunary",
    "is_strongly_lacunary",
    "is_strongly_lacunary_ordered",
    "lift_enumeration",
    "lifted_d_sets",
    "lifted_riesz_support",
    "lifted_s_set",
    "lifted_schur_set",
    "make_instance",
    "measure_bound_via_total_order",
    "norm_l1",
    "norm_l2",
    "optimize_ratio",
    "preorder_less",
    "random_atomic_measure",
    "random_density_measure",
    "replay",
    "replay_group",
    "replay_sets",
    "riesz_convolve",
    "riesz_expansion",
    "riesz_polynomial",
    "riesz_support",
    "run_campaign",
    "s_set",
    "schur_set",
    "schur_set_via_gaps",
    "synth",
]
