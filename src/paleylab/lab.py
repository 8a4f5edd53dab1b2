"""Instance generation, inequality checking and verification campaigns.

An Instance names an enumeration, a forbidden-set selector, a grid and a
seed; `make_instance` draws a random spectrum supported off the forbidden
set (complex standard Gaussians, nonzero on K) and synthesizes it.  A
campaign replays many seeded instances, asserts every trace condition and
the theorem constant, and tracks the observed ratio ceiling.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, auto_spec, coeff, norm_l1, synth
from .proofkit import default_depth, replay
from .sets import Enumeration, SetReport, Window, alt_sum_set, d_set, s_set, schur_set

SQRT2 = math.sqrt(2.0)
SQRTE = math.sqrt(math.e)

SELECTORS = ("schur", "s", "alternating", "negative-halfline", "outside-K-positive", "custom")

#: replay mode and certified constant per selector; None means ratio-only
SELECTOR_MODE = {
    "schur": "new",
    "negative-halfline": "new",
    "outside-K-positive": "complementary",
    "s": None,
    "alternating": None,
    "custom": None,
}
SELECTOR_CONSTANT = {
    "schur": 2.0,
    "negative-halfline": 2.0,
    "outside-K-positive": 2.0,
    "alternating": 2.0,
    "s": 4.0,
    "custom": None,
}
#: observed-ratio ceilings from the sharp-constant remarks
SELECTOR_CEILING = {
    "schur": SQRT2,
    "negative-halfline": SQRT2,
    "outside-K-positive": SQRTE,
    "s": 2.0 * SQRT2,
    "alternating": None,
    "custom": None,
}


class HypothesisNotCertified(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    """Template for one random admissible function."""

    k: tuple
    forbidden: str
    M: int
    N: int | None = None
    seed: int = 0
    mode: str | None = "auto"
    custom_forbidden: tuple = ()

    def __post_init__(self):
        if self.forbidden not in SELECTORS:
            raise ValueError(f"unknown forbidden-set selector {self.forbidden!r}")
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        object.__setattr__(
            self, "custom_forbidden", tuple(int(x) for x in self.custom_forbidden)
        )

    @property
    def enumeration(self) -> Enumeration:
        return Enumeration(self.k)

    def grid(self) -> GridSpec:
        return auto_spec(self.M) if self.N is None else GridSpec((self.N,), (self.M,))

    def replay_mode(self) -> str | None:
        if self.mode == "auto":
            return SELECTOR_MODE[self.forbidden]
        return self.mode

    def to_json(self) -> dict:
        return {
            "k": list(self.k),
            "forbidden": self.forbidden,
            "M": self.M,
            "N": self.grid().dims[0],
            "seed": self.seed,
            "mode": self.mode,
            "custom_forbidden": list(self.custom_forbidden),
        }

    @staticmethod
    def from_json(d: dict) -> "Instance":
        return Instance(
            k=tuple(d["k"]),
            forbidden=d.get("forbidden", "negative-halfline"),
            M=int(d["M"]),
            N=d.get("N"),
            seed=int(d.get("seed", 0)),
            mode=d.get("mode", "auto"),
            custom_forbidden=tuple(d.get("custom_forbidden", ())),
        )


def forbidden_members(inst: Instance) -> SetReport:
    """The forbidden set inside [-M, M], exact or the instance is rejected."""
    e = inst.enumeration
    if inst.forbidden == "schur":
        return schur_set(e, Window(-inst.M, inst.M))
    if inst.forbidden == "negative-halfline":
        ms = np.arange(-inst.M, 0)
    elif inst.forbidden == "outside-K-positive":
        ms = np.arange(1, inst.M + 1)
        ms = ms[~np.isin(ms, inst.k)]
    elif inst.forbidden == "s":
        ms = s_set(e).array[:, 0]
    elif inst.forbidden == "alternating":
        ms = alt_sum_set(e).array[:, 0]
    else:  # listed values outside the window need not fit in int64
        ms = np.array([n for n in inst.custom_forbidden if abs(n) <= inst.M], np.int64)
    return SetReport(ms[np.abs(ms) <= inst.M], True)


def certified_forbidden(inst: Instance) -> np.ndarray:
    """The sorted forbidden frequencies inside [-M, M]; K must fit the window
    and the set must be exact and miss K, or the instance's hypothesis
    cannot be certified."""
    if max(abs(x) for x in inst.k) > inst.M:
        raise ValueError("enumeration exceeds the window")
    rep = forbidden_members(inst)
    if not rep.exact:
        raise HypothesisNotCertified("cannot certify hypothesis: forbidden set inexact")
    forbidden = rep.array[:, 0]
    overlap = forbidden[np.isin(forbidden, inst.k)]
    if overlap.size:
        raise ValueError(f"forbidden set overlaps K at {overlap.tolist()}")
    return forbidden


def instance_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), int(index)])


def make_instance(
    inst: Instance, rng: np.random.Generator | None = None, forbidden: np.ndarray | None = None
) -> GridFunction:
    """Draw the seeded random spectrum for an instance and synthesize it.

    The spectrum has independent complex standard Gaussian coefficients on
    the window minus the forbidden set, coefficients on K forced nonzero,
    and is scaled to unit discrete L1 norm.  `forbidden`, when given, is the
    template's `certified_forbidden` set.
    """
    if forbidden is None:
        forbidden = certified_forbidden(inst)
    if rng is None:
        rng = instance_rng(inst.seed, 0)
    spec = inst.grid()
    ns = np.arange(-inst.M, inst.M + 1)
    ns = ns[~np.isin(ns, forbidden)]
    # one draw of 2n normals gives the same stream as n pairs of scalar draws
    coeffs = rng.standard_normal(2 * ns.size).view(complex)
    at = np.searchsorted(ns, inst.k)
    if not ns.size or (ns[np.minimum(at, ns.size - 1)] != inst.k).any():
        raise KeyError("a frequency of K is forbidden or outside the window")
    for i in at.tolist():
        while abs(coeffs[i]) < 1e-6:
            coeffs[i] = complex(rng.standard_normal(), rng.standard_normal())
    f = synth((ns[:, None], coeffs), spec)
    scale = norm_l1(f)
    if scale == 0:
        raise ValueError("degenerate zero instance")
    return GridFunction(spec, f.samples / scale)


def check_ratio(f: GridFunction, K) -> float:
    """The inequality ratio: l2 mass of f-hat on K over the discrete L1 norm."""
    l1 = norm_l1(f)
    if l1 == 0:
        raise ValueError("zero function has no ratio")
    total = 0.0
    for k in K:
        total += abs(coeff(f, k)) ** 2
    return math.sqrt(total) / l1


@dataclass(frozen=True)
class CampaignReport:
    instances: int
    passes: int
    failures: int
    max_ratio: float
    worst_residual: float
    ceiling_ok: bool
    counterexamples: tuple
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.ceiling_ok

    def to_json(self, include_timing: bool = True) -> dict:
        out = {
            "instances": self.instances,
            "passes": self.passes,
            "failures": self.failures,
            "max_ratio": self.max_ratio,
            "worst_residual": self.worst_residual,
            "ceiling_ok": self.ceiling_ok,
            "counterexamples": list(self.counterexamples),
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


def schur_dsets(e: Enumeration) -> list[np.ndarray]:
    """The D_j member arrays of a Schur-hypothesis replay, one (n_j, 1)
    array per entry, complete inside [-depth, -1] with the default replay
    depth."""
    w = Window(-default_depth(e.scalars()), -1)
    return [d_set(j, e, w).array for j in range(1, e.J + 1)]


def replay_dsets(inst: Instance, mode: str) -> list[np.ndarray] | None:
    """The index sets a replay of `inst` in `mode` runs on: the Schur D_j
    lists for a new-mode replay of a Schur template, else None (the
    replay's own half-line sets)."""
    if mode == "new" and inst.forbidden == "schur":
        return schur_dsets(inst.enumeration)
    return None


def _template_sets(inst: Instance):
    """What `run_one` needs of a template alone: its certified forbidden set
    and its replay's index sets.  None when building them fails; `run_one`
    then rebuilds them and reports the error per instance."""
    try:
        return certified_forbidden(inst), replay_dsets(inst, inst.replay_mode())
    except Exception:
        return None


def run_one(inst: Instance, index: int, master_seed: int, tol: float = 1e-9, sets=None) -> dict:
    """Build one seeded instance, replay if a mode applies, check everything.
    `sets` is the template's `_template_sets`, built here when not given."""
    forbidden, dsets = sets or (None, None)
    rng = instance_rng(master_seed, index)
    f = make_instance(inst, rng, forbidden)
    violations: list[str] = []
    worst = 0.0
    mode = inst.replay_mode()
    trace_json = None
    if mode is not None:
        if sets is None:
            dsets = replay_dsets(inst, mode)
        trace = replay(f, inst.enumeration, mode=mode, dsets=dsets)
        violations.extend(trace.check(tol))
        worst = max(
            (
                max(
                    r.identity_residual,
                    r.membership_residual,
                    r.intertwining_residual,
                    r.orthogonality_residual,
                    r.b_two_projection_residual,
                )
                for r in trace.rows
            ),
            default=0.0,
        )
        trace_json = trace.to_json()
        ratio = trace.ratio
    else:
        ratio = check_ratio(f, [(k,) for k in inst.k])
    constant = SELECTOR_CONSTANT[inst.forbidden]
    if constant is not None and ratio > constant + tol:
        violations.append(f"ratio {ratio:.9f} exceeds constant {constant}")
    ceiling = SELECTOR_CEILING[inst.forbidden]
    ceiling_ok = ceiling is None or ratio <= ceiling + 1e-6
    if not ceiling_ok:
        violations.append(f"ratio {ratio:.9f} exceeds ceiling {ceiling:.9f}")
    record = {
        "index": index,
        "ratio": ratio,
        "worst_residual": worst,
        "ok": not violations,
        "violations": violations,
    }
    if violations:
        record["dump"] = failure_dump(inst, index, master_seed, f, trace_json)
    return record


def failure_dump(inst: Instance, index: int, master_seed: int, f: GridFunction, trace_json):
    """Replayable serialization of a failing instance."""
    hat = f.hat()
    n1 = f.spec.dims[0]
    spectrum = []
    for n in range(-inst.M, inst.M + 1):
        c = hat[n % n1]
        if abs(c) > 1e-15:
            spectrum.append([n, float(c.real), float(c.imag)])
    return {
        "template": inst.to_json(),
        "index": index,
        "master_seed": master_seed,
        "spectrum": spectrum,
        "trace": trace_json,
    }


def _pool_entry(args):
    inst_json, index, master_seed, sets = args
    inst = Instance.from_json(inst_json)
    try:
        return run_one(inst, index, master_seed, sets=sets)
    except Exception as exc:  # a broken template is a campaign failure, not a crash
        return {
            "index": index,
            "ratio": 0.0,
            "worst_residual": float("inf"),
            "ok": False,
            "violations": [f"instance error: {exc}"],
            "dump": {"template": inst.to_json(), "index": index, "master_seed": master_seed},
        }


def default_workers() -> int:
    env = os.environ.get("PALEY_LAB_WORKERS")
    if env:
        return max(1, int(env))
    return 1


def run_campaign(
    templates,
    trials: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> CampaignReport:
    """Seeded verification campaign over instance templates.

    Instance index i of template t uses the RNG stream (master_seed,
    t * trials + i), so reports are identical for any worker count.
    """
    start = time.time()
    if workers is None:
        workers = default_workers()
    jobs = []
    for t, template in enumerate(templates):
        inst_json = template.to_json()
        # built once per template and call: no set outlives the campaign
        sets = _template_sets(Instance.from_json(inst_json)) if trials else None
        for i in range(trials):
            jobs.append((inst_json, t * trials + i, master_seed, sets))
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(workers) as pool:
            records = pool.map(_pool_entry, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
    else:
        records = [_pool_entry(j) for j in jobs]
    records.sort(key=lambda r: r["index"])
    failures = [r for r in records if not r["ok"]]
    ceiling_ok = not any("ceiling" in v for r in records for v in r["violations"])
    return CampaignReport(
        instances=len(records),
        passes=len(records) - len(failures),
        failures=len(failures),
        max_ratio=max((r["ratio"] for r in records), default=0.0),
        worst_residual=max((r["worst_residual"] for r in records), default=0.0),
        ceiling_ok=ceiling_ok,
        counterexamples=tuple(r["dump"] for r in failures if "dump" in r),
        wall_time=time.time() - start,
    )
