"""Measure-level inequality chains and the product-group lift pipeline.

Two desk-scale measure models: finitely many atoms (total variation the sum
of |mass|) and densities against the uniform grid measure (total variation
the discrete L1 norm).  Convolving with the Riesz product of K keeps total
variation, halves nothing on K (coefficients stay >= 1/2 there) and produces
a function the projection replay certifies, giving the chain

    |mu-hat restricted to K|_2 <= 2 |f_K-hat|K|_2 <= 4 |f_K|_1 <= 4 |mu|.

The lift pipeline pairs frequencies with standard basis vectors, replays on
the product grid (three points per lifted axis suffice: all lifted
frequencies in play have coordinates in {-1,0,1}), and pulls the bound back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeOrder, is_strongly_lacunary, vec_scale
from .grid import GridFunction, GridSpec, auto_spec, norm_l1, synth
from .lab import schur_dsets
from .lift import (
    LiftedEnumeration,
    lift_enumeration,
    lifted_d_sets,
    lifted_riesz_support,
    lifted_schur_set,
    lifted_s_set,
)
from .proofkit import ProofTrace, replay, replay_group, replay_sets
from .riesz import riesz_expansion
from .sets import Enumeration, SetReport, Window, isin_rows, riesz_support, s_set, schur_set


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses at arbitrary (off-grid) locations."""

    atoms: tuple  # pairs (location tuple of floats, complex mass)

    def __init__(self, atoms):
        canon = []
        for loc, mass in atoms:
            loc = tuple(float(x) for x in (loc if hasattr(loc, "__iter__") else [loc]))
            canon.append((loc, complex(mass)))
        object.__setattr__(self, "atoms", tuple(canon))

    @property
    def dim(self) -> int:
        return len(self.atoms[0][0]) if self.atoms else 1

    @property
    def total_variation(self) -> float:
        return float(sum(abs(m) for _, m in self.atoms))

    def hat(self, ns) -> np.ndarray:
        """mu-hat at each frequency of `ns`, rows of `dim` ints.

        One pass per atom, vectorised over the frequencies.  Mass times
        e^{-i n.x} is formed from real and imaginary parts, so each entry
        gets the float operations of a per-frequency sum over the atoms, in
        the same order; numpy's vectorised complex product may fuse them.
        """
        freqs = np.asarray(ns, np.int64).reshape(-1, self.dim)
        out = np.zeros(len(freqs), complex)
        for loc, mass in self.atoms:
            phase = np.zeros(len(freqs))
            for c, x in zip(freqs.T, loc):
                phase = phase + c * x
            w = np.exp(-1j * phase)
            out.real += mass.real * w.real - mass.imag * w.imag
            out.imag += mass.real * w.imag + mass.imag * w.real
        return out


@dataclass(frozen=True)
class DensityMeasure:
    """Absolutely continuous measure d mu = f d(uniform)."""

    density: GridFunction

    @property
    def dim(self) -> int:
        return self.density.spec.ndim

    @property
    def total_variation(self) -> float:
        return norm_l1(self.density)

    def hat(self, ns) -> np.ndarray:
        """mu-hat at each frequency of `ns`, rows of `dim` ints: a gather
        from the density's FFT.  The density is a trig polynomial of
        windowed degree, so its transform vanishes beyond the window."""
        spec = self.density.spec
        freqs = np.asarray(ns, np.int64).reshape(-1, self.dim)
        inside = np.all(np.abs(freqs) <= spec.window_half, axis=1)
        return np.where(inside, self.density.hat()[tuple((freqs % spec.dims).T)], 0)


def riesz_convolve(mu, K, spec: GridSpec) -> GridFunction:
    """f_K = mu convolved with the Riesz product of K, sampled on `spec`.

    Coefficients are mu-hat(n) c(n) over the Riesz support; `synth` rejects
    a support that does not fit the window.  For a lifted K, whose
    frequencies (gamma, n) are longer than mu's, mu-hat is read at gamma:
    that is the transform of the lifted measure.
    """
    freqs, coeffs = riesz_expansion(K).spectrum()
    return synth((freqs, mu.hat(freqs[:, : mu.dim]) * coeffs), spec)


@dataclass(frozen=True, eq=False)
class MeasureChainReport:
    hypothesis: str
    hypothesis_members: np.ndarray  # (n, mu.dim) ints
    links: tuple  # triples (name, lhs, rhs); each asserts lhs <= rhs + slack
    ratio: float  # |mu-hat|K|_2 / |mu|
    trace: ProofTrace
    ceiling: float

    def check(self, tol: float = 1e-9) -> list[str]:
        out = []
        for name, lhs, rhs in self.links:
            if lhs > rhs * (1 + tol) + tol:
                out.append(f"chain link {name}: {lhs:.9e} > {rhs:.9e}")
        out.extend(self.trace.check(tol))
        if self.ratio > self.ceiling + 1e-6:
            out.append(f"measure ratio {self.ratio:.9f} exceeds ceiling {self.ceiling:.9f}")
        return out

    @property
    def ok(self) -> bool:
        return not self.check()

    def to_json(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "hypothesis_members": (
                self.hypothesis_members[:, 0] if self.hypothesis_members.shape[1] == 1
                else self.hypothesis_members
            ).tolist(),
            "links": [[n, a, b] for n, a, b in self.links],
            "ratio": self.ratio,
            "ceiling": self.ceiling,
            "trace": self.trace.to_json(),
        }


def _hypothesis_members(e: Enumeration, M: int, hypothesis: str) -> np.ndarray:
    """The hypothesis frequencies in [-M, M], sorted, as an (n, 1) array."""
    w = Window(-M, M)
    if hypothesis == "schur":
        return schur_set(e, w).array
    if hypothesis == "schur-riesz":
        schur = schur_set(e, w).array
        return schur[isin_rows(schur, riesz_support(e.entries).array)]
    if hypothesis == "negative":
        return np.arange(-M, 0).reshape(-1, 1)
    raise ValueError(f"unknown hypothesis selector {hypothesis!r}")


def _forbidden_frequencies(e: Enumeration, hypothesis: str, M: int) -> list[int]:
    """Sorted frequencies in [-M, M] where a random measure's mu-hat must vanish;
    hypothesis "s" is the lift's S((gamma_j))."""
    if hypothesis == "s":
        ms = s_set(e).array[:, 0]
        return ms[np.abs(ms) <= M].tolist()
    return _hypothesis_members(e, M, hypothesis)[:, 0].tolist()


def _measure_chain(mu, K, spec, hypothesis, members, replay_fk, c="4") -> MeasureChainReport:
    """The chain |mu-hat|K|_2 <= 2|f_K-hat|K|_2 <= 4|f_K|_1 <= 4|mu|.

    mu-hat must vanish on the hypothesis frequencies `members`; `replay_fk`
    replays f_K = mu * R_K (on `spec`) into the trace of the middle link.  A
    lifted K reads mu-hat at the gamma coordinate, as `riesz_convolve` does.
    `c` is how the link labels name the constant 4.
    """
    tv = mu.total_variation
    members = np.asarray(members, np.int64).reshape(-1, mu.dim)
    v = np.abs(mu.hat(members))
    bad = np.flatnonzero(v > 1e-10 * max(tv, 1e-300))
    if bad.size:
        m = tuple(members[bad[0]].tolist())
        raise ValueError(
            f"hypothesis violation: mu-hat({m[0] if len(m) == 1 else m}) = {v[bad[0]]:.3e}"
        )
    trace = replay_fk(riesz_convolve(mu, K, spec))
    gammas = np.array(K, np.int64)[:, : mu.dim]  # K in mu's coordinates
    mu_on_k = math.sqrt(sum(abs(z) ** 2 for z in mu.hat(gammas).tolist()))
    fk_on_k = trace.coeff_l2_on_k
    fk_l1 = trace.f_l1
    on_k = "lifted K" if len(K[0]) > mu.dim else "K"
    links = (
        (f"mu-hat on K vs 2 f_K-hat on {on_k}", mu_on_k, 2 * fk_on_k),
        (f"2 f_K-hat on {on_k} vs {c} |f_K|_1", 2 * fk_on_k, 4 * fk_l1),
        (f"{c} |f_K|_1 vs {c} |mu|", 4 * fk_l1, 4 * tv),
    )
    return MeasureChainReport(
        hypothesis=hypothesis,
        hypothesis_members=members,
        links=links,
        ratio=mu_on_k / tv,
        trace=trace,
        ceiling=2 * math.sqrt(2.0),
    )


def check_measure_bound(
    mu,
    e: Enumeration,
    hypothesis: str = "schur-riesz",
    M: int | None = None,
    N: int | None = None,
) -> MeasureChainReport:
    """Verify the measure chain for an increasing strongly lacunary K on Z.

    mu-hat must vanish on the hypothesis set inside the window; the middle
    chain link runs the projection replay on the Riesz convolution f_K.
    """
    ks = e.scalars()
    if not is_strongly_lacunary(ks):
        raise ValueError("measure chain requires a strongly lacunary increasing K")
    need = sum(map(abs, ks))  # the Riesz support reaches +-(k_1 + ... + k_J)
    if M is None:
        M = need
    if M < need:
        raise ValueError("window too small for the Riesz support")
    spec = auto_spec(M) if N is None else GridSpec((N,), (M,))
    return _measure_chain(
        mu, e.entries, spec, hypothesis, _hypothesis_members(e, M, hypothesis),
        lambda f_k: replay(
            f_k, e, mode="new", dsets=None if hypothesis == "negative" else schur_dsets(e)
        ),
    )


def lifted_grid(le: LiftedEnumeration, gamma_half: int) -> GridSpec:
    """Product grid: one gamma axis plus a three-point axis per lifted entry.

    Three points per axis separate all coefficient coordinates in {-1,0,1}.
    A subspace shift can push one coordinate to 2, which wraps to -1; that
    wrapped residue collides with a live support point exactly when
    3 gamma_j = 0 mod the gamma axis size, so such an axis (the gamma_j = 0
    one, in practice) is widened to four points to keep the wrap off the
    window.
    """
    n_gamma = auto_spec(gamma_half).dims[0]
    axis_sizes = tuple(
        4 if (3 * g) % n_gamma == 0 else 3 for g in le.gammas()
    )
    dims = (n_gamma,) + axis_sizes
    window = (gamma_half,) + (1,) * le.J
    return GridSpec(dims, window)


def check_measure_bound_via_lift(mu, e: Enumeration) -> MeasureChainReport:
    """The full lift pipeline for an arbitrary (unordered, non-lacunary) K.

    Requires mu-hat to vanish on S((gamma_j)); lifts, replays on the product
    grid against the lifted Schur sets, and pulls the bound back through
    |mu-tilde| = |mu| and mu-tilde-hat(gamma, n) = mu-hat(gamma).
    """
    le = lift_enumeration(e)
    pairs = le.pairs()
    J = le.J

    base_s = SetReport(lifted_s_set(le).array[:, 0], True).array
    dsets = lifted_d_sets(le)
    schur = lifted_schur_set(le).array.reshape(-1, 1 + J)
    gammas = np.array(le.gammas(), np.int64)
    # every gamma coordinate the replay reads: supports, D_j and D_j + k_j, k_{j+1}
    reach = [lifted_riesz_support(le).array[:, 0], schur[:, 0], gammas]
    for j, ds in enumerate(dsets):
        reach += [ds[:, 0] + g for g in (0, *gammas[j : j + 2])]
    gamma_need = int(np.abs(np.concatenate(reach)).max())
    spec = lifted_grid(le, gamma_need)
    forbidden = schur[np.all(np.abs(schur) <= spec.window_half, axis=1)]
    return _measure_chain(
        mu, pairs, spec, "s", base_s,
        lambda f_k: replay_sets(
            f_k,
            pairs,
            dsets,
            window_lo=(-gamma_need,) + (-1,) * J,
            window_hi=(gamma_need,) + (1,) * J,
            forbidden=forbidden,
        ),
    )


def random_density_measure(
    e: Enumeration,
    hypothesis: str,
    M: int,
    seed: int = 0,
    N: int | None = None,
) -> DensityMeasure:
    """Seeded density with mu-hat vanishing on the hypothesis set, nonzero on K."""
    spec = auto_spec(M) if N is None else GridSpec((N,), (M,))
    rng = np.random.default_rng([seed, 211])
    ns = np.arange(-M, M + 1)
    ns = ns[~np.isin(ns, _forbidden_frequencies(e, hypothesis, M))]
    coeffs = rng.standard_normal(2 * ns.size).view(complex)
    # the hypothesis wins where it overlaps K: those coefficients stay 0
    ks = np.array(e.scalars(), np.int64)
    at = np.searchsorted(ns, ks[np.isin(ks, ns)])
    weak = at[np.abs(coeffs[at]) < 1e-6]
    coeffs[weak] = 1.0 + 0.5j
    f = synth((ns[:, None], coeffs), spec)
    scale = norm_l1(f)
    return DensityMeasure(GridFunction(spec, f.samples / scale))


def random_atomic_measure(
    e: Enumeration,
    hypothesis: str,
    M: int,
    seed: int = 0,
    extra_atoms: int = 4,
) -> AtomicMeasure:
    """Random atoms whose masses solve the vanishing constraints.

    Given random locations, the masses are drawn from the null space of the
    constraint matrix e^{-i n y_i} over the hypothesis frequencies; the
    residual of every constraint must come out below 1e-10.
    """
    constraints = _forbidden_frequencies(e, hypothesis, M)
    rng = np.random.default_rng([seed, 73])
    n_atoms = len(constraints) + max(extra_atoms, 2)
    locs = rng.uniform(-np.pi, np.pi, size=n_atoms)
    if constraints:
        A = np.exp(-1j * np.outer(np.array(constraints, float), locs))
        _, s, vh = np.linalg.svd(A)
        null_dim = n_atoms - int(np.sum(s > s[0] * 1e-12)) if s.size else n_atoms
        if null_dim == 0:
            raise ValueError("no admissible masses for these atom locations")
        basis = vh.conj().T[:, n_atoms - null_dim :]
        weights = rng.standard_normal(null_dim) + 1j * rng.standard_normal(null_dim)
        masses = basis @ weights
        residual = float(np.max(np.abs(A @ masses)))
        if residual > 1e-10 * max(float(np.sum(np.abs(masses))), 1e-300):
            raise ValueError(f"vanishing constraints unsolved: residual {residual:.3e}")
    else:
        masses = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
    total = float(np.sum(np.abs(masses)))
    masses = masses / total
    return AtomicMeasure([((t,), m) for t, m in zip(locs, masses)])


def measure_bound_via_total_order(
    mu,
    e: Enumeration,
    cone: ConeOrder,
    spec: GridSpec,
) -> MeasureChainReport:
    """Reduction of a partial-order chain to the lex-last total order.

    When every cone generator is positive for the lex-last order, the cone
    imbeds in that total order, K stays strongly lacunary there, and the
    chain runs with the group replay's constant doubled.
    """
    total = ConeOrder("lex-last", dim=cone.dim)
    if cone.kind == "generators":
        for g in cone.generators:
            if not total.in_strict_cone(g):
                raise ValueError("cone does not imbed in the lex-last order")
    negatives = [v for v in spec.window_points() if total.in_strict_cone(vec_scale(-1, v))]
    return _measure_chain(
        mu, e.entries, spec, "negative-cone", negatives,
        lambda f_k: replay_group(f_k, e, total), c="2C",
    )
