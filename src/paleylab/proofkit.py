"""Nested-projection proof replays on finite grids.

Each replay runs a two-term splitting a_j + b_j of the lacunary coefficients
through explicitly constructed subspaces and reports every identity and
estimate as a computed residual.  Modes:

* "new": subspaces spanned by modulates of a factor h of f, with generator
  index sets D_j that are either the half-line tails {n < -k_j} or supplied
  generalized sets; hypothesis is that f-hat vanishes on the union of the
  shifted sets (window negatives, or the Schur set).
* "classic": subspaces spanned by bare characters; requires an analytic
  factorization (g-hat vanishing on negatives, h-hat on positives).
* "complementary": increasing subspaces over the finite index blocks
  [-k_j, 0); hypothesis is vanishing at positive frequencies outside K.

Index sets are truncated to the grid, so the projections Q_j onto the
modulated images are built per shift (which makes the intertwining with the
P_j exact by construction), while the nesting conditions are verified at the
set level, where they are exact statements about the untruncated sets.  The
residual range defect of the truncated Q nest is reported as a diagnostic but
is not one of the certified quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeOrder, Vec, as_vec, vec_add, vec_scale, vec_sub
from .grid import GridFunction, GridSpec, grid_character, norm_l1, norm_l2
from .sets import Enumeration

SVD_RELATIVE_THRESHOLD = 1e-10
HYPOTHESIS_TOLERANCE = 1e-12


class HypothesisViolation(ValueError):
    pass


class SupportViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Measurable factorization f = g * conj(h) with |g| = |h| pointwise."""

    g: GridFunction
    h: GridFunction

    def residuals(self, f: GridFunction) -> tuple[float, float]:
        """Max pointwise defects of |g| = |h| and g conj(h) = f (relative)."""
        scale = max(float(np.max(np.abs(f.samples))), 1e-300)
        mod = float(np.max(np.abs(np.abs(self.g.samples) - np.abs(self.h.samples))))
        prod = float(
            np.max(np.abs(self.g.samples * np.conj(self.h.samples) - f.samples))
        )
        return mod / np.sqrt(scale), prod / scale


def factorize(f: GridFunction) -> Factorization:
    """Canonical choice h = sqrt|f|, g = f / sqrt|f|, both zero where f is."""
    absf = np.abs(f.samples)
    root = np.sqrt(absf)
    safe = np.where(absf > 0, root, 1.0)
    g = np.where(absf > 0, f.samples / safe, 0.0)
    h = np.where(absf > 0, root, 0.0)
    return Factorization(GridFunction(f.spec, g), GridFunction(f.spec, h.astype(complex)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class _ZeroSpace:
    dim = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.zeros_like(v)


class _FullSpace:
    def __init__(self, dim):
        self.dim = dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v.copy()


class _BasisSpace:
    """Orthonormal column basis of span{carrier * char(n) : n in ns}."""

    def __init__(self, spec: GridSpec, ns, carrier: np.ndarray | None):
        self.spec = spec
        self.ns = [as_vec(n) for n in ns]
        if not self.ns:
            self.dim = 0
            self.basis = np.zeros((spec.size, 0), complex)
            self.basis_h = self.basis.conj().T
            return
        cols = np.empty((spec.size, len(self.ns)), complex)
        for i, n in enumerate(self.ns):
            char = grid_character(spec, n)
            col = char if carrier is None else carrier * char
            cols[:, i] = col.ravel()
        m = cols.shape[1]
        if spec.size * m * m <= 50_000_000 or m < 8:
            u, s, _ = np.linalg.svd(cols, full_matrices=False)
            rank = int(np.sum(s > s[0] * SVD_RELATIVE_THRESHOLD)) if s.size else 0
            self.basis = u[:, :rank]
        else:
            # tall case: eigendecompose the Gram matrix (same singular spectrum,
            # much cheaper), then polish orthonormality with one small Cholesky
            # correction without changing the span.
            gram = cols.conj().T @ cols
            eigvals, eigvecs = np.linalg.eigh(gram)
            smax = float(np.sqrt(max(eigvals[-1], 0.0)))
            floor = max(smax * SVD_RELATIVE_THRESHOLD, smax * 1e-8 * np.sqrt(m))
            keep = np.sqrt(np.clip(eigvals, 0, None)) > floor
            sub = cols @ (eigvecs[:, keep] / np.sqrt(eigvals[keep]))
            g2 = sub.conj().T @ sub
            chol = np.linalg.cholesky(g2)
            self.basis = sub @ np.linalg.inv(chol).conj().T
        self.basis_h = self.basis.conj().T
        self.dim = self.basis.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(v)
        out = self.basis @ (self.basis_h @ v.ravel())
        return out.reshape(v.shape)


class _MaskSpace:
    """Spectral subspace span{char(n) : n in ns}; projection is an FFT mask."""

    def __init__(self, spec: GridSpec, ns):
        self.spec = spec
        mask = np.zeros(spec.dims, bool)
        for n in ns:
            mask[tuple(c % d for c, d in zip(as_vec(n), spec.dims))] = True
        self.mask = mask
        self.dim = int(mask.sum())

    def apply(self, v: np.ndarray) -> np.ndarray:
        hat = np.fft.fftn(v)
        hat[~self.mask] = 0
        return np.fft.ifftn(hat)


# ---------------------------------------------------------------------------
# proof trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceRow:
    j: int
    k: Vec
    a: complex
    b: complex
    target: complex
    identity_residual: float
    membership_residual: float
    intertwining_residual: float
    orthogonality_residual: float
    b_two_projection_residual: float

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "k": self.k[0] if len(self.k) == 1 else list(self.k),
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "target": [self.target.real, self.target.imag],
            "identity_residual": self.identity_residual,
            "membership_residual": self.membership_residual,
            "intertwining_residual": self.intertwining_residual,
            "orthogonality_residual": self.orthogonality_residual,
            "b_two_projection_residual": self.b_two_projection_residual,
        }


@dataclass(frozen=True)
class ProofTrace:
    """Self-contained numerical evidence for one replay."""

    mode: str
    ks: tuple
    rows: tuple
    sum_a_sq: float
    sum_b_sq: float
    g_norm_sq: float
    h_norm_sq: float
    f_l1: float
    f_l2: float
    coeff_l2_on_k: float
    certified_constant: float
    ratio: float
    nesting_p_ok: bool
    nesting_q_ok: bool
    membership_ok: bool
    factorization_residuals: tuple
    q_nest_range_defect: float
    depth: int

    def check(self, tol: float = 1e-9) -> list[str]:
        """Violated trace conditions (empty list means the replay certifies)."""
        out = []
        gh = self.g_norm_sq * self.h_norm_sq
        scale = max(self.f_l2, 1e-300)
        for r in self.rows:
            if r.identity_residual > tol * scale:
                out.append(f"identity residual at j={r.j}: {r.identity_residual:.3e}")
            if r.membership_residual > tol:
                out.append(f"membership residual at j={r.j}: {r.membership_residual:.3e}")
            if r.intertwining_residual > tol:
                out.append(f"intertwining residual at j={r.j}: {r.intertwining_residual:.3e}")
            if r.orthogonality_residual > tol * scale:
                out.append(f"orthogonality residual at j={r.j}: {r.orthogonality_residual:.3e}")
            if r.b_two_projection_residual > tol * scale:
                out.append(
                    f"b two-projection residual at j={r.j}: {r.b_two_projection_residual:.3e}"
                )
        if self.sum_a_sq > gh * (1 + tol) + tol:
            out.append(f"sum |a_j|^2 = {self.sum_a_sq:.6e} exceeds |g|^2 |h|^2 = {gh:.6e}")
        if self.sum_b_sq > gh * (1 + tol) + tol:
            out.append(f"sum |b_j|^2 = {self.sum_b_sq:.6e} exceeds |g|^2 |h|^2 = {gh:.6e}")
        if not self.nesting_p_ok:
            out.append("set-level nesting of the D_j failed")
        if not self.nesting_q_ok:
            out.append("set-level nesting of the shifted sets failed")
        if not self.membership_ok:
            out.append("set-level membership k_j in k_{j+1} + D_j failed")
        if self.coeff_l2_on_k > np.sqrt(self.sum_a_sq) + np.sqrt(self.sum_b_sq) + tol * scale:
            out.append("coefficient mass on K exceeds the two-term bound")
        if self.ratio > self.certified_constant + tol:
            out.append(f"ratio {self.ratio:.9f} exceeds {self.certified_constant}")
        return out

    @property
    def ok(self) -> bool:
        return not self.check()

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "k": [k[0] if len(k) == 1 else list(k) for k in self.ks],
            "rows": [r.to_json() for r in self.rows],
            "sum_a_sq": self.sum_a_sq,
            "sum_b_sq": self.sum_b_sq,
            "g_norm_sq": self.g_norm_sq,
            "h_norm_sq": self.h_norm_sq,
            "f_l1": self.f_l1,
            "f_l2": self.f_l2,
            "coeff_l2_on_k": self.coeff_l2_on_k,
            "certified_constant": self.certified_constant,
            "ratio": self.ratio,
            "nesting_p_ok": self.nesting_p_ok,
            "nesting_q_ok": self.nesting_q_ok,
            "membership_ok": self.membership_ok,
            "factorization_residuals": list(self.factorization_residuals),
            "q_nest_range_defect": self.q_nest_range_defect,
            "depth": self.depth,
        }


# ---------------------------------------------------------------------------
# replay internals
# ---------------------------------------------------------------------------

def _basis_inner_max(space, demodulated: np.ndarray, size: int, spec) -> float:
    """Largest |(v, basis vector)| over an orthonormal basis of the space."""
    if isinstance(space, _BasisSpace):
        if space.dim == 0:
            return 0.0
        return float(np.max(np.abs(space.basis_h @ demodulated.ravel())) / np.sqrt(size))
    if isinstance(space, _MaskSpace):
        hat = np.fft.fftn(demodulated.reshape(spec.dims)) / size
        return float(np.max(np.abs(hat[space.mask]))) if space.dim else 0.0
    return 0.0


def _ip(a: np.ndarray, b: np.ndarray, size: int) -> complex:
    return complex(np.vdot(b, a) / size)


def _n2(a: np.ndarray, size: int) -> float:
    return float(np.sqrt(max(np.vdot(a, a).real / size, 0.0)))


def _hat_at(hat: np.ndarray, dims, n) -> complex:
    return complex(hat[tuple(c % d for c, d in zip(as_vec(n), dims))])


def _check_support_and_hypothesis(f: GridFunction, forbidden, f_l2, label):
    """Support inside the window; f-hat vanishing on the forbidden residues."""
    hat = f.hat()
    spec = f.spec
    outside = np.where(spec.window_mask(), 0.0, np.abs(hat))
    if outside.max() > HYPOTHESIS_TOLERANCE * max(f_l2, 1e-300):
        idx = np.unravel_index(int(np.argmax(outside)), spec.dims)
        rep = tuple(int(c) if c <= d // 2 else int(c) - d for c, d in zip(idx, spec.dims))
        raise SupportViolation(f"spectrum extends outside the window at {rep}")
    for n in forbidden:
        idx = tuple(c % d for c, d in zip(as_vec(n), spec.dims))
        if abs(hat[idx]) > HYPOTHESIS_TOLERANCE * max(f_l2, 1e-300):
            raise HypothesisViolation(
                f"{label}: coefficient at forbidden frequency "
                f"{n[0] if len(as_vec(n)) == 1 else n} is {abs(hat[idx]):.3e}"
            )


def _windowed_set_flags(ks, dsets, box_lo, box_hi):
    """Set-level membership, antinesting and shifted-nesting for windowed sets.

    The member lists are complete inside the box [box_lo, box_hi], so the
    shifted-nest condition D_{j-1} + k_j ⊆ D_j + k_{j+1} is checked through
    its preimage: whenever m + k_j - k_{j+1} lies inside the box it must be a
    listed member of D_j; preimages outside the box are undecidable from the
    windowed data and skipped.
    """
    J = len(ks)
    sets = [set(d) for d in dsets]
    membership = all(vec_sub(ks[j], ks[j + 1]) in sets[j] for j in range(J - 1))
    antinest = all(sets[j + 1] <= sets[j] for j in range(J - 1))
    gnest = True
    for j in range(1, J - 1):
        for m in sets[j - 1]:
            pre = vec_sub(vec_add(m, ks[j]), ks[j + 1])
            inside = all(a <= c <= b for a, c, b in zip(box_lo, pre, box_hi))
            if inside and pre not in sets[j]:
                gnest = False
    return membership, antinest, gnest


def _cone_set_flags(ks, dsets, order: ConeOrder):
    """Set-level conditions decided by the order predicate itself."""
    J = len(ks)
    membership = all(
        vec_sub(ks[j], ks[j + 1]) in set(dsets[j]) for j in range(J - 1)
    )
    antinest = all(
        order.in_strict_cone(vec_sub(vec_scale(-1, ks[j]), v)) for j in range(J - 1) for v in dsets[j + 1]
    )
    gnest = all(
        order.in_strict_cone(
            vec_sub(vec_scale(-1, ks[j]), vec_sub(vec_add(v, ks[j]), ks[j + 1]))
        )
        for j in range(1, J - 1)
        for v in dsets[j - 1]
    )
    return membership, antinest, gnest


def _two_step_trace(f, e_ks, dsets, carrier, gfun, hfun, mode, depth, forbidden, flags):
    """Shared two-step machinery for the "new" and "classic" modes."""
    spec = f.spec
    size = spec.size
    J = len(e_ks)
    f_l2 = norm_l2(f)
    _check_support_and_hypothesis(f, forbidden, f_l2, f"mode {mode}")

    hat = f.hat()
    g, h = gfun.samples, hfun.samples

    make = (lambda ns: _MaskSpace(spec, ns)) if carrier is None else (
        lambda ns: _BasisSpace(spec, ns, carrier)
    )
    Ls = [make(ds) for ds in dsets]
    Qs: list = [None] * (J + 1)
    Qs[0] = _ZeroSpace()
    for j in range(1, J):
        Qs[j] = make([vec_add(n, e_ks[j]) for n in dsets[j - 1]])
    Qs[J] = _FullSpace(size)

    chars = [grid_character(spec, k) for k in e_ks]
    a = np.zeros(J, complex)
    b = np.zeros(J, complex)
    rows = []
    qg = [Qs[j].apply(g) for j in range(J + 1)]
    for j in range(1, J + 1):
        Ajh = chars[j - 1] * h
        a[j - 1] = _ip(qg[j] - qg[j - 1], Ajh, size)
        b[j - 1] = _ip(qg[j - 1], Ajh, size)
        target = _hat_at(hat, spec.dims, e_ks[j - 1])
        identity = abs(a[j - 1] + b[j - 1] - target)
        mem = _n2(Ajh - Qs[j].apply(Ajh), size) if j < J else 0.0
        inter = 0.0
        btwo = 0.0
        if j >= 2:
            Pjm1_h = Ls[j - 2].apply(h)
            inter = _n2(chars[j - 1] * Pjm1_h - Qs[j - 1].apply(Ajh), size)
            Pj_h = Ls[j - 1].apply(h)
            btwo = abs(b[j - 1] - _ip(g, chars[j - 1] * (Pjm1_h - Pj_h), size))
        # g against the actual basis vectors of A_j L_j = char_j * L_j
        orth = max(
            (abs(_hat_at(hat, spec.dims, vec_add(n, e_ks[j - 1]))) for n in dsets[j - 1]),
            default=0.0,
        )
        demod = (g * np.conj(chars[j - 1])).ravel()
        orth = max(orth, _basis_inner_max(Ls[j - 1], demod, size, spec))
        rows.append(
            TraceRow(j, e_ks[j - 1], a[j - 1], b[j - 1], target, identity, mem, inter, orth, btwo)
        )

    qdefect = 0.0
    for j in range(2, J):
        qdefect = max(qdefect, _n2(qg[j - 1] - Qs[j].apply(qg[j - 1]), size))

    return _assemble_trace(
        f, mode, e_ks, rows, a, b, f_l2, flags, Factorization(gfun, hfun), qdefect, depth
    )


def _assemble_trace(f, mode, ks, rows, a, b, f_l2, flags, fac, qdefect, depth) -> ProofTrace:
    """The ProofTrace of a finished two-step replay; flags are the set-level
    (membership, D_j nesting, shifted-set nesting) verdicts."""
    size = f.spec.size
    hat = f.hat()
    on_k = float(np.sqrt(sum(abs(_hat_at(hat, f.spec.dims, k)) ** 2 for k in ks)))
    l1 = norm_l1(f)
    if l1 == 0:
        raise ValueError("zero function has no ratio")
    membership_ok, nesting_p_ok, nesting_q_ok = flags
    return ProofTrace(
        mode=mode,
        ks=tuple(ks),
        rows=tuple(rows),
        sum_a_sq=float(np.sum(np.abs(a) ** 2)),
        sum_b_sq=float(np.sum(np.abs(b) ** 2)),
        g_norm_sq=_n2(fac.g.samples, size) ** 2,
        h_norm_sq=_n2(fac.h.samples, size) ** 2,
        f_l1=l1,
        f_l2=f_l2,
        coeff_l2_on_k=on_k,
        certified_constant=2.0,
        ratio=on_k / l1,
        nesting_p_ok=nesting_p_ok,
        nesting_q_ok=nesting_q_ok,
        membership_ok=membership_ok,
        factorization_residuals=fac.residuals(f),
        q_nest_range_defect=qdefect,
        depth=depth,
    )


def default_depth(ks: list[int]) -> int:
    """Floor of the half-line index sets and window depth of the Schur D_j
    lists: one past the largest gap (one past max(k_1, 1) when J = 1)."""
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    return (max(gaps) if gaps else max(ks[0], 1)) + 1


def replay(
    f: GridFunction,
    e: Enumeration,
    mode: str = "new",
    dsets=None,
    factorization: Factorization | None = None,
    depth: int | None = None,
) -> ProofTrace:
    """Replay the two-term splitting for an integer enumeration.

    With mode "new" and no dsets, the index sets are half-line tails truncated
    at a floor (default one past the largest gap) and the hypothesis is that
    f-hat vanishes at negative window frequencies.  Supplying dsets (one
    windowed member list per entry, e.g. from `d_set`) switches the hypothesis
    to vanishing on the union of the shifted sets, the Schur set; the three
    structural conditions are then checked at the set level instead of
    lacunarity.  Mode "classic" uses bare-character subspaces and requires an
    analytic factorization.  Mode "complementary" certifies the variant whose
    hypothesis is vanishing at positive frequencies outside K.
    """
    if e.J == 0:
        raise ValueError("empty enumeration")
    if e.dim != 1:
        raise ValueError("replay handles dim 1; use replay_group")
    ks = e.scalars()
    if any(k < 0 for k in ks):
        raise ValueError("frequencies must be nonnegative")
    spec = f.spec
    if spec.ndim != 1:
        raise ValueError("replay handles one-axis grids; use replay_group")
    N, M = spec.dims[0], spec.window_half[0]
    if max(ks) > M:
        raise ValueError("enumeration exceeds the grid window")

    if mode == "complementary":
        return _replay_complementary(f, ks, factorization)
    if mode not in ("new", "classic"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "classic":
        if factorization is None:
            raise ValueError("classic mode needs an analytic factorization")
        gfun, hfun = factorization.g, factorization.h
        ghat, hhat = gfun.hat(), hfun.hat()
        gl2, hl2 = norm_l2(gfun), norm_l2(hfun)
        for n in range(-(N // 2), 0):
            if abs(ghat[n % N]) > 1e-10 * max(gl2, 1e-300):
                raise ValueError(f"classic mode: g-hat({n}) does not vanish")
        for n in range(1, N // 2):
            if abs(hhat[n % N]) > 1e-10 * max(hl2, 1e-300):
                raise ValueError(f"classic mode: conj h is not analytic (h-hat({n}) nonzero)")
        h_degree = 0
        for n in range(1, N // 2 + 1):
            if abs(hhat[(-n) % N]) > 1e-12 * max(hl2, 1e-300):
                h_degree = n
        carrier = None
    else:
        fac = factorization if factorization is not None else factorize(f)
        gfun, hfun = fac.g, fac.h
        carrier = hfun.samples
        h_degree = 0

    if dsets is None:
        if not all(b > 2 * a for a, b in zip(ks, ks[1:])):
            raise ValueError(
                "half-line replay requires a strongly lacunary increasing enumeration"
            )
        if depth is None:
            depth = default_depth(ks) + h_degree
        if depth > N - M - 1:
            raise ValueError("depth exceeds the grid's alias-free range")
        dvecs = [[(n,) for n in range(-depth, -k)] for k in ks]
        floor = (-depth,)
        forbidden = [(n,) for n in range(-M, 0)]
    else:
        dvecs = [[as_vec(m) for m in ds] for ds in dsets]
        if len(dvecs) != len(ks):
            raise ValueError("need one index set per enumeration entry")
        members = [m for ds in dvecs for m in ds]
        depth = -min((m[0] for m in members), default=-1)
        if depth > N - M - 1:
            raise ValueError("index sets exceed the grid's alias-free range")
        floor = (-depth,)
        shifted = sorted({vec_add(m, (k,)) for k, ds in zip(ks, dvecs) for m in ds})
        forbidden = [n for n in shifted if spec.in_window(n)]

    kvecs = [(k,) for k in ks]
    flags = _windowed_set_flags(kvecs, dvecs, floor, (-1,))
    return _two_step_trace(f, kvecs, dvecs, carrier, gfun, hfun, mode, depth, forbidden, flags)


def replay_sets(
    f: GridFunction,
    ks,
    dsets,
    window_lo,
    window_hi,
    forbidden,
) -> ProofTrace:
    """Two-step replay with explicit index sets in any dimension.

    ks are the enumeration vectors, dsets the windowed member lists (complete
    inside [window_lo, window_hi]), and forbidden the window frequencies where
    f-hat must vanish (the union of the shifted sets).  The canonical
    factorization supplies the carrier.
    """
    kvecs = [as_vec(k) for k in ks]
    dvecs = [[as_vec(m) for m in ds] for ds in dsets]
    if len(dvecs) != len(kvecs):
        raise ValueError("need one index set per enumeration entry")
    lo, hi = as_vec(window_lo), as_vec(window_hi)
    fac = factorize(f)
    flags = _windowed_set_flags(kvecs, dvecs, lo, hi)
    depth = -min((min(m) for ds in dvecs for m in ds), default=-1)
    return _two_step_trace(
        f, kvecs, dvecs, fac.h.samples, fac.g, fac.h, "new", depth, forbidden, flags
    )


def _replay_complementary(f: GridFunction, ks: list[int], factorization):
    """Two-step replay over the finite blocks [-k_j, 0); everything is exact."""
    if not all(b > 2 * a for a, b in zip(ks, ks[1:])):
        raise ValueError("complementary replay requires a strongly lacunary enumeration")
    spec = f.spec
    size = spec.size
    J = len(ks)
    M = spec.window_half[0]
    f_l2 = norm_l2(f)
    kset = set(ks)
    forbidden = [(n,) for n in range(1, M + 1) if n not in kset]
    _check_support_and_hypothesis(f, forbidden, f_l2, "mode complementary")

    fac = factorization if factorization is not None else factorize(f)
    g, h = fac.g.samples, fac.h.samples
    hat = f.hat()

    mspaces = [_BasisSpace(spec, [(n,) for n in range(-k, 0)], h) for k in ks]
    qspaces: list = [None] * (J + 2)
    for j in range(1, J + 1):
        qspaces[j] = _BasisSpace(spec, [(n,) for n in range(0, ks[j - 1])], h)
    qspaces[J + 1] = _FullSpace(size)

    def P(j, v):
        return np.zeros_like(v) if j == 0 else mspaces[j - 1].apply(v)

    chars = [grid_character(spec, (k,)) for k in ks]
    a = np.zeros(J, complex)
    b = np.zeros(J, complex)
    rows = []
    qg = [None] + [qspaces[j].apply(g) for j in range(1, J + 2)]
    for j in range(1, J + 1):
        Ajh = chars[j - 1] * h
        a[j - 1] = _ip(qg[j + 1] - qg[j], Ajh, size)
        b[j - 1] = _ip(g, chars[j - 1] * (P(j, h) - P(j - 1, h)), size)
        target = _hat_at(hat, spec.dims, (ks[j - 1],))
        identity = abs(a[j - 1] + b[j - 1] - target)
        mem = _n2(Ajh - qspaces[j + 1].apply(Ajh), size) if j < J else 0.0
        inter = _n2(chars[j - 1] * P(j, h) - qspaces[j].apply(Ajh), size)
        orth = 0.0
        if j >= 2:
            orth = max(
                (
                    abs(_hat_at(hat, spec.dims, (n + ks[j - 1],)))
                    for n in range(-ks[j - 2], 0)
                ),
                default=0.0,
            )
            demod = (g * np.conj(chars[j - 1])).ravel()
            orth = max(orth, _basis_inner_max(mspaces[j - 2], demod, size, spec))
        rows.append(
            TraceRow(j, (ks[j - 1],), a[j - 1], b[j - 1], target, identity, mem, inter, orth, 0.0)
        )

    qdefect = 0.0
    for j in range(1, J):
        qdefect = max(qdefect, _n2(qg[j] - qspaces[j + 1].apply(qg[j]), size))

    increasing = all(a < b for a, b in zip(ks, ks[1:]))
    flags = (all(b > 2 * a for a, b in zip(ks, ks[1:])), increasing, increasing)
    return _assemble_trace(
        f, "complementary", [(k,) for k in ks], rows, a, b, f_l2, flags, fac, qdefect, max(ks)
    )


def replay_group(
    f: GridFunction,
    e: Enumeration,
    order: ConeOrder,
    mode: str = "new",
) -> ProofTrace:
    """Two-step replay on a multi-axis grid with cone-order subspaces.

    The enumeration must increase in the order and be strongly lacunary for
    it; the hypothesis is that f-hat vanishes on the strictly negative cone
    inside the window.
    """
    if mode != "new":
        raise ValueError("group replay supports mode 'new'")
    if e.J == 0:
        raise ValueError("empty enumeration")
    spec = f.spec
    if e.dim != spec.ndim or order.dim != spec.ndim:
        raise ValueError("enumeration, order and grid dimensions disagree")
    ks = list(e.entries)
    for j in range(e.J - 1):
        if not order.in_strict_cone(vec_sub(ks[j + 1], ks[j])):
            raise ValueError("enumeration must increase in the cone order")
        if not order.in_strict_cone(vec_sub(ks[j + 1], vec_scale(2, ks[j]))):
            raise ValueError("enumeration is not strongly lacunary for the order")
    need = list(ks) + [vec_sub(ks[j], ks[j + 1]) for j in range(e.J - 1)] + [
        vec_sub(vec_scale(2, ks[j]), ks[j + 1]) for j in range(e.J - 1)
    ]
    for v in need:
        if not spec.in_window(v):
            raise ValueError(f"window too small: {v} must be representable")
    box = spec.window_points()
    dsets = []
    for j, k in enumerate(ks):
        mk = vec_scale(-1, k)
        members = [
            v
            for v in box
            if order.in_strict_cone(vec_sub(mk, v))
            and spec.in_window(vec_add(v, k))
            and (j + 1 >= e.J or spec.in_window(vec_add(v, ks[j + 1])))
        ]
        dsets.append(members)
    forbidden = [v for v in box if order.in_strict_cone(vec_scale(-1, v))]
    fac = factorize(f)
    flags = _cone_set_flags(ks, dsets, order)
    return _two_step_trace(
        f, ks, dsets, fac.h.samples, fac.g, fac.h, "new", max(spec.window_half), forbidden, flags
    )
