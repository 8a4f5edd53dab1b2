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

Projections are solved in coefficient space: on the grid <c e_b, c e_a> =
(|c|^2)^(a - b) and <v, c e_a> = (v conj c)^(a), so projecting onto
span{c e_n : n in D} is a |D| x |D| Hermitian solve whose (multilevel)
Toeplitz Gram matrix is gathered from one FFT of |c|^2 (|f| for c = sqrt|f|,
1 for bare characters).  Its eigenvalues above the larger of (1e-10 s_max)^2
and the m eps lambda_max rounding floor of an m x m eigh give the
pseudo-inverse.  Distances are Gram norms of coefficient differences, never
differences of squared norms.

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

from .cones import ConeOrder, Vec, as_vec, is_strongly_lacunary, vec_add, vec_scale, vec_sub
from .grid import GridFunction, dft, norm_l1, norm_l2
from .sets import Enumeration, isin_rows

RANK_THRESHOLD = 1e-10
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
# projections in coefficient space
# ---------------------------------------------------------------------------

def _at(arr: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """arr at the residues of the frequencies ns (integer array, last axis d)."""
    r = ns % arr.shape
    return arr[tuple(r[..., i] for i in range(arr.ndim))]


def _gram(F: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """<c e_q, c e_p> = F(n_p - n_q) for n_p in rows and n_q in cols, where F
    holds the coefficients of |c|^2."""
    return _at(F, rows[:, None, :] - cols[None, :, :])


class _Span:
    """span{c e_n : n in ns} for a carrier c, worked in coefficient space.

    Its Gram matrix is gathered from F, the coefficients of |c|^2, and its
    eigenpairs above the rank cut give the pseudo-inverse that solves every
    projection: for any v, P v = sum_p x_p c e_{n_p} with G x = r and
    r_p = <v, c e_{n_p}>.  The cut is the larger of (1e-10 s_max)^2 and
    eigh's rounding floor m eps lambda_max for an m x m Gram matrix, below
    which an eigenvalue is noise.
    """

    def __init__(self, F: np.ndarray, ns: np.ndarray):
        self.F, self.ns = F, ns
        self.gram = _gram(F, ns, ns)
        lam, vec = np.linalg.eigh(self.gram)
        floor = max(RANK_THRESHOLD**2, len(ns) * np.finfo(float).eps)
        keep = lam > floor * max(lam[-1] if lam.size else 0.0, 0.0)
        self.lam, self.vec = lam[keep], vec[:, keep]

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self.vec @ ((self.vec.conj().T @ r) / self.lam)

    def basis_max(self, r: np.ndarray) -> float:
        """Largest |<v, u_i>| over the orthonormal basis u_i of the span."""
        return float(np.max(np.abs(self.vec.conj().T @ r) / np.sqrt(self.lam), initial=0.0))

    def defect(self, ts: np.ndarray, x: np.ndarray) -> float:
        """||v - P v|| for v = sum_t x_t c e_t, as the Gram norm of v's
        coefficients minus the projection's over the union of both index
        sets, one coordinate per residue."""
        both = np.concatenate([self.ns, ts])
        flat = np.ravel_multi_index(tuple((both % np.array(self.F.shape)).T), self.F.shape)
        _, first, inv = np.unique(flat, return_index=True, return_inverse=True)
        y = np.zeros(first.size, complex)
        np.add.at(y, inv, np.concatenate([-self.solve(_gram(self.F, self.ns, ts) @ x), x]))
        union = both[first]
        return float(np.sqrt(max(np.vdot(y, _gram(self.F, union, union) @ y).real, 0.0)))


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
        # the g conj(h) = f defect bounds |<g, h e_n> - f-hat(n)| (Parseval),
        # so this also covers the canonical replays that read f-hat for them
        for name, res in zip(("|g| = |h|", "g conj(h) = f"), self.factorization_residuals):
            if res > tol:
                out.append(f"factorization residual {name}: {res:.3e}")
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

def _n2(a: np.ndarray, size: int) -> float:
    return float(np.sqrt(max(np.vdot(a, a).real / size, 0.0)))


def _check_support_and_hypothesis(f: GridFunction, forbidden, f_l2, label):
    """Support inside the window; f-hat vanishing on the forbidden residues."""
    hat = f.hat()
    spec = f.spec
    outside = np.where(spec.window_mask(), 0.0, np.abs(hat))
    if outside.max() > HYPOTHESIS_TOLERANCE * max(f_l2, 1e-300):
        idx = np.unravel_index(int(np.argmax(outside)), spec.dims)
        rep = tuple(int(c) if c <= d // 2 else int(c) - d for c, d in zip(idx, spec.dims))
        raise SupportViolation(f"spectrum extends outside the window at {rep}")
    if not len(forbidden):
        return
    forbidden = _freqs(forbidden, spec.ndim)
    vals = np.abs(_at(hat, forbidden))
    bad = vals > HYPOTHESIS_TOLERANCE * max(f_l2, 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        n = forbidden[i].tolist()
        raise HypothesisViolation(
            f"{label}: coefficient at forbidden frequency "
            f"{n[0] if len(n) == 1 else tuple(n)} is {vals[i]:.3e}"
        )


def _steps_in(ks: np.ndarray, dsets) -> bool:
    """Set-level membership: k_j - k_{j+1} ∈ D_j for every j < J."""
    return all(isin_rows(ks[j : j + 1] - ks[j + 1], dsets[j])[0] for j in range(len(ks) - 1))


def _windowed_set_flags(ks: np.ndarray, dsets, box_lo, box_hi):
    """Set-level membership, antinesting and shifted-nesting for windowed sets
    (ks and the D_j as (n, d) arrays).

    The member lists are complete inside the box [box_lo, box_hi], so the
    shifted-nest condition D_{j-1} + k_j ⊆ D_j + k_{j+1} is checked through
    its preimage: whenever m + k_j - k_{j+1} lies inside the box it must be a
    listed member of D_j; preimages outside the box are undecidable from the
    windowed data and skipped.
    """
    lo, hi = np.asarray(box_lo), np.asarray(box_hi)
    steps = ks[:-1] - ks[1:]
    membership = antinest = gnest = True
    for j in range(len(ks) - 1):
        pre = steps[:0]
        if j:
            pre = dsets[j - 1] + steps[j]
            pre = pre[((pre >= lo) & (pre <= hi)).all(axis=1)]
        # one lookup in D_j per j: the step, D_{j+1}, then the preimages
        hit = isin_rows(np.concatenate([steps[j : j + 1], dsets[j + 1], pre]), dsets[j])
        n = 1 + len(dsets[j + 1])
        membership = membership and bool(hit[0])
        antinest = antinest and bool(hit[1:n].all())
        gnest = gnest and bool(hit[n:].all())
    return membership, antinest, gnest


def _cone_set_flags(ks: np.ndarray, dsets, order: ConeOrder):
    """Set-level conditions decided by the order predicate itself."""
    J = len(ks)
    antinest = all(
        order.in_strict_cone(tuple(v)) for j in range(J - 1) for v in (-ks[j] - dsets[j + 1]).tolist()
    )
    gnest = all(
        order.in_strict_cone(tuple(v))
        for j in range(1, J - 1)
        for v in (-ks[j] - (dsets[j - 1] + ks[j] - ks[j + 1])).tolist()
    )
    return _steps_in(ks, dsets), antinest, gnest


def _freqs(ns, d: int) -> np.ndarray:
    return np.array(ns, np.int64).reshape(len(ns), d)


def _two_step_trace(
    f, e_ks, dsets, carrier, gfun, hfun, mode, depth, forbidden, flags, hexp=None, canonical=False
):
    """Shared two-step machinery for the "new" and "classic" modes.

    L_j = span{c e_n : n in D_j} for the carrier c, Q_j = A_{j+1} L_j (its
    generators are D_j + k_{j+1}), Q_0 = 0 and Q_J the whole space.  hexp =
    (frequencies, coefficients) expands h = c sum eta_t e_t; None means h = c.
    `canonical` says (g, h) is `factorize(f)` with c = h: then g conj(c) = f
    pointwise, so the coefficients <g, c e_n> are f-hat and need no transform
    of their own.
    """
    spec = f.spec
    d = spec.ndim
    J = len(e_ks)
    f_l2 = norm_l2(f)
    _check_support_and_hypothesis(f, forbidden, f_l2, f"mode {mode}")

    hat = f.hat()
    F = dft(np.abs(carrier) ** 2) / spec.size
    gc = hat if canonical else dft(gfun.samples * np.conj(carrier)) / spec.size  # <g, c e_n>
    hs, eta = hexp if hexp is not None else (np.zeros((1, d), np.int64), np.ones(1, complex))
    ks = _freqs(e_ks, d)
    Ls = [_Span(F, ds) for ds in dsets]
    ph = [L.solve(_gram(F, L.ns, hs) @ eta) for L in Ls]  # P_j h

    a = np.zeros(J, complex)
    b = np.zeros(J, complex)
    rows = []
    qdefect = 0.0
    for i in range(J):
        k, ah = ks[i], hs + ks[i]  # A_j h = c sum eta_t e_{t + k_j}
        on_ak = _at(gc, Ls[i].ns + k)  # <g, c e_n> on A_j L_j
        inter = btwo = 0.0
        if i:
            # Q_{j-1} = A_j L_{j-1}: same Gram matrix, generators shifted by k_j
            L = Ls[i - 1]
            s = _gram(F, L.ns + k, ah) @ eta
            b[i] = np.vdot(s, cq)  # <Q_{j-1} g, A_j h>, cq from the row before
            # A_j P_{j-1} h's coefficients in Q_{j-1}'s equations for A_j h
            inter = float(np.linalg.norm(L.gram @ ph[i - 1] - s))
            btwo = abs(b[i] - (np.vdot(ph[i - 1], _at(gc, L.ns + k)) - np.vdot(ph[i], on_ak)))
        if i + 1 < J:
            L, up = Ls[i], ks[i + 1]
            if i:  # Q_{j-1} g against Q_j
                qdefect = max(qdefect, L.defect(Ls[i - 1].ns + k - up, cq))
            cq = L.solve(_at(gc, L.ns + up))  # Q_j g
            top = np.vdot(_gram(F, L.ns + up, ah) @ eta, cq)  # <Q_j g, A_j h>
            mem = L.defect(ah - up, eta)  # the distance of A_j h from Q_j
        else:
            top = np.vdot(eta, _at(gc, ah))
            mem = 0.0
        a[i] = top - b[i]
        target = complex(_at(hat, k))
        orth = max(float(np.max(np.abs(_at(hat, Ls[i].ns + k)), initial=0.0)),
                   Ls[i].basis_max(on_ak))
        identity = abs(a[i] + b[i] - target)
        rows.append(TraceRow(i + 1, e_ks[i], a[i], b[i], target, identity, mem, inter, orth, btwo))

    return _assemble_trace(
        f, mode, e_ks, rows, a, b, f_l2, flags, Factorization(gfun, hfun), qdefect, depth
    )


def _assemble_trace(f, mode, ks, rows, a, b, f_l2, flags, fac, qdefect, depth) -> ProofTrace:
    """The ProofTrace of a finished two-step replay; flags are the set-level
    (membership, D_j nesting, shifted-set nesting) verdicts."""
    size = f.spec.size
    hat = f.hat()
    on_k = float(np.sqrt(sum(abs(complex(_at(hat, np.array(k)))) ** 2 for k in ks)))
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

    canonical = mode == "new" and factorization is None
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
        # bare characters: carrier 1, and h expanded over its coefficients
        carrier = np.ones(spec.dims, complex)
        hs = -np.arange(h_degree + 1).reshape(-1, 1)
        hexp = (hs, _at(hhat, hs))
    else:
        fac = factorize(f) if canonical else factorization
        gfun, hfun = fac.g, fac.h
        carrier = hfun.samples
        h_degree = 0
        hexp = None

    if dsets is None:
        if not is_strongly_lacunary(ks):
            raise ValueError(
                "half-line replay requires a strongly lacunary increasing enumeration"
            )
        if depth is None:
            depth = default_depth(ks) + h_degree
        if depth > N - M - 1:
            raise ValueError("depth exceeds the grid's alias-free range")
        dvecs = [np.arange(-depth, -k).reshape(-1, 1) for k in ks]
        floor = (-depth,)
        forbidden = np.arange(-M, 0)
    else:
        dvecs = [_freqs(ds, 1) for ds in dsets]
        if len(dvecs) != len(ks):
            raise ValueError("need one index set per enumeration entry")
        members = np.concatenate(dvecs)
        depth = -int(members.min()) if members.size else 1
        if depth > N - M - 1:
            raise ValueError("index sets exceed the grid's alias-free range")
        floor = (-depth,)
        # sorted so a violation names the least offender; repeats check twice
        shifted = np.sort(np.concatenate([ds + k for k, ds in zip(ks, dvecs)]), axis=0)
        forbidden = shifted[np.abs(shifted) <= M]

    kvecs = [(k,) for k in ks]
    flags = _windowed_set_flags(_freqs(kvecs, 1), dvecs, floor, (-1,))
    return _two_step_trace(
        f, kvecs, dvecs, carrier, gfun, hfun, mode, depth, forbidden, flags, hexp, canonical
    )


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
    d = len(kvecs[0])
    dvecs = [_freqs(ds, d) for ds in dsets]
    if len(dvecs) != len(kvecs):
        raise ValueError("need one index set per enumeration entry")
    fac = factorize(f)
    flags = _windowed_set_flags(_freqs(kvecs, d), dvecs, window_lo, window_hi)
    members = np.concatenate(dvecs)
    depth = -int(members.min()) if members.size else 1
    return _two_step_trace(
        f, kvecs, dvecs, fac.h.samples, fac.g, fac.h, "new", depth, forbidden, flags, None, True
    )


def _replay_complementary(f: GridFunction, ks: list[int], factorization):
    """Two-step replay over the finite blocks [-k_j, 0); everything is exact."""
    if not is_strongly_lacunary(ks):
        raise ValueError("complementary replay requires a strongly lacunary enumeration")
    spec = f.spec
    size = spec.size
    J = len(ks)
    M = spec.window_half[0]
    f_l2 = norm_l2(f)
    forbidden = np.arange(1, M + 1)
    forbidden = forbidden[~np.isin(forbidden, ks)]
    _check_support_and_hypothesis(f, forbidden, f_l2, "mode complementary")

    fac = factorization if factorization is not None else factorize(f)
    hat = f.hat()
    F = dft(np.abs(fac.h.samples) ** 2) / size
    # <g, h e_n>: f-hat for the canonical factorization, where g conj(h) = f
    gc = hat if factorization is None else dft(fac.g.samples * np.conj(fac.h.samples)) / size
    kv = _freqs(ks, 1)
    # P_j = span{h e_n : n in [-k_j, 0)}; Q_j = A_j P_j has generators [0, k_j)
    Ps = [_Span(F, np.arange(-k, 0).reshape(-1, 1)) for k in ks]
    rh = [_at(F, P.ns) for P in Ps]  # <h, h e_n> = <A_j h, h e_{n + k_j}>
    ph = [P.solve(r) for P, r in zip(Ps, rh)]  # P_j h
    cq = [P.solve(_at(gc, P.ns + k)) for P, k in zip(Ps, kv)]  # Q_j g

    a = np.zeros(J, complex)
    b = np.zeros(J, complex)
    rows = []
    qdefect = 0.0
    for i, k in enumerate(kv):
        low = np.vdot(rh[i], cq[i])  # <Q_j g, A_j h>
        if i + 1 < J:
            P, up = Ps[i + 1], kv[i + 1]
            top = np.vdot(_at(F, P.ns + up - k), cq[i + 1])  # <Q_{j+1} g, A_j h>
            mem = P.defect((k - up).reshape(1, 1), np.ones(1))  # A_j h against Q_{j+1}
            qdefect = max(qdefect, P.defect(Ps[i].ns + k - up, cq[i]))  # Q_j g against Q_{j+1}
        else:
            top, mem = complex(_at(gc, k)), 0.0
        first = np.vdot(ph[i], _at(gc, Ps[i].ns + k))  # <g, A_j P_j h>
        b[i], orth = first, 0.0
        if i:
            P = Ps[i - 1]
            on_prev = _at(gc, P.ns + k)  # <g, h e_n> on A_j P_{j-1}
            b[i] -= np.vdot(ph[i - 1], on_prev)
            orth = max(float(np.max(np.abs(_at(hat, P.ns + k)), initial=0.0)), P.basis_max(on_prev))
        a[i] = top - low
        target = complex(_at(hat, k))
        # the solve residual of P_j h, whose coefficients Q_j = A_j P_j reuses
        inter = float(np.linalg.norm(Ps[i].gram @ ph[i] - rh[i]))
        btwo = abs(first - low)  # b_j's first term taken through Q_j instead
        rows.append(TraceRow(
            i + 1, (ks[i],), a[i], b[i], target, abs(a[i] + b[i] - target), mem, inter, orth, btwo
        ))

    # a strongly lacunary (checked on entry) nonnegative K is increasing, so
    # every set-level condition holds
    flags = (True, True, True)
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
        dsets.append(_freqs(members, e.dim))
    forbidden = [v for v in box if order.in_strict_cone(vec_scale(-1, v))]
    fac = factorize(f)
    flags = _cone_set_flags(_freqs(ks, e.dim), dsets, order)
    depth = max(spec.window_half)
    return _two_step_trace(
        f, ks, dsets, fac.h.samples, fac.g, fac.h, "new", depth, forbidden, flags, None, True
    )
