"""Forbidden-set combinatorics: Schur, S, Riesz, alternating-sum, gap and block sets.

All sets here are infinite in general, so every enumeration is taken inside an
explicit window and reported with an `exact` flag telling whether the listing
is provably complete there.  Two independent routes to the Schur set are kept
deliberately separate: `schur_set` walks admissible sign vectors through their
partial-sum conditions, `schur_set_via_gaps` enumerates the gap representation
m = k_i - Σ n_j' Δk_j'; their agreement is a tested identity, not shared code.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cones import Vec, as_vec, vec_add, vec_scale, vec_sub

S_SET_CAP = 16        # 3^J sign-vector enumeration
RIESZ_CAP = 14        # 3^|K'| signed-sum enumeration
ALT_SUM_CAP = 20      # 2^J index subsequences
DFS_NODE_CAP = 4_000_000


class CapExceeded(ValueError):
    pass


class UndecidableWindow(ValueError):
    pass


@dataclass(frozen=True)
class Enumeration:
    """Ordered sequence of distinct frequencies; order is data, never derived."""

    entries: tuple

    def __init__(self, entries):
        vs = tuple(as_vec(e) for e in entries)
        if vs:
            d = len(vs[0])
            if any(len(v) != d for v in vs):
                raise ValueError("mixed dimensions in enumeration")
        if len(set(vs)) != len(vs):
            raise ValueError("enumeration entries must be distinct")
        object.__setattr__(self, "entries", vs)

    @property
    def J(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries[0]) if self.entries else 1

    def scalars(self) -> list[int]:
        if self.dim != 1:
            raise ValueError("scalar view requires dim 1")
        return [v[0] for v in self.entries]

    def is_increasing(self) -> bool:
        ks = self.scalars()
        return all(b > a for a, b in zip(ks, ks[1:]))

    def gaps(self) -> list[int]:
        ks = self.scalars()
        return [b - a for a, b in zip(ks, ks[1:])]


@dataclass(frozen=True)
class Window:
    """Componentwise closed interval [lo, hi] of frequencies."""

    lo: Vec
    hi: Vec

    def __init__(self, lo, hi):
        lo, hi = as_vec(lo), as_vec(hi)
        if len(lo) != len(hi):
            raise ValueError("window bound dimensions disagree")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("window needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, m) -> bool:
        v = as_vec(m)
        if len(v) != self.dim:
            raise ValueError(f"frequency {v} has wrong dimension for window {self.to_json()}")
        return all(a <= c <= b for a, c, b in zip(self.lo, v, self.hi))

    def to_json(self) -> list:
        if self.dim == 1:
            return [self.lo[0], self.hi[0]]
        return [list(self.lo), list(self.hi)]


@dataclass(frozen=True)
class SetReport:
    """Members found inside a window plus a completeness flag.

    `members` is a sorted tuple of distinct frequency tuples of Python ints;
    a scalar member n is the 1-tuple (n,).  The constructor canonicalises any
    iterable of frequencies; `of_scalars` builds the same form from int64
    arrays of scalar members without passing through Python sets.
    """

    members: tuple
    exact: bool

    def __init__(self, members, exact):
        vs = sorted({as_vec(m) for m in members})
        object.__setattr__(self, "members", tuple(vs))
        object.__setattr__(self, "exact", bool(exact))

    @classmethod
    def of_scalars(cls, parts, exact) -> SetReport:
        """Report of the integers in the int64 arrays `parts`, repeats allowed."""
        a = np.sort(np.concatenate([np.zeros(0, np.int64), *parts]))
        if a.size:
            a = a[np.concatenate(([True], a[1:] != a[:-1]))]
        rep = object.__new__(cls)
        object.__setattr__(rep, "members", tuple(zip(a.tolist())))
        object.__setattr__(rep, "exact", bool(exact))
        return rep

    def as_set(self) -> set:
        return set(self.members)

    def scalars(self) -> list[int]:
        return [v[0] for v in self.members]

    def to_json(self) -> dict:
        ms = [v[0] if len(v) == 1 else list(v) for v in self.members]
        return {"members": ms, "exact": self.exact}


# ---------------------------------------------------------------------------
# sign-vector conditions
# ---------------------------------------------------------------------------

def admissible_signs(eps) -> bool:
    """The four partial-sum conditions on a coefficient vector.

    Full sum 1; all partial sums nonnegative; all partial sums after the
    first positive one strictly positive; some partial sum greater than 1.
    """
    s = 0
    seen_positive = False
    exceeded = False
    for e in eps:
        s += e
        if s < 0:
            return False
        if seen_positive and s <= 0:
            return False
        if s > 0:
            seen_positive = True
        if s > 1:
            exceeded = True
    return s == 1 and exceeded


# ---------------------------------------------------------------------------
# semigroup reachability (vectorized over a value range)
# ---------------------------------------------------------------------------

def _closure(reach: np.ndarray, g: int) -> np.ndarray:
    """reach ∪ (reach + g) ∪ (reach + 2g) ∪ ... inside the array range."""
    n = reach.size
    if g <= 0:
        raise ValueError("closure needs a positive generator")
    if g >= n:
        return reach
    pad = (-n) % g
    r = np.concatenate([reach, np.zeros(pad, bool)]) if pad else reach.copy()
    r = r.reshape(-1, g)
    np.logical_or.accumulate(r, axis=0, out=r)
    return r.reshape(-1)[:n]


def _gap_blocks(blocks, gaps, w: Window) -> SetReport:
    """Window members of top - Σ_{j' >= i} n_j' gaps[j'] over nonnegative
    integers n, with some n positive when `nonzero`, united over the blocks
    (top, i, nonzero).  One table per gap suffix serves every block."""
    lo, hi = w.lo[0], w.hi[0]
    cap = max((top for top, _, _ in blocks), default=lo - 1) - lo
    if cap < 0:
        return SetReport.of_scalars([], True)
    # tables[i] marks the sums Σ_{j' >= i} n_j' gaps[j'] on [0, cap]
    tables = [np.zeros(cap + 1, bool)]
    tables[0][0] = True
    for g in reversed(gaps):
        tables.append(_closure(tables[-1], g))
    tables.reverse()
    parts = []
    for top, i, nonzero in blocks:
        if top >= lo:  # sums t in [start, top - lo] land in the window
            start = max(top - hi, int(nonzero))
            parts.append(top - start - np.flatnonzero(tables[i][start : top - lo + 1]))
    return SetReport.of_scalars(parts, True)


# ---------------------------------------------------------------------------
# Schur set, two routes
# ---------------------------------------------------------------------------

def required_coeff_bound(e: Enumeration, w: Window) -> int:
    """Coefficient magnitude provably sufficient for exact windowed search.

    For a strictly increasing enumeration every admissible representation has
    gap coefficients at most (max k - lo)/min Δk, hence sign-vector entries at
    most one more than that.
    """
    ks = e.scalars()
    gaps = e.gaps()
    if not gaps:
        return 1
    return 1 + (max(ks) - w.lo[0]) // min(gaps)


def _schur_increasing_dp(ks: list[int], lo: int, hi: int) -> np.ndarray:
    # Walk the partial sums s_1..s_{J-1} through their admissible phases and
    # track the accumulated T = Σ s_j Δk_j, since the value is k_J - T.
    # Phase "pre": before the first positive partial sum (all zero, T = 0).
    # Phase p1: positive so far but pinned at exactly 1 (nonnegative + not
    # yet exceeded forces s = 1 there).  Phase p2: some partial sum exceeded
    # 1; from then on any s_j >= 1 is admissible.  Membership requires ending
    # in p2 with s_J = 1, which contributes nothing to T.
    J = len(ks)
    tmax = ks[-1] - lo
    if J < 2 or tmax < 0:
        return np.zeros(0, np.int64)
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    p1 = np.zeros(tmax + 1, bool)
    p2 = np.zeros(tmax + 1, bool)
    for g in gaps:
        new1 = np.zeros(tmax + 1, bool)
        new2 = np.zeros(tmax + 1, bool)
        if g <= tmax:
            new1[g] = True                      # pre -> p1 (s_j = 1)
            new1[g:] |= p1[:-g]                 # p1 -> p1 (s_j = 1)
            # the least s_j of each move into p2; one closure under +g adds
            # the larger s_j of all three moves at once
            new2[g:] = p2[:-g]                  # p2 -> p2 (s_j >= 1)
            if 2 * g <= tmax:
                new2[2 * g] = True              # pre -> p2 (s_j >= 2)
                new2[2 * g:] |= p1[: tmax + 1 - 2 * g]  # p1 -> p2 (s_j >= 2)
            new2 = _closure(new2, g)
        p1, p2 = new1, new2
    start = max(ks[-1] - hi, 0)  # values k_J - T inside the window
    return ks[-1] - start - np.flatnonzero(p2[start:])


def _sign_walk(vecs, bound: int = 1, w: Window | None = None,
               node_cap: int | None = None) -> set:
    """Values Σ ε_j v_j over integer sign vectors with |ε_j| <= bound meeting
    the partial-sum conditions of `admissible_signs`.

    With a window only the values inside it are kept, and a branch is cut
    once its remaining steps cannot bring the value back into the window.
    """
    J = len(vecs)
    d = len(vecs[0]) if vecs else 1
    if w is not None:
        # each remaining step moves a coordinate by at most bound * |v_j|
        sum_tail = [(0,) * d] * (J + 1)
        for j in range(J - 1, -1, -1):
            sum_tail[j] = vec_add(sum_tail[j + 1], tuple(abs(c) for c in vecs[j]))
    out = set()
    nodes = 0

    def rec(j, s, seen_pos, exceeded, val):
        nonlocal nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise CapExceeded("sign-vector search exceeded the node cap")
        if j == J:
            if s == 1 and exceeded and (w is None or w.contains(val)):
                out.add(val)
            return
        if w is not None:
            slack = vec_scale(bound, sum_tail[j])
            if any(v - sl > hi or v + sl < lo for v, sl, lo, hi in zip(val, slack, w.lo, w.hi)):
                return
        room = bound * (J - j - 1)  # the full sum must still come back to 1
        for epsv in range(-bound, bound + 1):
            s2 = s + epsv
            if s2 < 0 or (seen_pos and s2 <= 0) or abs(s2 - 1) > room:
                continue
            rec(j + 1, s2, seen_pos or s2 > 0, exceeded or s2 > 1,
                vec_add(val, vec_scale(epsv, vecs[j])))

    rec(0, 0, False, False, (0,) * d)
    return out


def schur_set(e: Enumeration, w: Window, coeff_bound: int | None = None) -> SetReport:
    """Window slice of the Schur set of an enumeration.

    Members are the values Σ ε_j k_j over integer sign vectors satisfying the
    four partial-sum conditions.  For strictly increasing integer enumerations
    the walk over partial-sum states is complete and the report is exact; any
    other shape falls back to a bounded |ε| <= coeff_bound search and the
    report is marked inexact.
    """
    if e.J == 0:
        return SetReport([], True)
    increasing = e.dim == 1 and e.J >= 1 and e.is_increasing()
    if increasing:
        needed = required_coeff_bound(e, w)
        if coeff_bound is None or coeff_bound >= needed:
            members = _schur_increasing_dp(e.scalars(), w.lo[0], w.hi[0])
            return SetReport.of_scalars([members], True)
    bound = coeff_bound if coeff_bound is not None else 4
    return SetReport(_sign_walk(e.entries, bound, w, DFS_NODE_CAP), False)


def _require_increasing(e: Enumeration):
    if e.dim != 1 or not e.is_increasing():
        raise ValueError("gap representation requires increasing enumeration")


def schur_set_via_gaps(e: Enumeration, w: Window) -> SetReport:
    """Schur set through the gap representation m = k_i - Σ_{j'>=i} n_j' Δk_j'.

    Requires a strictly increasing integer enumeration; positive gaps bound
    the coefficients, so the windowed listing is exact.
    """
    _require_increasing(e)
    ks = e.scalars()
    return _gap_blocks([(ks[i - 1], i - 1, True) for i in range(1, e.J)], e.gaps(), w)


# ---------------------------------------------------------------------------
# S set, Riesz support, alternating sums
# ---------------------------------------------------------------------------

def s_set(e: Enumeration, cap: int = S_SET_CAP) -> SetReport:
    """Values Σ ε_j k_j over ε in {-1,0,1}^J meeting the partial-sum conditions."""
    if e.J > cap:
        raise CapExceeded(f"J={e.J} exceeds the 3^J cap {cap}")
    return SetReport(_sign_walk(e.entries), True)


def riesz_support(K, cap: int = RIESZ_CAP) -> SetReport:
    """All signed {-1,0,1} combinations of K \\ {0}; always contains 0."""
    pts = sorted({as_vec(g) for g in K})
    d = len(pts[0]) if pts else 1
    zero = tuple(0 for _ in range(d))
    kprime = [g for g in pts if g != zero]
    if len(kprime) > cap:
        raise CapExceeded(f"|K'|={len(kprime)} exceeds the 3^n cap {cap}")
    vals = {zero}
    for g in kprime:
        vals = {vec_add(v, vec_scale(s, g)) for v in vals for s in (-1, 0, 1)}
    return SetReport(sorted(vals), True)


def alt_sum_set(e: Enumeration, cap: int = ALT_SUM_CAP) -> SetReport:
    """Alternating sums k_{j1} - k_{j2} + ... over increasing index subsequences
    of odd length at least 3."""
    if e.J > cap:
        raise CapExceeded(f"J={e.J} exceeds the 2^J cap {cap}")
    out = set()
    d = e.dim
    zero = tuple(0 for _ in range(d))

    def rec(j, length, val):
        if length >= 3 and length % 2 == 1:
            out.add(val)
        if j == e.J:
            return
        for nxt in range(j, e.J):
            sign = 1 if length % 2 == 0 else -1
            rec(nxt + 1, length + 1, vec_add(val, vec_scale(sign, e.entries[nxt])))

    rec(0, 0, zero)
    return SetReport(sorted(out), True)


# ---------------------------------------------------------------------------
# the block sets G_{j+1} and D_j (dim 1, increasing)
# ---------------------------------------------------------------------------

def g_set(j: int, e: Enumeration, w: Window) -> SetReport:
    """The set G_{j+1}: values k_i - Σ_{j'=i}^{J-1} n_j' Δk_j' inside the window,
    with 1 <= i <= min(j+1, J-1) and some n_j' nonzero when i = j+1."""
    _require_increasing(e)
    J = e.J
    if not 1 <= j < J:
        raise ValueError(f"index j={j} out of range 1..{J - 1}")
    ks = e.scalars()
    blocks = [(ks[i - 1], i - 1, i == j + 1) for i in range(1, min(j + 1, J - 1) + 1)]
    return _gap_blocks(blocks, e.gaps(), w)


def d_set(j: int, e: Enumeration, w: Window) -> SetReport:
    """The set D_j: values -Σ n_j' Δk_j' with n >= 0, some n > 0, where the
    nonzero indices at or below j form a gap-free block ending at j, or are
    absent entirely (then all mass sits strictly above j).  D_J is empty.

    This is the windowed translate G_{j+1} - k_{j+1}; the agreement with
    `g_set` is a tested identity.
    """
    _require_increasing(e)
    J = e.J
    if not 1 <= j <= J:
        raise ValueError(f"index j={j} out of range 1..{J}")
    if j == J:
        return SetReport([], True)
    gaps = e.gaps()
    # block [i, j], each coefficient >= 1 there
    blocks = [(-sum(gaps[i - 1 : j]), i - 1, False) for i in range(1, j + 1)]
    if j + 1 <= J - 1:  # no index <= j used; some index above j nonzero
        blocks.append((0, j, True))
    return _gap_blocks(blocks, gaps, w)


def preorder_less(j: int, m, n, e: Enumeration, w: Window) -> bool:
    """m <*_j n, that is m - n ∈ D_j.  Values outside the window with a
    nonnegative difference are decidable (D_j is strictly negative); a
    difference below the window cannot be decided and raises."""
    diff = vec_sub(as_vec(m), as_vec(n))[0]
    if w.lo[0] <= diff <= w.hi[0]:
        ms = d_set(j, e, w).members
        i = bisect_left(ms, (diff,))
        return i < len(ms) and ms[i] == (diff,)
    if diff >= 0:
        return False
    raise UndecidableWindow("undecidable within window")


def check_inclusion_s_in_schur_riesz(e: Enumeration, w: Window):
    """S((k_j)) ⊂ Schur((k_j)) ∩ Riesz(K) inside the window; returns
    (holds, witnesses)."""
    s_members = {v for v in s_set(e).members if w.contains(v)}
    if not s_members:
        return True, []
    schur = schur_set(e, w)
    riesz = riesz_support(e.entries)
    good = schur.as_set() & riesz.as_set()
    witnesses = sorted(v for v in s_members if v not in good)
    return not witnesses, witnesses
