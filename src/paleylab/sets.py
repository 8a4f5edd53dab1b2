"""Forbidden-set combinatorics: Schur, S, Riesz, alternating-sum, gap and block sets.

All sets here are infinite in general, so every enumeration is taken inside an
explicit window and reported with an `exact` flag telling whether the listing
is provably complete there.  Two independent routes to the Schur set are kept
deliberately separate: `schur_set` walks admissible sign vectors through their
partial-sum conditions, `schur_set_via_gaps` enumerates the gap representation
m = k_i - Σ n_j' Δk_j'; their agreement is a tested identity, not shared code.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=False)
class SetReport:
    """Members found inside a window plus a completeness flag.

    `array` holds the members as the rows of a read-only (n, d) int64 array,
    sorted lexicographically and distinct; a scalar member n is the row [n].
    The constructor takes any iterable of frequencies (ints or tuples) or an
    int64 array of them, repeats allowed; already-sorted scalar input is not
    re-sorted.  `members` builds the sorted tuple of frequency tuples on each
    read and is not kept.
    """

    array: np.ndarray
    exact: bool

    def __init__(self, members, exact):
        if not isinstance(members, np.ndarray):
            members = [as_vec(m) for m in members]
        try:
            a = np.array(members, np.int64)  # a copy: the report owns its array
        except OverflowError:
            raise ValueError("a member does not fit in int64") from None
        if a.ndim == 1:
            a = a[:, None]
        if a.shape[1] == 1:
            if not (a[1:] >= a[:-1]).all():  # one O(n) compare spares the sort
                a.sort(axis=0)
        else:
            a = a[np.lexsort(a.T[::-1])]
        distinct = (a[1:] != a[:-1]).any(axis=1)
        if not distinct.all():
            a = a[np.concatenate(([True], distinct))]
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "exact", bool(exact))

    @property
    def members(self) -> tuple:
        return tuple(zip(*self.array.T.tolist()))

    def to_json(self) -> dict:
        a = self.array
        return {"members": a[:, 0].tolist() if a.shape[1] == 1 else a.tolist(), "exact": self.exact}


def isin_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of the (n, d) array a, whether it is a row of b."""
    a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
    if a.shape[1] == 1:  # a binary search: np.isin costs 5x more on small sets
        s = np.sort(b[:, 0])
        if not s.size:
            return np.zeros(len(a), bool)
        return s[np.minimum(np.searchsorted(s, a[:, 0]), s.size - 1)] == a[:, 0]
    # the rows of b and a in one lexicographic order, b's copy of a row
    # first: a row of a is in b when the last row of b before it equals it.
    # (np.isin on a structured view is 4x slower and loads numpy.ma.)
    b = b.reshape(-1, a.shape[1])
    both = np.concatenate([b, a])
    from_a = np.arange(len(both)) >= len(b)
    order = np.lexsort((from_a, *both.T[::-1]))
    rows, from_a = both[order], from_a[order]
    last_b = np.maximum.accumulate(np.where(from_a, -1, np.arange(len(rows))))
    hit = (last_b >= 0) & (rows[last_b] == rows).all(axis=1)
    out = np.empty(len(a), bool)
    out[order[from_a] - len(b)] = hit[from_a]
    return out


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
    """reach ∪ (reach + g) ∪ (reach + 2g) ∪ ... inside the array range, as a
    new array.

    Doubling shifts: after the pass with shift s = 2^k g the table holds every
    shift of reach by 0, g, ..., (2^(k+1) - 1) g, so ⌈log2(n/g)⌉ contiguous
    forward ORs cover all of them.  numpy buffers the overlapping operands, so
    a pass reads the table as it was before that pass; an in-place reading
    would add only more multiples of g, so the result is the same either way.
    """
    n = reach.size
    if g <= 0:
        raise ValueError("closure needs a positive generator")
    r = reach.copy()
    s = g
    while s < n:
        np.logical_or(r[s:], r[:-s], out=r[s:])
        s *= 2
    return r


def _gap_blocks(blocks, gaps, w: Window) -> SetReport:
    """Window members of top - Σ_{j' >= i} n_j' gaps[j'] over nonnegative
    integers n, with some n positive when `nonzero`, united over the blocks
    (top, i, nonzero).  One table per gap suffix serves every block, and the
    union is one mask indexed p = lo + cap - v, so each block is a forward OR
    of a table slice and the members come out ascending and distinct."""
    lo, hi = w.lo[0], w.hi[0]
    cap = max((top for top, _, _ in blocks), default=lo - 1) - lo
    if cap < 0:
        return SetReport([], True)
    # tables[i] marks the sums Σ_{j' >= i} n_j' gaps[j'] on [0, cap]
    tables = [np.zeros(cap + 1, bool)]
    tables[0][0] = True
    for g in reversed(gaps):
        tables.append(_closure(tables[-1], g))
    tables.reverse()
    mask = np.zeros(cap + 1, bool)
    for top, i, nonzero in blocks:
        if top >= lo:  # sums t in [start, top - lo] land in the window
            start = max(top - hi, int(nonzero))
            tail = mask[lo + cap - top + start :]  # v = top - t sits at p = lo + cap - v
            tail |= tables[i][start : top - lo + 1]
    return SetReport((lo + cap - np.flatnonzero(mask))[::-1], True)


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
    start = max(ks[-1] - hi, 0)  # values k_J - T inside the window, ascending
    return (ks[-1] - start - np.flatnonzero(p2[start:]))[::-1]


def _rows(vals, d: int) -> np.ndarray:
    """Frequency tuples as the rows of an (n, d) int64 array, so that an empty
    collection keeps its dimension."""
    try:
        return np.array(list(vals), np.int64).reshape(-1, d)
    except OverflowError:
        raise ValueError("a member does not fit in int64") from None


def _sign_walk(vecs, bound: int = 1, w: Window | None = None,
               node_cap: int | None = None) -> np.ndarray:
    """Values Σ ε_j v_j over integer sign vectors with |ε_j| <= bound meeting
    the partial-sum conditions of `admissible_signs`, as (n, d) int64 rows.

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
    return _rows(out, d)


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
            return SetReport(members, True)
    bound = coeff_bound if coeff_bound is not None else 4
    return SetReport(_sign_walk(e.entries, bound, w, DFS_NODE_CAP), False)


def _schur_blocks(ks) -> list:
    """The gap blocks (top, i, nonzero) of the Schur set: k_i - Σ_{j' >= i}
    n_j' Δk_j' with some n positive, for i < J.  The entries of ks are ints,
    or int64 vectors for the lift."""
    return [(ks[i], i, True) for i in range(len(ks) - 1)]


def _d_blocks(j: int, ks) -> list:
    """The gap blocks of D_j, 1 <= j < J: block [i, j] has every coefficient
    there at least 1, so its top is -(Δk_i + ... + Δk_j) = k_i - k_{j+1};
    when j < J - 1 one more block puts all the mass strictly above j.  ks as
    for `_schur_blocks`."""
    blocks = [(ks[i] - ks[j], i, False) for i in range(j)]
    if j < len(ks) - 1:
        blocks.append((0, j, True))
    return blocks


def _require_increasing(e: Enumeration):
    if e.dim != 1 or not e.is_increasing():
        raise ValueError("gap representation requires increasing enumeration")


def schur_set_via_gaps(e: Enumeration, w: Window) -> SetReport:
    """Schur set through the gap representation m = k_i - Σ_{j'>=i} n_j' Δk_j'.

    Requires a strictly increasing integer enumeration; positive gaps bound
    the coefficients, so the windowed listing is exact.
    """
    _require_increasing(e)
    return _gap_blocks(_schur_blocks(e.scalars()), e.gaps(), w)


# ---------------------------------------------------------------------------
# S set, Riesz support, alternating sums
# ---------------------------------------------------------------------------

def s_set(e: Enumeration) -> SetReport:
    """Values Σ ε_j k_j over ε in {-1,0,1}^J meeting the partial-sum conditions."""
    if e.J > S_SET_CAP:
        raise CapExceeded(f"J={e.J} exceeds the 3^J cap {S_SET_CAP}")
    return SetReport(_sign_walk(e.entries), True)


def _signed_sum_keys(K):
    """K' = K \\ {0} as steps in a mixed-radix int64 key space.

    The keys number the box [-S, S], S the coordinatewise sum of |γ| over K',
    which holds every signed sum Σ ε_γ γ with ε_γ in {-1, 0, 1}.  The first
    coordinate is the most significant digit, so key order is lexicographic
    order, and the key of v + γ is key(v) + step(γ) inside the box.  Returns
    (key of 0, the steps, decode), where decode maps keys to (n, d) int64
    frequencies.  Raises CapExceeded, before anything is allocated, when
    |K'| > RIESZ_CAP or the box has more points than int64 can number.
    """
    pts = sorted({as_vec(g) for g in K})
    d = len(pts[0]) if pts else 1
    if any(len(g) != d for g in pts):
        raise ValueError("mixed dimensions in K")
    kprime = [g for g in pts if any(g)]
    if len(kprime) > RIESZ_CAP:
        raise CapExceeded(f"|K'|={len(kprime)} exceeds the 3^n cap {RIESZ_CAP}")
    half = [sum(abs(g[c]) for g in kprime) for c in range(d)]
    radix = [2 * h + 1 for h in half]
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise CapExceeded("the signed sums of K do not fit 64-bit keys")
    strides = [math.prod(radix[c + 1 :]) for c in range(d)]
    steps = [sum(x * st for x, st in zip(g, strides)) for g in kprime]

    def decode(keys: np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(keys, radix), axis=1).astype(np.int64) - half

    return sum(h * st for h, st in zip(half, strides)), steps, decode


def signed_sums(K) -> tuple[np.ndarray, np.ndarray, int]:
    """The signed sums Σ ε_γ γ, ε in {-1, 0, 1}^K', K' = K \\ {0}, with weights.

    Returns (freqs, nums, |K'|): the distinct sums as an (n, d) int64 array in
    lexicographic order, and for each the int64 sum over its representations
    of 2^(number of ε_γ = 0), the numerator of the Riesz coefficient over
    2^|K'|.  Every weight is positive.  Each γ is one step: three shifted
    copies, a sort and a segmented sum over the keys of `_signed_sum_keys`
    (a neighbour compare, since np.unique would load numpy.ma).  The weights
    sum to 4^|K'|, so the cap keeps them exact.
    """
    origin, steps, decode = _signed_sum_keys(K)
    keys = np.array([origin], np.int64)
    nums = np.ones(1, np.int64)
    for step in steps:
        keys = np.concatenate([keys - step, keys, keys + step])
        nums = np.concatenate([nums, 2 * nums, nums])
        order = np.argsort(keys, kind="stable")
        keys, nums = keys[order], nums[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, nums = keys[starts], np.add.reduceat(nums, starts)
    return decode(keys), nums, len(steps)


def riesz_support(K) -> SetReport:
    """All signed {-1,0,1} combinations of K \\ {0}; always contains 0."""
    return SetReport(signed_sums(K)[0], True)


def alt_sum_set(e: Enumeration) -> SetReport:
    """Alternating sums k_{j1} - k_{j2} + ... over increasing index subsequences
    of odd length at least 3."""
    if e.J > ALT_SUM_CAP:
        raise CapExceeded(f"J={e.J} exceeds the 2^J cap {ALT_SUM_CAP}")
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
    return SetReport(_rows(out, d), True)


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
    return _gap_blocks(_d_blocks(j, e.scalars()), e.gaps(), w)


def preorder_less(j: int, m, n, e: Enumeration, w: Window) -> bool:
    """m <*_j n, that is m - n ∈ D_j.  Values outside the window with a
    nonnegative difference are decidable (D_j is strictly negative); a
    difference below the window cannot be decided and raises."""
    diff = vec_sub(as_vec(m), as_vec(n))[0]
    if w.lo[0] <= diff <= w.hi[0]:
        ms = d_set(j, e, w).array[:, 0]
        i = int(np.searchsorted(ms, diff))
        return bool(i < ms.size and ms[i] == diff)
    if diff >= 0:
        return False
    raise UndecidableWindow("undecidable within window")


def check_inclusion_s_in_schur_riesz(e: Enumeration, w: Window):
    """S((k_j)) ⊂ Schur((k_j)) ∩ Riesz(K) inside the window; returns
    (holds, witnesses)."""
    s = s_set(e).array
    s = s[np.all((s >= w.lo) & (s <= w.hi), axis=1)]
    if not len(s):
        return True, []
    good = isin_rows(s, schur_set(e, w).array) & isin_rows(s, riesz_support(e.entries).array)
    witnesses = [tuple(v) for v in s[~good].tolist()]
    return not witnesses, witnesses
