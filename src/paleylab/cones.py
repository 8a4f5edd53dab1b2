"""Orders on integer frequency lattices and the lacunarity predicates built on them.

A cone order is given by an additive semigroup P with P ∩ (-P) = {0}; the
strict cone P' = P \\ {0} decides all comparisons.  Three kinds are supported:
the usual order on Z ("half-line"), the total order on Z^d by the sign of the
last nonzero component ("lex-last"), and finitely generated semigroups
("generators"), whose membership and pointedness checks are bounded searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

Vec = tuple[int, ...]


def as_vec(x) -> Vec:
    """Canonical tuple form of a frequency (ints become 1-vectors)."""
    if isinstance(x, tuple):
        return tuple(int(c) for c in x)
    return (int(x),)


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(m: int, a: Vec) -> Vec:
    return tuple(m * x for x in a)


class ConeAxiomReport(NamedTuple):
    pointed: bool
    exact: bool          # False when only verified by bounded search
    bound: int           # search bound used (0 for exact kinds)
    witness: Vec | None  # nontrivial representation of 0, if one was found


class ExtremeLacunarity(NamedTuple):
    holds: bool
    exact: bool  # True when the check covers every positive multiplier


@dataclass(frozen=True)
class ConeOrder:
    """Partial (or total) order on Z^dim defined by a strict positive cone."""

    kind: str  # "half-line" | "lex-last" | "generators"
    dim: int = 1
    generators: tuple[Vec, ...] = ()
    bound: int = 64

    def __post_init__(self):
        if self.kind not in ("half-line", "lex-last", "generators"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.kind == "half-line" and self.dim != 1:
            raise ValueError("half-line order requires dim 1")
        if self.kind == "generators":
            if not self.generators:
                raise ValueError("generator cone needs at least one generator")
            gens = tuple(as_vec(g) for g in self.generators)
            if any(len(g) != self.dim for g in gens):
                raise ValueError("generator dimensions disagree with cone dim")
            if any(all(c == 0 for c in g) for g in gens):
                raise ValueError("zero vector cannot generate a strict cone")
            object.__setattr__(self, "generators", gens)

    @property
    def is_total(self) -> bool:
        return self.kind in ("half-line", "lex-last")

    def in_strict_cone(self, v) -> bool:
        v = as_vec(v)
        if len(v) != self.dim:
            raise ValueError(f"dimension mismatch: {v} vs cone dim {self.dim}")
        if self.kind == "half-line":
            return v[0] > 0
        if self.kind == "lex-last":
            for c in reversed(v):
                if c != 0:
                    return c > 0
            return False
        if all(c == 0 for c in v):
            return False
        return v in self._reachable()

    def _reachable(self) -> frozenset:
        """All sums of 1..bound generators, enumerated once and cached."""
        cached = getattr(self, "_reachable_cache", None)
        if cached is not None:
            return cached
        zero = (0,) * self.dim
        seen = {zero}
        frontier = {zero}
        for _ in range(self.bound):
            nxt = set()
            for u in frontier:
                for g in self.generators:
                    w = vec_add(u, g)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
            if len(seen) > 500_000:
                raise ValueError(
                    "generator cone too large to enumerate within the bound;"
                    " reduce the bound or the generators"
                )
            if not nxt:
                break
            frontier = nxt
        seen.discard(zero)
        out = frozenset(seen)
        object.__setattr__(self, "_reachable_cache", out)
        return out

    def check_pointed(self) -> ConeAxiomReport:
        """Verify P ∩ (-P) = {0}; bounded search for generator cones."""
        if self.kind in ("half-line", "lex-last"):
            return ConeAxiomReport(True, True, 0, None)
        # pointedness fails iff 0 has a nontrivial representation; search sums
        # of up to `bound` generators for a return to the origin.
        zero = (0,) * self.dim
        frontier = {zero}
        seen = {zero}
        for _ in range(self.bound):
            nxt = set()
            for u in frontier:
                for g in self.generators:
                    w = vec_add(u, g)
                    if w == zero:
                        return ConeAxiomReport(False, False, self.bound, g)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
                    if len(seen) > 200_000:
                        return ConeAxiomReport(True, False, self.bound, None)
            frontier = nxt
        return ConeAxiomReport(True, False, self.bound, None)

    def less(self, a, b) -> bool:
        """a < b in the cone order."""
        return self.in_strict_cone(vec_sub(as_vec(b), as_vec(a)))


def is_strongly_lacunary(entries) -> bool:
    """k_{j+1} > 2 k_j for every consecutive pair of nonnegative integers."""
    ks = [int(k) for k in entries]
    if any(k < 0 for k in ks):
        raise ValueError("strong lacunarity is defined for nonnegative integers")
    return all(b > 2 * a for a, b in zip(ks, ks[1:]))


def is_strongly_lacunary_ordered(K, order: ConeOrder) -> bool:
    """For every distinct pair, γ - 2γ' or γ' - 2γ lies in the strict cone."""
    report = order.check_pointed()
    if not report.pointed:
        raise ValueError(
            f"cone axiom P ∩ (-P) = {{0}} failed (witness {report.witness})"
        )
    pts = [as_vec(g) for g in K]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            if not (
                order.in_strict_cone(vec_sub(a, vec_scale(2, b)))
                or order.in_strict_cone(vec_sub(b, vec_scale(2, a)))
            ):
                return False
    return True


def _is_standard_lift(entries) -> bool:
    vs = [as_vec(e) for e in entries]
    d = len(vs[0]) if vs else 0
    return bool(vs) and len(vs) == d and all(
        v == tuple(1 if i == j else 0 for i in range(d)) for j, v in enumerate(vs)
    )


def is_extremely_lacunary(entries, order: ConeOrder, m_max: int) -> ExtremeLacunarity:
    """k_{j+1} > m k_j for m = 1..m_max; exact for standard lift vectors.

    Under the lex-last order the standard basis vectors e_1..e_J pass for
    every positive multiplier, since e_{j+1} - m e_j has last nonzero
    component +1; the returned flag records that the bounded check is in
    fact exhaustive there.
    """
    if not order.is_total:
        raise ValueError("extreme lacunarity requires a total order")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    vs = [as_vec(e) for e in entries]
    if order.kind == "lex-last" and _is_standard_lift(vs):
        return ExtremeLacunarity(True, True)
    for a, b in zip(vs, vs[1:]):
        for m in range(1, m_max + 1):
            if not order.in_strict_cone(vec_sub(b, vec_scale(m, a))):
                return ExtremeLacunarity(False, False)
    return ExtremeLacunarity(True, False)
