"""Product-group lift: pair each frequency with a standard basis vector.

Lifting (γ_j) to (γ_j, e_j) in Z x Z^J, ordered by the last nonzero component
of the vector part, makes the lifted set extremely lacunary: every element of
the ambient group has at most one integer combination over the lifted set, so
the sign-vector part of any member IS its coefficient vector.  Windowed to
the cube {-1,0,1}^J (the natural window: each lifted axis only ever carries
coefficients from {-1,0,1}), every set of interest becomes an exact, tiny
enumeration over staircase coefficient paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import ConeOrder, Vec, vec_scale, vec_sub
from .sets import Enumeration, SetReport, riesz_support, s_set


@dataclass(frozen=True)
class LiftedEnumeration:
    """Pairs (γ_j, e_j); vectors live in Z^{1+J} as (γ, ε_1, ..., ε_J)."""

    base: Enumeration

    def __post_init__(self):
        if self.base.dim != 1:
            raise ValueError("lift starts from an integer enumeration")
        if self.base.J < 1:
            raise ValueError("lift needs at least one frequency")

    @property
    def J(self) -> int:
        return self.base.J

    def gammas(self) -> list[int]:
        return self.base.scalars()

    def pairs(self) -> list[Vec]:
        J = self.J
        out = []
        for j, g in enumerate(self.gammas()):
            out.append((g,) + tuple(1 if i == j else 0 for i in range(J)))
        return out

    def vector_order(self) -> ConeOrder:
        return ConeOrder("lex-last", dim=self.J)

    def extreme_lacunarity(self):
        from .cones import is_extremely_lacunary

        vecs = [p[1:] for p in self.pairs()]
        return is_extremely_lacunary(vecs, self.vector_order(), m_max=1)


def lift_enumeration(e: Enumeration) -> LiftedEnumeration:
    return LiftedEnumeration(e)


def _cube_ok(v: Vec) -> bool:
    return all(-1 <= c <= 1 for c in v)


def lifted_s_set(le: LiftedEnumeration, gamma_half: int | None = None) -> SetReport:
    """S of the lifted enumeration: members (Σ ε_j γ_j, ε)."""
    members = s_set(Enumeration(le.pairs())).members
    if gamma_half is not None:
        members = [m for m in members if abs(m[0]) <= gamma_half]
    return SetReport(members, True)


def lifted_riesz_support(le: LiftedEnumeration) -> SetReport:
    """Riesz support of the lifted set: one point per sign vector."""
    return riesz_support(le.pairs())


def _staircases(lo_idx: int, hi_idx: int, start: int, last_cap: int):
    """Integer paths u_{lo..hi} with u_lo = start, u >= 0, steps in {-1,0,1},
    and u_hi <= last_cap; yields tuples."""
    if lo_idx > hi_idx:
        yield ()
        return
    stack = [(lo_idx, (start,))]
    while stack:
        idx, path = stack.pop()
        if idx == hi_idx:
            if path[-1] <= last_cap:
                yield path
            continue
        for step in (-1, 0, 1):
            nxt = path[-1] + step
            if nxt >= 0:
                stack.append((idx + 1, path + (nxt,)))


def lifted_schur_set(le: LiftedEnumeration, gamma_half: int | None = None) -> SetReport:
    """Schur set of the lifted enumeration inside the {-1,0,1}^J cube window.

    Members have the gap representation K_i - Σ_{j'>=i} u_j' ΔK_j'; inside
    the cube the coefficient paths are forced into staircases with u_i = 0,
    |u_{l} - u_{l-1}| <= 1 and u_{J-1} <= 1, so the listing is exact.
    """
    pairs = le.pairs()
    J = le.J
    gaps = [vec_sub(pairs[j + 1], pairs[j]) for j in range(J - 1)]
    members = set()
    for i in range(1, J):  # 1-based start index of the representation
        for path in _staircases(i, J - 1, 0, 1):
            if all(u == 0 for u in path):
                continue
            val = pairs[i - 1]
            for off, u in enumerate(path):
                if u:
                    val = vec_sub(val, vec_scale(u, gaps[i - 1 + off]))
            if _cube_ok(val[1:]):
                members.add(val)
    if gamma_half is not None:
        members = {m for m in members if abs(m[0]) <= gamma_half}
    return SetReport(sorted(members), True)


def lifted_d_set(j: int, le: LiftedEnumeration, gamma_half: int | None = None) -> SetReport:
    """D_j of the lifted enumeration inside the cube window (exact).

    Members are -Σ n_j' ΔK_j' with n >= 0, some n > 0, and the nonzero
    indices at or below j forming a block ending at j or absent entirely.
    """
    pairs = le.pairs()
    J = le.J
    if not 1 <= j <= J:
        raise ValueError(f"index j={j} out of range 1..{J}")
    if j == J:
        return SetReport([], True)
    gaps = [vec_sub(pairs[i + 1], pairs[i]) for i in range(J - 1)]
    members = set()

    def emit(path, start_idx):
        val = (0,) * (1 + J)
        for off, u in enumerate(path):
            if u:
                val = vec_sub(val, vec_scale(u, gaps[start_idx - 1 + off]))
        if _cube_ok(val[1:]):
            members.add(val)

    # block [i, j]: coefficients >= 1 there, >= 0 above j, zero below i
    for i in range(1, j + 1):
        for path in _staircases(i, J - 1, 1, 1):
            if any(u < 1 for u in path[: j - i + 1]):
                continue
            emit(path, i)
    # support strictly above j; the leading coefficient may be 0 or 1
    if j + 1 <= J - 1:
        for start in (0, 1):
            for path in _staircases(j + 1, J - 1, start, 1):
                if any(u > 0 for u in path):
                    emit(path, j + 1)
    if gamma_half is not None:
        members = {m for m in members if abs(m[0]) <= gamma_half}
    return SetReport(sorted(members), True)


def lifted_d_sets(le: LiftedEnumeration, gamma_half: int | None = None) -> list[list[Vec]]:
    return [list(lifted_d_set(j, le, gamma_half).members) for j in range(1, le.J + 1)]


def check_simple_s(e: Enumeration, gamma_half: int | None = None):
    """Exactness of the lifted simple set: S = Schur ∩ Riesz after lifting,
    plus the projection of lifted S membership to plain S membership.

    Returns (ok, witnesses); witnesses lists any element separating the two
    sides or violating the projection property.
    """
    le = lift_enumeration(e)
    s_lift = lifted_s_set(le, gamma_half).as_set()
    schur = lifted_schur_set(le, gamma_half).as_set()
    riesz = lifted_riesz_support(le).as_set()
    if gamma_half is not None:
        riesz = {m for m in riesz if abs(m[0]) <= gamma_half}
    rhs = schur & riesz
    witnesses = sorted(s_lift ^ rhs)
    base_s = {v[0] for v in s_set(e).members}
    for m in sorted(s_lift):
        if m[0] not in base_s:
            witnesses.append(m)
    return (not witnesses), witnesses
