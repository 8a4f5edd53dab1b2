"""Product-group lift: pair each frequency with a standard basis vector.

Lifting (γ_j) to (γ_j, e_j) in Z x Z^J, ordered by the last nonzero component
of the vector part, makes the lifted set extremely lacunary: every element of
the ambient group has at most one integer combination over the lifted set, so
the sign-vector part of any member IS its coefficient vector.  Windowed to
the cube {-1,0,1}^J (the natural window: each lifted axis only ever carries
coefficients from {-1,0,1}), every set of interest becomes an exact, tiny
enumeration: the Schur set and the D_j walk the gap blocks of `sets.py`
through the cube, where each gap coefficient has at most three choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ConeOrder, Vec
from .sets import (
    Enumeration,
    SetReport,
    _d_blocks,
    _schur_blocks,
    isin_rows,
    riesz_support,
    s_set,
)


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


def lifted_s_set(le: LiftedEnumeration) -> SetReport:
    """S of the lifted enumeration: members (Σ ε_j γ_j, ε)."""
    return s_set(Enumeration(le.pairs()))


def lifted_riesz_support(le: LiftedEnumeration) -> SetReport:
    """Riesz support of the lifted set: one point per sign vector."""
    return riesz_support(le.pairs())


def _cube_blocks(blocks, P: np.ndarray) -> SetReport:
    """Cube members of top - Σ_{g >= i} n_g ΔK_g over nonnegative integers n,
    with some n positive when `nonzero`, united over the blocks (top, i,
    nonzero) of `sets._schur_blocks` and `sets._d_blocks`: the lift's
    `sets._gap_blocks`.  The rows of P are the lifted pairs K_0, ..., K_{J-1}.

    ΔK_g has vector part e_{g+1} - e_g, so coordinate g of a member is
    t_g + n_g - n_{g-1}, and it is final once n_g is chosen.  All blocks walk
    g = 0, 1, ... together, n_g = 0 below a block's i; the cube leaves n_g at
    most three values, so the walk lists every cube member exactly.
    """
    val = np.zeros((len(blocks), P.shape[1]), np.int64)
    start = np.zeros(len(blocks), np.int64)
    pos = np.zeros(len(blocks), bool)  # some n > 0, or not asked for
    for b, (top, i, nonzero) in enumerate(blocks):
        val[b], start[b], pos[b] = top, i, not nonzero
    for g, dk in enumerate(np.diff(P, axis=0)):
        # n_g = -1 - c, -c or 1 - c puts coordinate g = c + n_g in [-1, 1]
        n = -1 - val[:, 1 + g, None] + np.arange(3)
        row, col = np.nonzero((n >= 0) & ((start[:, None] <= g) | (n == 0)))
        n = n[row, col]
        val, start, pos = val[row] - n[:, None] * dk, start[row], pos[row] | (n > 0)
    return SetReport(val[pos & np.all(np.abs(val[:, 1:]) <= 1, axis=1)], True)


def lifted_schur_set(le: LiftedEnumeration) -> SetReport:
    """Schur set of the lifted enumeration inside the {-1,0,1}^J cube window
    (exact): the gap representation K_i - Σ_{g >= i} n_g ΔK_g, some n > 0."""
    P = np.array(le.pairs(), np.int64)
    return _cube_blocks(_schur_blocks(P), P)


def lifted_d_sets(le: LiftedEnumeration) -> list[np.ndarray]:
    """The D_j member arrays of the lifted enumeration inside the cube window
    (exact), each (n_j, 1 + J), for j = 1..J; D_J is empty."""
    P = np.array(le.pairs(), np.int64)
    return [_cube_blocks(_d_blocks(j, P), P).array for j in range(1, le.J)] + [
        np.zeros((0, 1 + le.J), np.int64)
    ]


def check_simple_s(e: Enumeration):
    """Exactness of the lifted simple set: S = Schur ∩ Riesz after lifting,
    plus the projection of lifted S membership to plain S membership.

    Returns (ok, witnesses); witnesses lists any element separating the two
    sides or violating the projection property.
    """
    le = lift_enumeration(e)
    s_lift, schur, riesz = (
        rep.array for rep in (lifted_s_set(le), lifted_schur_set(le), lifted_riesz_support(le))
    )
    rhs = schur[isin_rows(schur, riesz)]
    apart = np.concatenate([s_lift[~isin_rows(s_lift, rhs)], rhs[~isin_rows(rhs, s_lift)]])
    witnesses = [tuple(m) for m in SetReport(apart, True).array.tolist()]
    outside = s_lift[~np.isin(s_lift[:, 0], s_set(e).array[:, 0])]
    witnesses.extend(map(tuple, outside.tolist()))
    return (not witnesses), witnesses
