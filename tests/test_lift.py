import itertools

import numpy as np

from paleylab.lift import (
    check_simple_s,
    lift_enumeration,
    lifted_d_sets,
    lifted_riesz_support,
    lifted_s_set,
    lifted_schur_set,
)
from paleylab.sets import Enumeration, s_set


def test_pairs_and_order():
    le = lift_enumeration(Enumeration([5, 2, 9]))
    pairs = le.pairs()
    assert pairs == [(5, 1, 0, 0), (2, 0, 1, 0), (9, 0, 0, 1)]
    # pairs are ordered by their vector parts alone
    order = le.vector_order()
    assert order.less((1, 0, 0), (0, 1, 0))
    assert not order.less((0, 1, 0), (1, 0, 0))


def test_extreme_lacunarity_flag_exact():
    le = lift_enumeration(Enumeration([4, 9]))
    res = le.extreme_lacunarity()
    assert res.holds and res.exact


def test_lifted_s_set_example():
    le = lift_enumeration(Enumeration([1, 3, 7]))
    assert lifted_s_set(le).members == ((-3, 1, 1, -1),)


def test_lifted_riesz_one_point_per_sign_vector():
    le = lift_enumeration(Enumeration([2, 4]))
    rep = lifted_riesz_support(le)
    assert len(rep.members) == 9
    eps_parts = {m[1:] for m in rep.members}
    assert len(eps_parts) == 9


def test_lifted_d_sets_structure():
    le = lift_enumeration(Enumeration([1, 3, 7]))
    arrays = lifted_d_sets(le)
    assert all(ds.shape[1] == 1 + le.J for ds in arrays)
    dsets = [set(map(tuple, ds.tolist())) for ds in arrays]
    # membership and antinesting
    pairs = le.pairs()
    for j in range(le.J - 1):
        diff = tuple(a - b for a, b in zip(pairs[j], pairs[j + 1]))
        assert diff in dsets[j]
        assert dsets[j + 1] <= dsets[j]
    assert dsets[-1] == set()


def test_lifted_schur_matches_sign_conditions():
    # inside the cube, Schur membership is exactly the sign-vector conditions
    from paleylab.sets import admissible_signs
    import itertools

    le = lift_enumeration(Enumeration([4, -1, 6]))
    got = set(lifted_schur_set(le).members)
    expected = set()
    for eps in itertools.product((-1, 0, 1), repeat=3):
        if admissible_signs(eps):
            val = [sum(e * p[i] for e, p in zip(eps, le.pairs())) for i in range(4)]
            expected.add(tuple(val))
    # members with some |eps| > 1 exist in Schur but not in the cube window
    assert {m for m in got if all(-1 <= c <= 1 for c in m[1:])} == got
    assert expected <= got | set()
    assert got == expected  # extreme lacunarity: nothing else fits the cube


def test_check_simple_s_examples():
    ok, wit = check_simple_s(Enumeration([1, 3, 7]))
    assert ok and wit == []
    ok2, wit2 = check_simple_s(Enumeration([10, 4]))
    assert ok2 and wit2 == []


def test_check_simple_s_random_enumerations():
    rng = np.random.default_rng(77)
    for _ in range(30):
        J = int(rng.integers(1, 7))
        gammas = rng.choice(np.arange(-40, 41), size=J, replace=False)
        ok, wit = check_simple_s(Enumeration([int(g) for g in gammas]))
        assert ok, (gammas, wit[:4])


def test_projection_property_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        J = int(rng.integers(2, 7))
        gammas = [int(g) for g in rng.choice(np.arange(-25, 26), size=J, replace=False)]
        e = Enumeration(gammas)
        le = lift_enumeration(e)
        base = {v[0] for v in s_set(e).members}
        for m in lifted_s_set(le).members:
            assert m[0] in base


def _definition_oracle(le):
    """The lifted Schur set and D_1..D_{J-1} straight from their gap
    definitions, over every n in [0, 2(J-1)]^(J-1), cut to the cube.  In the
    cube every coefficient is at most J - 1, so the listing is complete."""
    P = np.array(le.pairs(), np.int64)
    J = len(P)
    n = np.array(list(itertools.product(range(2 * J - 1), repeat=J - 1)), np.int64)
    sums = n @ np.diff(P, axis=0)  # Σ_g n_g ΔK_g

    def rows(vals, keep):
        keep &= np.all(np.abs(vals[:, 1:]) <= 1, axis=1)
        return set(map(tuple, vals[keep].tolist()))

    schur = set()
    for i in range(J - 1):  # K_i - Σ_{g >= i} n_g ΔK_g, some n_g > 0
        schur |= rows(P[i] - sums, ~n[:, :i].any(axis=1) & n[:, i:].any(axis=1))
    dsets = []
    for j in range(1, J):
        low = n[:, :j] > 0  # the gap indices 1..j
        # those in use form a block ending at j (no used index before an
        # unused one), or none is used and the mass sits above j
        block = ~(low[:, :-1] & ~low[:, 1:]).any(axis=1)
        dsets.append(rows(-sums, block & n.any(axis=1)))
    return schur, dsets


def test_lifted_schur_and_d_sets_match_definitions():
    rng = np.random.default_rng(2024)
    ks = [[0, 5, -3], [4, 0], [7, -13, 29, 4, 0]]
    for _ in range(12):
        J = int(rng.integers(2, 6))
        ks.append([int(g) for g in rng.choice(np.arange(-30, 31), size=J, replace=False)])
    for gammas in ks:
        le = lift_enumeration(Enumeration(gammas))
        schur, dsets = _definition_oracle(le)
        assert set(map(tuple, lifted_schur_set(le).array.tolist())) == schur, gammas
        got = lifted_d_sets(le)
        assert [set(map(tuple, d.tolist())) for d in got[:-1]] == dsets, gammas
        assert got[-1].shape == (0, 1 + le.J)


def test_empty_lifted_s_set_keeps_its_dimension():
    le = lift_enumeration(Enumeration([1, 3]))
    assert lifted_s_set(le).array.shape == (0, 3)
    assert check_simple_s(Enumeration([1, 3])) == (True, [])
