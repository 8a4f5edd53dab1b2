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
    dsets = lifted_d_sets(le)
    # membership and antinesting
    pairs = le.pairs()
    for j in range(le.J - 1):
        diff = tuple(a - b for a, b in zip(pairs[j], pairs[j + 1]))
        assert diff in dsets[j]
        assert set(dsets[j + 1]) <= set(dsets[j])
    assert dsets[-1] == []


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
