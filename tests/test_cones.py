import pytest

from paleylab.cones import (
    ConeOrder,
    is_extremely_lacunary,
    is_strongly_lacunary,
    is_strongly_lacunary_ordered,
)


@pytest.mark.parametrize(
    "ks,expected",
    [((1, 3, 7, 15), True), ((1, 2, 4), False), ((5,), True), ((), True), ((0, 1, 3), True)],
)
def test_strongly_lacunary(ks, expected):
    assert is_strongly_lacunary(ks) is expected


def test_strongly_lacunary_rejects_negative():
    with pytest.raises(ValueError):
        is_strongly_lacunary([-1, 3])


def test_ordered_lacunary_half_line():
    half = ConeOrder("half-line")
    assert is_strongly_lacunary_ordered([1, 3], half) is True
    assert is_strongly_lacunary_ordered([1, 2], half) is False


def test_ordered_lacunary_lex_last():
    order = ConeOrder("lex-last", dim=2)
    assert is_strongly_lacunary_ordered([(5, 1), (0, 3)], order) is True


def test_lex_last_strict_cone():
    order = ConeOrder("lex-last", dim=2)
    assert order.in_strict_cone((-10, 1))
    assert not order.in_strict_cone((3, -1))
    assert order.in_strict_cone((3, 0))
    assert not order.in_strict_cone((0, 0))


def test_generator_cone_membership_and_axiom():
    cone = ConeOrder("generators", dim=2, generators=((1, 0), (0, 1)), bound=16)
    report = cone.check_pointed()
    assert report.pointed and not report.exact and report.bound == 16
    assert cone.in_strict_cone((3, 2))
    assert not cone.in_strict_cone((-1, 2))
    assert not cone.in_strict_cone((0, 0))


def test_generator_cone_axiom_failure_detected():
    cone = ConeOrder("generators", dim=1, generators=((1,), (-1,)), bound=8)
    report = cone.check_pointed()
    assert not report.pointed
    with pytest.raises(ValueError, match="axiom"):
        is_strongly_lacunary_ordered([1, 3], cone)


def test_extremely_lacunary_standard_lift_exact():
    order = ConeOrder("lex-last", dim=4)
    basis = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    res = is_extremely_lacunary(basis, order, m_max=1)
    assert res.holds and res.exact


@pytest.mark.parametrize("m_max,holds", [(2, True), (3, False)])
def test_extremely_lacunary_bounded_check(m_max, holds):
    res = is_extremely_lacunary([1, 3, 7], ConeOrder("half-line"), m_max=m_max)
    assert res.holds is holds
    assert not res.exact or not holds


def test_extremely_lacunary_wide_gaps():
    res = is_extremely_lacunary([1, 10, 1000], ConeOrder("half-line"), m_max=5)
    assert res.holds and not res.exact


def test_extremely_lacunary_requires_total_order():
    cone = ConeOrder("generators", dim=2, generators=((1, 0),))
    with pytest.raises(ValueError, match="total"):
        is_extremely_lacunary([(1, 0)], cone, m_max=2)


def test_riesz_support_of_lacunary_stays_in_cone_union():
    # for strongly lacunary K in a partial order, the Riesz support never
    # leaves P ∪ (-P)
    from paleylab.sets import riesz_support

    cone = ConeOrder("generators", dim=2, generators=((1, 0), (0, 1)), bound=64)
    K = [(1, 1), (3, 4), (8, 16)]
    assert is_strongly_lacunary_ordered(K, cone)
    for m in riesz_support(K).members:
        neg = tuple(-c for c in m)
        assert (
            m == (0, 0)
            or cone.in_strict_cone(m)
            or cone.in_strict_cone(neg)
        ), m
