from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleylab.grid import GridSpec, WindowViolation, norm_l1, synth
from paleylab.riesz import riesz_expansion, riesz_polynomial
from paleylab.sets import CapExceeded
from conftest import random_lacunary


def test_expansion_pair():
    exp = riesz_expansion([1, 3])
    expected = {
        0: Fraction(1),
        1: Fraction(1, 2),
        -1: Fraction(1, 2),
        3: Fraction(1, 2),
        -3: Fraction(1, 2),
        2: Fraction(1, 4),
        -2: Fraction(1, 4),
        4: Fraction(1, 4),
        -4: Fraction(1, 4),
    }
    assert {k[0]: v for k, v in exp.coeffs.items()} == expected


def test_expansion_singleton_and_zero_dropped():
    assert {k[0]: v for k, v in riesz_expansion([5]).coeffs.items()} == {
        0: Fraction(1),
        5: Fraction(1, 2),
        -5: Fraction(1, 2),
    }
    assert riesz_expansion([0, 5]).coeffs == riesz_expansion([5]).coeffs


def test_expansion_overlapping_representations():
    # 0 = 1 + 2 - 3 and its negation each contribute 1/8
    exp = riesz_expansion([1, 2, 3])
    assert exp[(0,)] == Fraction(5, 4)
    assert exp[(1,)] > Fraction(1, 2)


def test_polynomial_matches_expansion_and_is_nonnegative():
    spec = GridSpec((64,), (10,))
    f, exp = riesz_polynomial([1, 3], spec)
    resynth = synth(exp.spectrum(), spec)
    assert np.max(np.abs(f.samples - resynth.samples)) <= 1e-12
    assert f.samples.real.min() >= -1e-12
    assert np.max(np.abs(f.samples.imag)) <= 1e-12


def test_polynomial_window_guard():
    with pytest.raises(WindowViolation):
        riesz_polynomial([1, 3], GridSpec((8,), (3,)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lacunary_coefficient_facts_exact(seed):
    rng = np.random.default_rng(seed)
    ks = random_lacunary(rng, max_j=12, k_max=3000)
    exp = riesz_expansion(ks)
    assert exp[(0,)] == Fraction(1)
    for k in ks:
        assert exp[(k,)] >= Fraction(1, 2)


def test_l1_norm_is_one_for_lacunary():
    for ks in ([1, 3], [2, 5, 11, 23], [1, 3, 7, 15, 31]):
        spec = GridSpec((512,), (sum(ks) + 1,))
        f, exp = riesz_polynomial(ks, spec)
        assert abs(norm_l1(f) - 1.0) <= 1e-10
        assert exp[(0,)] == 1


def test_to_json_dyadic_triples():
    triples = riesz_expansion([1, 3]).to_json()
    assert [0, 1, 0] in triples         # c(0) = 1 / 2^0
    assert [1, 1, 1] in triples         # c(1) = 1 / 2^1
    assert [2, 1, 2] in triples         # c(2) = 1 / 2^2


def test_multi_axis_expansion():
    exp = riesz_expansion([(5, 1), (0, 3)])
    assert exp[(0, 0)] == Fraction(1)
    assert exp[(5, 1)] == Fraction(1, 2)
    assert exp[(5, 4)] == Fraction(1, 4)
    assert exp[(-5, 2)] == Fraction(1, 4)


def _fraction_expansion(K):
    """Independent oracle: convolve Fraction coefficients factor by factor."""
    pts = sorted({tuple(g) if isinstance(g, tuple) else (g,) for g in K})
    zero = (0,) * len(pts[0])
    coeffs = {zero: Fraction(1)}
    for g in (p for p in pts if p != zero):
        nxt = {}
        for n, c in coeffs.items():
            for sign, w in ((0, Fraction(1)), (1, Fraction(1, 2)), (-1, Fraction(1, 2))):
                m = tuple(a + sign * b for a, b in zip(n, g))
                nxt[m] = nxt.get(m, Fraction(0)) + c * w
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("K", [[1, 3], [1, 2, 3], [0, 5], [(5, 1), (0, 3)]])
def test_integer_expansion_matches_fraction_oracle(K):
    exp = riesz_expansion(K)
    oracle = _fraction_expansion(K)
    assert exp.coeffs == oracle
    assert all(exp[n] == c for n, c in oracle.items())


def _dict_expansion(K):
    """Independent oracle: the integer numerators by a dict convolution,
    num[n] -> 2 num[n] + num[n - g] + num[n + g] per factor."""
    pts = sorted({tuple(g) if isinstance(g, tuple) else (g,) for g in K})
    zero = (0,) * len(pts[0])
    num = {zero: 1}
    for g in (p for p in pts if p != zero):
        nxt = {n: 2 * c for n, c in num.items()}
        for n, c in num.items():
            for sign in (1, -1):
                m = tuple(a + sign * b for a, b in zip(n, g))
                nxt[m] = nxt.get(m, 0) + c
        num = nxt
    return num, len(pts) - (zero in pts)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-6, 6), st.integers(-2, 2)),
                min_size=1, max_size=9))
def test_vector_expansion_matches_dict_oracle(K):
    exp = riesz_expansion(K)
    num, exp2 = _dict_expansion(K)
    assert exp.exp2 == exp2
    assert exp.numerators == num
    assert hash(frozenset(exp.numerators.items())) == hash(frozenset(num.items()))
    assert exp.freqs.dtype == np.int64 and exp.nums.dtype == np.int64
    assert exp.freqs.tolist() == [list(n) for n in sorted(num)]  # lexicographic order
    assert int(exp.nums.sum()) == 4**exp2


def test_expansion_cap_raises_before_work():
    with pytest.raises(CapExceeded):
        riesz_expansion([3**j for j in range(1, 16)])  # |K'| = 15 > RIESZ_CAP
    with pytest.raises(CapExceeded):  # the key box has more than 2^63 points
        riesz_expansion([(2**40, 1), (1, 2**40)])
