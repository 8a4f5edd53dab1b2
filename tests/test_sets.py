import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleylab.sets import (
    CapExceeded,
    Enumeration,
    SetReport,
    UndecidableWindow,
    Window,
    _closure,
    admissible_signs,
    alt_sum_set,
    check_inclusion_s_in_schur_riesz,
    d_set,
    g_set,
    isin_rows,
    preorder_less,
    required_coeff_bound,
    riesz_support,
    s_set,
    schur_set,
    schur_set_via_gaps,
)
from paleylab.lift import lift_enumeration, lifted_s_set
from conftest import brute_force_schur, random_lacunary


def members(report):
    return report.array[:, 0].tolist()


# --- type plumbing ---------------------------------------------------------

def test_enumeration_rejects_duplicates_and_mixed_dims():
    with pytest.raises(ValueError):
        Enumeration([1, 1, 3])
    with pytest.raises(ValueError):
        Enumeration([1, (1, 2)])


def test_window_orientation():
    with pytest.raises(ValueError):
        Window(3, -3)
    assert Window(-2, 5).contains(0)
    assert not Window(-2, 5).contains(6)


def test_set_report_sorted_canonical():
    rep = SetReport([5, -1, 3, -1], True)
    assert rep.array[:, 0].tolist() == [-1, 3, 5]
    rep2 = SetReport([(1, 2), (0, 5), (1, -1)], False)
    assert rep2.members == ((0, 5), (1, -1), (1, 2))


@pytest.mark.parametrize("d", [1, 2])
def test_set_report_array_independent_of_input_order(d):
    rng = np.random.default_rng(16)
    rows = np.unique(rng.integers(-50, 50, size=(40, d)), axis=0)  # ascending, distinct
    want = rows.tolist()
    shuffled = rows[rng.permutation(len(rows))]
    repeated = np.repeat(rows, rng.integers(1, 4, size=len(rows)), axis=0)  # nondecreasing
    for ms in (rows, rows[::-1], shuffled, repeated, repeated[::-1]):
        for given in (ms, [tuple(m) for m in ms.tolist()]):
            rep = SetReport(given, True)
            assert rep.array.tolist() == want
            assert rep.array.dtype == np.int64 and not rep.array.flags.writeable
    for empty in ([], np.zeros(0, np.int64)):
        assert SetReport(empty, False).array.shape == (0, 1)


def _naive_closure(reach, g):
    """reach ∪ (reach + g) ∪ (reach + 2g) ∪ ..., one shift of reach at a time."""
    out = reach.copy()
    for shift in range(g, reach.size, g):
        out[shift:] |= reach[: reach.size - shift]
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 64, 101])
def test_closure_matches_repeated_shift_union(n):
    rng = np.random.default_rng(n)
    tables = [rng.random(n) < p for p in (0.02, 0.3)]
    tables.append(np.zeros(n, bool))
    one = np.zeros(n, bool)
    one[rng.integers(n)] = True
    tables.append(one)
    for g in sorted({1, 2, 3, 5, 13, max(n - 1, 1), n, n + 1}):
        for reach in tables:
            before = reach.copy()
            got = _closure(reach, g)
            assert got.dtype == bool and got.tolist() == _naive_closure(reach, g).tolist()
            assert got is not reach and reach.tolist() == before.tolist()
    with pytest.raises(ValueError):
        _closure(tables[0], 0)


def _canonical(ms):
    """The sorted tuple of distinct frequency tuples, built without numpy."""
    return tuple(sorted({m if isinstance(m, tuple) else (m,) for m in ms}))


_coord = st.integers(-(2**62), 2**62)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(_coord, max_size=30),
    st.lists(st.integers(-3, 3), max_size=30),  # many repeats
    st.lists(st.tuples(_coord, _coord), max_size=30),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=30),
), st.booleans(), st.booleans())
def test_set_report_matches_canonical_form(ms, exact, as_array):
    rep = SetReport(np.array(ms, np.int64) if as_array and ms else ms, exact)
    want = _canonical(ms)
    assert rep.members == want
    assert all(type(c) is int for m in rep.members for c in m)
    d = len(want[0]) if want else 1
    assert rep.array.dtype == np.int64 and rep.array.shape == (len(want), d)
    assert rep.array.tolist() == [list(m) for m in want]
    assert rep.to_json() == {"members": [m[0] if len(m) == 1 else list(m) for m in want],
                             "exact": exact}
    assert not rep.array.flags.writeable
    assert hash(rep.members) == hash(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=25),
    st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=25),
    st.just(d),
)))
def test_isin_rows_matches_set_membership(args):
    a, b, d = args
    got = isin_rows(np.array(a, np.int64).reshape(-1, d), np.array(b, np.int64).reshape(-1, d))
    assert got.dtype == bool and got.tolist() == [m in set(b) for m in a]


# --- sign-vector conditions ------------------------------------------------

@pytest.mark.parametrize(
    "eps,ok",
    [
        ((1, 1, -1), True),     # partial sums 1,2,1
        ((1,), False),          # never exceeds 1
        ((2, -1), True),        # 2,1
        ((1, -1, 1), False),    # dips to 0 after positive
        ((-1, 2), False),       # negative partial sum
        ((2, 0, -1), True),
        ((0, 2, -1), True),     # zeros before the first positive are fine
    ],
)
def test_admissible_signs(eps, ok):
    assert admissible_signs(eps) is ok


# --- Schur set, both routes ------------------------------------------------

def _admissible_values(vecs, bound, w=None):
    """Oracle: every sign vector of the box [-bound, bound]^J put through
    `admissible_signs`, with values kept inside the window if one is given."""
    out = set()
    for eps in itertools.product(range(-bound, bound + 1), repeat=len(vecs)):
        if admissible_signs(eps):
            val = tuple(sum(c * v[i] for c, v in zip(eps, vecs)) for i in range(len(vecs[0])))
            if w is None or w.contains(val):
                out.add(val)
    return out


def test_schur_examples():
    assert members(schur_set(Enumeration([1, 3]), Window(-10, 0))) == [-9, -7, -5, -3, -1]
    assert members(schur_set(Enumeration([1, 3, 7]), Window(-5, 0))) == [-5, -3, -1]
    assert members(schur_set(Enumeration([7]), Window(-50, 50))) == []
    assert schur_set(Enumeration([]), Window(-5, 5)).exact


def test_schur_via_gaps_examples():
    assert members(schur_set_via_gaps(Enumeration([1, 3]), Window(-10, 0))) == [-9, -7, -5, -3, -1]
    assert members(schur_set_via_gaps(Enumeration([1, 3, 7]), Window(-5, 0))) == [-5, -3, -1]


def test_schur_via_gaps_requires_increasing():
    with pytest.raises(ValueError, match="increasing"):
        schur_set_via_gaps(Enumeration([3, 1]), Window(-5, 0))


def test_schur_against_brute_force_oracle():
    for ks in ([1, 3], [1, 3, 7], [2, 5, 11], [1, 4, 9]):
        lo, hi = -25, 25
        e = Enumeration(ks)
        w = Window(lo, hi)
        expected = brute_force_schur(ks, lo, hi, bound=required_coeff_bound(e, w))
        got = members(schur_set(e, w))
        assert got == expected, ks


def test_schur_nonincreasing_is_bounded_and_inexact():
    rep = schur_set(Enumeration([3, 1, 7]), Window(-10, 10), coeff_bound=4)
    assert not rep.exact
    expected = brute_force_schur([3, 1, 7], -10, 10, bound=4)
    assert members(rep) == expected


def test_schur_increasing_small_bound_honors_bound():
    e = Enumeration([1, 3, 7])
    rep = schur_set(e, Window(-40, 0), coeff_bound=2)
    assert not rep.exact
    assert set(members(rep)) <= set(members(schur_set(e, Window(-40, 0))))
    assert members(rep) == brute_force_schur([1, 3, 7], -40, 0, bound=2)


def test_schur_vector_enumeration_bounded():
    e = Enumeration([(2, 1), (0, 3), (5, -2)])
    w = Window((-8, -8), (8, 8))
    rep = schur_set(e, w, coeff_bound=2)
    assert not rep.exact
    assert set(rep.members) == _admissible_values(e.entries, 2, w)


def test_required_coeff_bound_documented_formula():
    e = Enumeration([1, 3, 7])
    assert required_coeff_bound(e, Window(-10, 0)) == 1 + (7 + 10) // 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schur_two_routes_agree(seed):
    rng = np.random.default_rng(seed)
    ks = random_lacunary(rng, max_j=7, k_max=5000)
    if len(ks) < 2:
        ks = [1, 3]
    e = Enumeration(ks)
    w = Window(-ks[-1], ks[-1])
    assert schur_set(e, w).members == schur_set_via_gaps(e, w).members


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schur_of_lacunary_is_negative(seed):
    rng = np.random.default_rng(seed)
    ks = random_lacunary(rng)
    e = Enumeration(ks)
    rep = schur_set(e, Window(-ks[-1], ks[-1]))
    assert rep.exact
    assert all(m < 0 for m in members(rep))


# --- S set, Riesz support, alternating sums --------------------------------

def test_s_set_examples():
    assert members(s_set(Enumeration([1, 3, 7]))) == [-3]
    assert members(s_set(Enumeration([1, 3]))) == []
    assert members(s_set(Enumeration([3, 1, 7]))) == [-3]


def test_s_set_cap():
    with pytest.raises(CapExceeded):
        s_set(Enumeration(list(range(1, 19))))


@pytest.mark.parametrize(
    "kind, ks, arg",
    [
        ("s", [1, 3, 7, 15], None),
        ("s", [3, 1, 7, 2, 5], None),
        ("s", [5, -2, 0, 9], None),
        ("s", [(2, 1), (0, 3), (5, -2), (1, 1)], None),
        ("lifted", [7, -13, 29, 4], None),
        ("lifted", [7, -13, 29, 4, -2], None),
        ("lifted", [1, 2, 3, 0], None),
        ("schur", [3, 1, 7, 2], (-12, 12)),
        ("schur", [5, -2, 9, 4], (-30, 3)),
        ("schur", [(2, 1), (0, 3), (5, -2)], ((-6, -4), (4, 9))),
    ],
)
def test_sign_walk_against_product_oracle(kind, ks, arg):
    # s_set, the lifted S set and the bounded Schur search share one walk
    e = Enumeration(ks)
    if kind == "s":
        assert set(s_set(e).members) == _admissible_values(e.entries, 1)
    elif kind == "lifted":
        le = lift_enumeration(e)
        assert set(lifted_s_set(le).members) == _admissible_values(le.pairs(), 1)
    else:
        w = Window(*arg)
        rep = schur_set(e, w, coeff_bound=2)
        assert not rep.exact
        assert set(rep.members) == _admissible_values(e.entries, 2, w)


def test_riesz_and_alt_caps():
    with pytest.raises(CapExceeded):
        riesz_support(list(range(1, 18)))
    with pytest.raises(CapExceeded):
        alt_sum_set(Enumeration(list(range(1, 24))))


def test_block_set_index_range_errors():
    e = Enumeration([1, 3, 7])
    w = Window(-9, 0)
    with pytest.raises(ValueError, match="range"):
        g_set(3, e, w)  # j must stay below J
    with pytest.raises(ValueError, match="range"):
        g_set(0, e, w)
    with pytest.raises(ValueError, match="range"):
        d_set(4, e, w)
    with pytest.raises(ValueError, match="increasing"):
        d_set(1, Enumeration([3, 1, 7]), w)


def test_riesz_support_examples():
    assert members(riesz_support([1, 3])) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    assert members(riesz_support([5])) == [-5, 0, 5]
    assert members(riesz_support([0, 5])) == [-5, 0, 5]


def test_riesz_support_lacunary_in_cone_union():
    rep = riesz_support([1, 3, 7])
    assert all(m != 0 or True for m in members(rep))
    # strongly lacunary K: the support misses nothing outside P ∪ (-P) in dim 1
    assert 0 in members(rep)


def test_alt_sum_examples():
    assert members(alt_sum_set(Enumeration([1, 3, 7]))) == [5]
    assert members(alt_sum_set(Enumeration([1, 3, 7, 15]))) == [5, 9, 11, 13]
    assert members(alt_sum_set(Enumeration([1, 3]))) == []


def test_alt_sum_against_brute_force():
    import itertools

    ks = [2, 5, 11, 23, 47]
    expected = set()
    for r in (3, 5):
        for idx in itertools.combinations(range(5), r):
            expected.add(sum((-1) ** i * ks[j] for i, j in enumerate(idx)))
    assert set(members(alt_sum_set(Enumeration(ks)))) == expected


# --- block sets ------------------------------------------------------------

def test_g_set_examples():
    e = Enumeration([1, 3, 7])
    assert members(g_set(1, e, Window(-9, 3))) == [-9, -7, -5, -3, -1, 1]
    assert members(g_set(2, e, Window(-9, 3))) == [-9, -7, -5, -3, -1, 1, 3]


def test_g_set_membership_property():
    for ks in ([1, 3, 7], [2, 5, 11, 23], [3, 8, 17, 40, 90]):
        e = Enumeration(ks)
        w = Window(-ks[-1], ks[-1])
        for j in range(1, len(ks)):
            assert ks[j - 1] in members(g_set(j, e, w))


def test_g_set_nesting_property():
    for ks in ([1, 3, 7, 15], [2, 5, 11, 23, 47]):
        e = Enumeration(ks)
        w = Window(-2 * ks[-1], ks[-1])
        reps = [set(members(g_set(j, e, w))) for j in range(1, len(ks))]
        for a, b in zip(reps, reps[1:]):
            assert a <= b


def test_shifted_g_antinesting_property():
    # G_{j+1} - k_{j+1} ⊆ G_j - k_j wherever the windowed data decides it
    for ks in ([1, 3, 7, 15], [2, 5, 11, 23, 47]):
        e = Enumeration(ks)
        w = Window(-2 * ks[-1], ks[-1])
        for j in range(2, len(ks)):
            lower = {m - ks[j - 1] for m in members(g_set(j - 1, e, w))}
            upper = {m - ks[j] for m in members(g_set(j, e, w))}
            decidable = {
                m for m in upper if w.lo[0] <= m + ks[j - 1] <= w.hi[0]
            }
            assert decidable <= lower


def test_d_set_empty_at_top_index():
    e = Enumeration([1, 3, 7])
    assert members(d_set(3, e, Window(-9, -1))) == []


def test_d_set_translate_identity_with_g_set():
    # D_j = G_{j+1} - k_{j+1} inside any window where both are decidable
    for ks in ([1, 3, 7], [1, 3, 7, 15], [2, 5, 11, 23], [3, 8, 17, 40]):
        e = Enumeration(ks)
        for j in range(1, len(ks)):
            w = Window(-2 * ks[-1], -1)
            dj = set(members(d_set(j, e, w)))
            gw = Window(w.lo[0] + ks[j], w.hi[0] + ks[j])
            gj = {m - ks[j] for m in members(g_set(j, e, gw))}
            assert dj == {m for m in gj if w.lo[0] <= m <= w.hi[0]}


def test_d_set_exact_reading_on_spec_instance():
    # a looser description with no condition at j itself would admit -2
    # here; the translate identity with G_3 - 7 excludes it
    e = Enumeration([1, 3, 7])
    w = Window(-9, -1)
    assert members(d_set(2, e, w)) == [-8, -6, -4]


def test_d_set_antinesting():
    for ks in ([1, 3, 7, 15], [2, 5, 11, 23, 47]):
        e = Enumeration(ks)
        w = Window(-ks[-1], -1)
        reps = [set(members(d_set(j, e, w))) for j in range(1, len(ks) + 1)]
        for a, b in zip(reps, reps[1:]):
            assert b <= a


def test_d_set_additively_closed():
    for ks in ([1, 3, 7, 15], [2, 5, 11, 23]):
        e = Enumeration(ks)
        w = Window(-2 * ks[-1], -1)
        for j in range(1, len(ks)):
            mem = set(members(d_set(j, e, w)))
            for a in mem:
                for b in mem:
                    if w.lo[0] <= a + b <= w.hi[0]:
                        assert a + b in mem, (ks, j, a, b)


def _oracle_block(top, suffix, lo, hi, nonzero):
    """Window members of top - Σ n_j' g_j' over nonnegative n (some n positive
    when `nonzero`), from a fresh table for this block alone: each gap closes
    it by doubling shifts of that gap."""
    cap = top - lo
    if cap < 0:
        return set()
    reach = np.zeros(cap + 1, bool)
    reach[0] = True
    for g in suffix:
        shift = g
        while shift <= cap:
            np.logical_or(reach[shift:], reach[:-shift].copy(), out=reach[shift:])
            shift *= 2
    return {top - t for t in np.flatnonzero(reach).tolist()
            if lo <= top - t <= hi and (t > 0 or not nonzero)}


def _oracle_gap_sets(ks, lo, hi):
    """Schur via gaps, G_{j+1} for j = 1..J-1 and D_j for j = 1..J, each the
    union of its per-block recomputations."""
    J = len(ks)
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    schur = set()
    for i in range(1, J):
        schur |= _oracle_block(ks[i - 1], gaps[i - 1 :], lo, hi, True)
    g = {}
    for j in range(1, J):
        g[j] = set()
        for i in range(1, min(j + 1, J - 1) + 1):
            g[j] |= _oracle_block(ks[i - 1], gaps[i - 1 :], lo, hi, i == j + 1)
    d = {J: set()}
    for j in range(1, J):
        d[j] = set()
        for i in range(1, j + 1):
            d[j] |= _oracle_block(-sum(gaps[i - 1 : j]), gaps[i - 1 :], lo, hi, False)
        if j + 1 <= J - 1:
            d[j] |= _oracle_block(0, gaps[j:], lo, hi, True)
    return schur, g, d


def _gap_cases():
    rng = np.random.default_rng(20261019)
    cases = [
        ([1, 3, 7], (-9, 3)),
        ([1, 3, 7, 15], (-40, -1)),
        ([2, 5, 11, 23], (3, 9)),        # every D_j block top lies below the window
        ([5, 9, 20, 41], (-4, -1)),      # top - lo < 0 for the low D_j blocks
        ([10, 30, 70], (25, 60)),        # empty reports
        ([4, 6, 8, 10, 12, 14, 16], (-50, 20)),
    ]
    for _ in range(60):
        J = int(rng.integers(2, 8))
        ks = np.cumsum(rng.integers(1, 40, size=J)).tolist()
        lo = int(rng.integers(-3 * ks[-1], ks[-1]))
        hi = int(rng.integers(lo, ks[-1] + 10))
        cases.append((ks, (lo, hi)))
    return cases


def _assert_canonical(rep, expected):
    ms = rep.members
    assert all(type(m) is tuple and len(m) == 1 and type(m[0]) is int for m in ms)
    assert all(a < b for a, b in zip(ms, ms[1:]))  # sorted and distinct
    assert rep.exact
    assert set(rep.array[:, 0].tolist()) == expected


@pytest.mark.parametrize("ks, window", _gap_cases())
def test_gap_sets_match_per_block_oracle(ks, window):
    e = Enumeration(ks)
    w = Window(*window)
    schur, g, d = _oracle_gap_sets(ks, *window)
    _assert_canonical(schur_set_via_gaps(e, w), schur)
    for j in range(1, len(ks)):
        _assert_canonical(g_set(j, e, w), g[j])
    for j in range(1, len(ks) + 1):
        _assert_canonical(d_set(j, e, w), d[j])


def test_schur_equals_union_of_shifted_g_sets():
    for ks in ([1, 3, 7], [2, 5, 11, 23], [1, 3, 7, 15, 31]):
        e = Enumeration(ks)
        w = Window(-ks[-1], 0)
        schur = set(members(schur_set(e, w)))
        union = set()
        for j in range(1, len(ks)):
            gw = Window(w.lo[0] + (ks[j] - ks[j - 1]), w.hi[0] + (ks[j] - ks[j - 1]))
            union |= {
                m - (ks[j] - ks[j - 1])
                for m in members(g_set(j, e, gw))
                if w.lo[0] <= m - (ks[j] - ks[j - 1]) <= w.hi[0]
            }
        assert schur == union


def test_schur_equals_union_of_shifted_d_sets():
    for ks in ([1, 3, 7], [2, 5, 11, 23]):
        e = Enumeration(ks)
        w = Window(-ks[-1], 0)
        schur = set(members(schur_set(e, w)))
        union = set()
        for j in range(1, len(ks) + 1):
            dw = Window(w.lo[0] - ks[j - 1], -1)
            union |= {
                m + ks[j - 1]
                for m in members(d_set(j, e, dw))
                if w.lo[0] <= m + ks[j - 1] <= w.hi[0]
            }
        assert schur == union


# --- preorders and the inclusion ------------------------------------------

def test_preorder_examples():
    e = Enumeration([1, 3, 7])
    w = Window(-9, -1)
    assert preorder_less(1, 1, 3, e, w) is True
    assert preorder_less(2, 0, 0, e, Window(-9, 0)) is False


def test_preorder_antinesting():
    e = Enumeration([1, 3, 7, 15])
    w = Window(-20, -1)
    for m in range(-12, 0):
        if preorder_less(2, m, 0, e, w):
            assert preorder_less(1, m, 0, e, w)


def test_preorder_membership_chain():
    e = Enumeration([2, 5, 11, 23])
    w = Window(-30, -1)
    for j in range(1, 4):
        assert preorder_less(j, e.scalars()[j - 1], e.scalars()[j], e, w)


def test_preorder_undecidable():
    e = Enumeration([1, 3, 7])
    with pytest.raises(UndecidableWindow):
        preorder_less(1, -50, 0, e, Window(-9, -1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_preorder_less_matches_brute_membership(seed):
    rng = np.random.default_rng(seed)
    ks = np.cumsum(rng.integers(1, 12, size=int(rng.integers(2, 6)))).tolist()
    e = Enumeration(ks)
    w = Window(-int(rng.integers(1, 60)), -1)
    for j in range(1, e.J + 1):
        dj = d_set(j, e, w).members
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(-70, 70, size=2))
            if m - n < w.lo[0]:
                continue
            # a linear scan of the tuple listing, apart from the searchsorted route
            assert preorder_less(j, m, n, e, w) is any(v == (m - n,) for v in dj)


def test_preorder_less_matches_set_membership():
    e = Enumeration([2, 5, 11, 23])
    w = Window(-30, -1)
    pairs = [(m, 0) for m in range(-30, 3)] + [(2, 5), (5, 11), (11, 23), (7, 30), (-8, 9), (40, 9)]
    for j in range(1, e.J + 1):
        dj = set(d_set(j, e, w).members)
        for m, n in pairs:
            assert preorder_less(j, m, n, e, w) is ((m - n,) in dj), (j, m, n)
        for m, n in [(-31, 0), (-8, 40)]:
            with pytest.raises(UndecidableWindow):
                preorder_less(j, m, n, e, w)


def test_inclusion_s_in_schur_riesz():
    ok, wit = check_inclusion_s_in_schur_riesz(Enumeration([1, 3, 7]), Window(-20, 20))
    assert ok and wit == []
    ok2, wit2 = check_inclusion_s_in_schur_riesz(Enumeration([1, 3]), Window(-10, 10))
    assert ok2 and wit2 == []
    ok3, wit3 = check_inclusion_s_in_schur_riesz(Enumeration([2, 5, 11, 23]), Window(-40, 40))
    assert ok3 and wit3 == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inclusion_property_random(seed):
    rng = np.random.default_rng(seed)
    ks = random_lacunary(rng, max_j=6, k_max=4000)
    ok, wit = check_inclusion_s_in_schur_riesz(Enumeration(ks), Window(-ks[-1], ks[-1]))
    assert ok, wit
