import numpy as np
import pytest

from paleylab.cones import ConeOrder, as_vec, vec_add, vec_scale
from paleylab.grid import GridFunction, GridSpec, grid_character, norm_l2, synth
from paleylab.proofkit import (
    Factorization,
    HypothesisViolation,
    SupportViolation,
    _at,
    _Span,
    _windowed_set_flags,
    factorize,
    replay,
    replay_group,
)
from paleylab.sets import Enumeration, Window, d_set, schur_set


def random_function(spec, support, seed):
    rng = np.random.default_rng(seed)
    spectrum = {
        (n,): complex(rng.standard_normal(), rng.standard_normal()) for n in support
    }
    return synth(spectrum, spec)


# --- factorization ----------------------------------------------------------

def test_factorize_character():
    spec = GridSpec((32,), (10,))
    f = synth({(4,): 1.0}, spec)
    fac = factorize(f)
    assert np.max(np.abs(np.abs(fac.h.samples) - 1)) < 1e-12
    assert np.max(np.abs(fac.g.samples - f.samples)) < 1e-12


def test_factorize_zero_points():
    spec = GridSpec((16,), (5,))
    samples = synth({(1,): 1.0}, spec).samples.copy()
    samples[3] = 0
    f = GridFunction(spec, samples)
    fac = factorize(f)
    assert fac.g.samples[3] == 0 and fac.h.samples[3] == 0
    mod, prod = fac.residuals(f)
    assert mod < 1e-12 and prod < 1e-12


def test_factorize_random_residuals():
    spec = GridSpec((128,), (40,))
    f = random_function(spec, range(-40, 41), 3)
    mod, prod = factorize(f).residuals(f)
    assert mod <= 1e-12 and prod <= 1e-12


# --- subspaces and projections ----------------------------------------------

class EngineSpan:
    """The replay engine's span of carrier * e^{i n t} over ns (bare
    characters for None), applied to sample vectors."""

    def __init__(self, spec, ns, carrier):
        self.spec = spec
        self.c = np.ones(spec.dims, complex) if carrier is None else carrier
        F = np.fft.fftn(np.abs(self.c) ** 2) / spec.size
        self.S = _Span(F, np.array([as_vec(n) for n in ns], np.int64).reshape(-1, spec.ndim))
        self.dim = self.S.lam.size

    def samples(self, coef):
        """sum_p coef_p c e_{n_p} on the grid."""
        acc = np.zeros(self.spec.dims, complex)
        np.add.at(acc, tuple((self.S.ns % np.array(self.spec.dims)).T), coef)
        return self.c * np.fft.ifftn(acc) * self.spec.size

    def apply(self, v):
        r = _at(np.fft.fftn(v * np.conj(self.c)) / self.spec.size, self.S.ns)
        return self.samples(self.S.solve(r))

    def basis(self):
        """Orthonormal basis of the span, one column of samples each."""
        cols = self.S.vec / np.sqrt(self.S.lam)
        return np.stack([self.samples(col).ravel() for col in cols.T], axis=1)


def span(ns, carrier, spec):
    """Span of carrier * e^{i n t} over ns (bare characters for None)."""
    return EngineSpan(spec, ns, None if carrier is None else carrier.samples)


def project(v, S):
    return GridFunction(v.spec, S.apply(v.samples))


def test_at_matches_moveaxis_gather():
    rng = np.random.default_rng(15)
    for d, dims in ((1, (12,)), (2, (6, 10)), (3, (4, 5, 7))):
        arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        for shape in ((d,), (9, d), (3, 4, d)):  # one frequency, (m, d) and (m, n, d)
            ns = rng.integers(-40, 40, size=shape)
            ns.flat[0] = -7  # a negative frequency in every case
            old = arr[tuple(np.moveaxis(ns % np.array(arr.shape), -1, 0))]
            assert np.array_equal(_at(arr, ns), old)


def test_span_single_carrier():
    spec = GridSpec((32,), (10,))
    f = random_function(spec, range(-5, 6), 1)
    h = factorize(f).h
    S = span([0], h, spec)
    assert S.dim == 1
    reproduced = project(h, S)
    assert norm_l2(GridFunction(spec, reproduced.samples - h.samples)) < 1e-10


def test_span_characters_orthonormal():
    spec = GridSpec((32,), (10,))
    S = span([0, 1], None, spec)
    assert S.dim == 2
    basis = S.basis()
    assert np.max(np.abs(basis.conj().T @ basis / spec.size - np.eye(2))) < 1e-12
    # the span is the two characters: each one is reproduced
    for n in (0, 1):
        e_n = synth({(n,): 1.0}, spec)
        assert norm_l2(GridFunction(spec, project(e_n, S).samples - e_n.samples)) < 1e-12


def test_rank_deficiency_detected():
    spec = GridSpec((32,), (10,))
    carrier = np.zeros(32, complex)
    carrier[:16] = 1.0  # vanishes on half the grid
    S = span(range(-10, 11), GridFunction(spec, carrier), spec)
    assert S.dim < 21
    # noise eigenvalues below eigh's rounding floor are cut, as the SVD cuts them
    oracle = SampleSpan(spec, [(n,) for n in range(-10, 11)], carrier)
    assert S.dim == oracle.basis.shape[1] == 16
    # the Gram route squares the condition number: with the least kept
    # eigenvalue at 2.2e-8 lambda_max the projections agree to about
    # eps / 2.2e-8 = 1e-8, not to the oracle's own 1e-15
    assert S.S.lam[0] / S.S.lam[-1] > 1e-8
    rng = np.random.default_rng(12)
    for _ in range(3):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(S.apply(v) - oracle.apply(v))) <= 1e-7


def test_projection_properties():
    rng = np.random.default_rng(9)
    spec = GridSpec((64,), (20,))
    f = random_function(spec, range(-20, 21), 2)
    h = factorize(f).h
    S = span(range(-8, -2), h, spec)
    v = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    w = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    pv, pw = project(v, S), project(w, S)
    # idempotent, self-adjoint, contractive
    assert norm_l2(GridFunction(spec, project(pv, S).samples - pv.samples)) < 1e-10
    lhs = np.vdot(w.samples, pv.samples)
    rhs = np.vdot(pw.samples, v.samples)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    assert norm_l2(pv) <= norm_l2(v) + 1e-12
    perp = GridFunction(spec, v.samples - pv.samples)
    assert norm_l2(project(perp, S)) < 1e-9


# --- replay: new mode --------------------------------------------------------

def test_replay_single_character():
    spec = GridSpec((64,), (20,))
    f = synth({(5,): 1.0}, spec)
    tr = replay(f, Enumeration([5]), mode="new")
    assert abs(tr.rows[0].a - 1) < 1e-12
    assert tr.rows[0].b == 0
    assert abs(tr.ratio - 1) < 1e-12
    assert tr.check() == []


def test_replay_two_characters_closed_form():
    spec = GridSpec((4096,), (10,))
    f = synth({(1,): 1.0, (3,): 1.0}, spec)
    tr = replay(f, Enumeration([1, 3]), mode="new")
    for r in tr.rows:
        assert abs(r.a + r.b - 1) < 1e-12
    assert abs(tr.ratio - np.pi * np.sqrt(2) / 4) < 5e-4
    assert tr.check() == []


def test_replay_random_instances_certify():
    for seed in range(6):
        M = 48
        spec = GridSpec((192,), (M,))
        f = random_function(spec, range(0, M + 1), seed)
        tr = replay(f, Enumeration([2, 5, 11, 23]), mode="new")
        assert tr.check() == [], seed
        assert tr.ratio <= 2 + 1e-9
        assert tr.nesting_p_ok and tr.nesting_q_ok and tr.membership_ok


def test_replay_rejects_hypothesis_violation():
    spec = GridSpec((64,), (20,))
    f = synth({(5,): 1.0, (-3,): 0.5}, spec)
    with pytest.raises(HypothesisViolation, match="-3"):
        replay(f, Enumeration([5]), mode="new")


def test_replay_rejects_support_outside_window():
    spec = GridSpec((64,), (20,))
    samples = synth({(5,): 1.0}, spec).samples
    bad = GridFunction(spec, samples * np.exp(1j * 25 * spec.axis_points(0)))
    with pytest.raises(SupportViolation):
        replay(bad, Enumeration([5]), mode="new")


def test_replay_requires_lacunary_without_dsets():
    spec = GridSpec((64,), (20,))
    f = synth({(2,): 1.0, (3,): 1.0}, spec)
    with pytest.raises(ValueError, match="lacunary"):
        replay(f, Enumeration([2, 3]), mode="new")


def test_replay_b1_vanishes():
    spec = GridSpec((256,), (40,))
    f = random_function(spec, range(0, 41), 17)
    tr = replay(f, Enumeration([3, 7, 16, 33]), mode="new")
    assert abs(tr.rows[0].b) < 1e-12


# --- replay: generalized sets -------------------------------------------------

def theorem5_instance(ks, M, seed, N=None):
    e = Enumeration(ks)
    spec = GridSpec((N or 4 * M,), (M,))
    forbidden = {m[0] for m in schur_set(e, Window(-M, M)).members}
    support = [n for n in range(-M, M + 1) if n not in forbidden]
    f = random_function(spec, support, seed)
    depth = max(e.gaps()) + 1 if e.J > 1 else ks[0] + 1
    dsets = [list(d_set(j, e, Window(-depth, -1)).members) for j in range(1, e.J + 1)]
    return f, e, dsets


def test_replay_with_schur_sets():
    for seed in range(5):
        f, e, dsets = theorem5_instance([2, 5, 11, 23], 40, seed)
        tr = replay(f, e, mode="new", dsets=dsets)
        assert tr.check() == [], seed
        assert tr.membership_ok and tr.nesting_p_ok and tr.nesting_q_ok


def test_replay_with_schur_sets_non_lacunary():
    # the generalized sets need no lacunarity, only an increasing enumeration
    # whose Schur set stays clear of K (here it even contains 0..3)
    for seed in range(3):
        f, e, dsets = theorem5_instance([4, 5, 9], 16, seed)
        tr = replay(f, e, mode="new", dsets=dsets)
        assert tr.check() == [], seed
        assert tr.membership_ok and tr.nesting_p_ok and tr.nesting_q_ok


def test_replay_dsets_requires_vanishing_on_shifted_sets():
    f, e, dsets = theorem5_instance([2, 5, 11, 23], 40, 0)
    # put mass on a shifted-set frequency: 2 k_1 - k_2 lies in k_1 + D_1
    bad = 2 * 2 - 5
    spoiled = GridFunction(f.spec, f.samples + 0.5 * np.exp(1j * bad * f.spec.axis_points(0)))
    with pytest.raises(HypothesisViolation):
        replay(spoiled, e, mode="new", dsets=dsets)


def _set_flags_oracle(ks, dsets, lo, hi):
    """Membership, antinesting and shifted-nesting over Python sets of tuples."""
    J = len(ks)
    sets = [set(map(tuple, d.tolist())) for d in dsets]
    ks = [tuple(k) for k in ks.tolist()]
    membership = all(vec_add(ks[j], vec_scale(-1, ks[j + 1])) in sets[j] for j in range(J - 1))
    antinest = all(sets[j + 1] <= sets[j] for j in range(J - 1))
    gnest = True
    for j in range(1, J - 1):
        for m in sets[j - 1]:
            pre = vec_add(vec_add(m, ks[j]), vec_scale(-1, ks[j + 1]))
            if all(a <= c <= b for a, c, b in zip(lo, pre, hi)) and pre not in sets[j]:
                gnest = False
    return membership, antinest, gnest


def test_windowed_set_flags_match_set_oracle():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(600):
        d, J = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        lo, hi = (-8,) * d, (-1,) * d
        ks = rng.integers(0, 6, (J, d))
        members = rng.integers(-8, 0, (int(rng.integers(0, 12)), d))
        dsets = []
        for _ in range(J):  # mostly nested, sometimes with a stray member
            members = members[rng.random(len(members)) < 0.8]
            if rng.random() < 0.3:
                members = np.concatenate([members, rng.integers(-9, 0, (1, d))])
            dsets.append(members)
        want = _set_flags_oracle(ks, dsets, lo, hi)
        seen.add(want)
        assert tuple(_windowed_set_flags(ks, dsets, lo, hi)) == want
    assert len(seen) == 8  # every combination of the three flags occurred


# --- replay: classic mode -----------------------------------------------------

def analytic_pair(spec, deg, shift, seed):
    rng = np.random.default_rng(seed)
    avals = {(n,): complex(rng.standard_normal(), rng.standard_normal()) for n in range(deg + 1)}
    a = synth(avals, spec)
    z = synth({(1,): 1.0}, spec)
    g = GridFunction(spec, a.samples * z.samples**shift)
    h = GridFunction(spec, np.conj(a.samples))
    f = GridFunction(spec, g.samples * np.conj(h.samples))
    return f, Factorization(g, h)


def test_replay_classic_single_character():
    spec = GridSpec((64,), (20,))
    f = synth({(5,): 1.0}, spec)
    g = f
    h = synth({(0,): 1.0}, spec)
    tr = replay(f, Enumeration([5]), mode="classic", factorization=Factorization(g, h))
    assert abs(tr.rows[0].a - 1) < 1e-12 and tr.rows[0].b == 0
    assert tr.check() == []


def test_replay_classic_analytic_instances():
    spec = GridSpec((512,), (60,))
    for seed in range(4):
        f, fac = analytic_pair(spec, deg=7, shift=2, seed=seed)
        tr = replay(f, Enumeration([3, 8, 17]), mode="classic", factorization=fac)
        assert tr.check() == [], seed


def test_replay_classic_requires_analytic_factorization():
    spec = GridSpec((128,), (30,))
    f = random_function(spec, range(0, 31), 4)
    with pytest.raises(ValueError, match="analytic"):
        replay(f, Enumeration([3, 8]), mode="classic")
    with pytest.raises(ValueError, match="classic"):
        replay(f, Enumeration([3, 8]), mode="classic", factorization=factorize(f))


def test_classic_with_generalized_sets_shows_membership_failure():
    # the traditional organization does not survive the weaker hypotheses: the
    # modulated analytic factor no longer lands in the sparse character spans,
    # so the membership residual blows up and the trace records the failure
    spec = GridSpec((512,), (60,))
    f, fac = analytic_pair(spec, deg=7, shift=2, seed=1)
    e = Enumeration([3, 8, 17])
    depth = max(e.gaps()) + 1
    dsets = [list(d_set(j, e, Window(-depth, -1)).members) for j in range(1, e.J + 1)]
    tr = replay(f, e, mode="classic", dsets=dsets, factorization=fac)
    assert tr.membership_ok  # the set-level conditions themselves hold
    assert any(r.membership_residual > 1e-6 for r in tr.rows)
    assert tr.check() != []


# --- replay: complementary mode ----------------------------------------------

def complementary_instance(ks, M, seed):
    spec = GridSpec((4 * M,), (M,))
    support = list(range(-M, 1)) + list(ks)
    return synth(
        {
            (n,): complex(*np.random.default_rng([seed, n + M]).standard_normal(2))
            for n in support
        },
        spec,
    )


def test_replay_complementary_certifies():
    ks = [2, 5, 11, 23]
    for seed in range(5):
        f = complementary_instance(ks, 40, seed)
        tr = replay(f, Enumeration(ks), mode="complementary")
        assert tr.check() == [], seed
        assert tr.ratio <= 2 + 1e-9


def test_replay_complementary_names_offender():
    spec = GridSpec((64,), (20,))
    f = synth({(5,): 1.0, (7,): 0.5}, spec)
    with pytest.raises(HypothesisViolation, match="7"):
        replay(f, Enumeration([2, 5]), mode="complementary")


def test_replay_deterministic():
    f, e, dsets = theorem5_instance([2, 5, 11], 24, 3)
    t1 = replay(f, e, mode="new", dsets=dsets)
    t2 = replay(f, e, mode="new", dsets=dsets)
    assert t1.to_json() == t2.to_json()


# --- group replay -------------------------------------------------------------

def test_replay_group_character():
    order = ConeOrder("lex-last", dim=2)
    spec = GridSpec((32, 16), (12, 6))
    f = synth({(5, 1): 1.0}, spec)
    tr = replay_group(f, Enumeration([(5, 1)]), order)
    assert abs(tr.ratio - 1) < 1e-12
    assert tr.check() == []


def test_replay_group_random_admissible():
    order = ConeOrder("lex-last", dim=2)
    spec = GridSpec((32, 16), (12, 6))
    rng = np.random.default_rng(8)
    spectrum = {}
    for n1 in range(-12, 13):
        for n2 in range(-6, 7):
            if not order.in_strict_cone((-n1, -n2)):
                spectrum[(n1, n2)] = complex(rng.standard_normal(), rng.standard_normal())
    f = synth(spectrum, spec)
    tr = replay_group(f, Enumeration([(5, 1), (0, 3)]), order)
    assert tr.check() == []
    assert tr.ratio <= 2 + 1e-9


def test_replay_group_hypothesis_error_names_tuple():
    order = ConeOrder("lex-last", dim=2)
    spec = GridSpec((32, 16), (12, 6))
    f = synth({(5, 1): 1.0, (3, -2): 0.5}, spec)
    with pytest.raises(HypothesisViolation, match=r"3, -2"):
        replay_group(f, Enumeration([(5, 1), (0, 3)]), order)


def test_replay_group_partial_order_quadrant():
    # a finitely generated cone gives only a partial order: points with mixed
    # signs are incomparable and the hypothesis constrains just the strictly
    # negative quadrant
    cone = ConeOrder("generators", dim=2, generators=((1, 0), (0, 1)), bound=48)
    spec = GridSpec((32, 48), (12, 18))
    rng = np.random.default_rng(6)
    spectrum = {}
    for n1 in range(-12, 13):
        for n2 in range(-18, 19):
            if not cone.in_strict_cone((-n1, -n2)):
                spectrum[(n1, n2)] = complex(rng.standard_normal(), rng.standard_normal())
    f = synth(spectrum, spec)
    tr = replay_group(f, Enumeration([(1, 1), (3, 4), (8, 16)]), cone)
    assert tr.check() == []
    assert tr.ratio <= 2 + 1e-9


def test_replay_group_rejects_non_lacunary():
    order = ConeOrder("lex-last", dim=2)
    spec = GridSpec((32, 16), (12, 6))
    f = synth({(0, 1): 1.0}, spec)
    with pytest.raises(ValueError, match="lacunary"):
        replay_group(f, Enumeration([(0, 1), (0, 2)]), order)


# --- harder instances ----------------------------------------------------------

def test_replay_empty_enumeration_rejected():
    spec = GridSpec((32,), (10,))
    f = synth({(1,): 1.0}, spec)
    with pytest.raises(ValueError, match="empty"):
        replay(f, Enumeration([]), mode="new")


def test_replay_with_zero_frequency_entry():
    # K may contain 0; the first modulate is the identity
    spec = GridSpec((128,), (30,))
    f = random_function(spec, range(0, 31), 12)
    tr = replay(f, Enumeration([0, 1, 3, 7]), mode="new")
    assert tr.check() == []


def test_replay_near_vanishing_function():
    # a modulated Riesz product has near-zeros on the grid, so the factor
    # h = sqrt|f| conditions the generator matrices badly; the trace must
    # still certify
    from paleylab.riesz import riesz_polynomial

    spec = GridSpec((512,), (90,))
    base, _ = riesz_polynomial([2, 5, 11, 23], spec)
    f = GridFunction(spec, base.samples * np.exp(1j * 41 * spec.axis_points(0)))
    tr = replay(f, Enumeration([3, 8, 17, 36]), mode="new")
    assert tr.check() == [], tr.check()


def test_replay_against_dense_matrix_oracle():
    # rebuild the whole two-term split with explicit projection matrices and
    # naive linear algebra; the packaged replay must reproduce a_j, b_j and
    # the target coefficients
    N, M = 96, 24
    spec = GridSpec((N,), (M,))
    f = random_function(spec, range(0, M + 1), 21)
    ks = [2, 5, 11]
    e = Enumeration(ks)
    tr = replay(f, e, mode="new")

    samples = f.samples
    absf = np.abs(samples)
    h = np.sqrt(absf)
    g = samples / np.where(absf > 0, h, 1)
    t = spec.axis_points(0)
    depth = max(b - a for a, b in zip(ks, ks[1:])) + 1

    def proj_matrix(ns):
        cols = np.stack([h * np.exp(1j * n * t) for n in ns], axis=1)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        u = u[:, s > s[0] * 1e-10]
        return u @ u.conj().T

    Q = {0: np.zeros((N, N), complex), len(ks): np.eye(N)}
    for j in range(1, len(ks)):
        Q[j] = proj_matrix(range(-depth + ks[j], -ks[j - 1] + ks[j]))
    hat = np.fft.fft(samples) / N
    for j in range(1, len(ks) + 1):
        Ajh = h * np.exp(1j * ks[j - 1] * t)
        a_dense = np.vdot(Ajh, (Q[j] - Q[j - 1]) @ g) / N
        b_dense = np.vdot(Ajh, Q[j - 1] @ g) / N
        row = tr.rows[j - 1]
        assert abs(row.a - a_dense) < 1e-10
        assert abs(row.b - b_dense) < 1e-10
        assert abs(row.target - hat[ks[j - 1] % N]) < 1e-12
        # dense projections are idempotent and self-adjoint
        if 0 < j < len(ks):
            assert np.max(np.abs(Q[j] @ Q[j] - Q[j])) < 1e-9
            assert np.max(np.abs(Q[j] - Q[j].conj().T)) < 1e-9


def test_intertwining_is_an_operator_identity():
    # per-shift construction makes Q_{j-1} A_j = A_j P_{j-1} hold on every
    # vector, not just the factor h
    spec = GridSpec((128,), (30,))
    f = random_function(spec, range(0, 31), 5)
    e = Enumeration([3, 8, 17])
    ks = e.scalars()
    fac = factorize(f)
    h = fac.h
    depth = max(e.gaps()) + 1
    rng = np.random.default_rng(2)
    t = spec.axis_points(0)
    for j in range(2, 4):
        L = span(range(-depth, -ks[j - 2]), h, spec)
        Qr = span([n + ks[j - 1] for n in range(-depth, -ks[j - 2])], h, spec)
        char = np.exp(1j * ks[j - 1] * t)
        for _ in range(4):
            v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            lhs = char * L.apply(v)
            rhs = Qr.apply(char * v)
            assert norm_l2(GridFunction(spec, lhs - rhs)) < 1e-9


def test_replay_random_property():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def inner(seed):
        r = np.random.default_rng(seed)
        J = int(r.integers(1, 6))
        ks = [int(r.integers(1, 9))]
        while len(ks) < J and 2 * ks[-1] + 4 < 120:
            ks.append(2 * ks[-1] + int(r.integers(1, 5)))
        M = max(ks[-1] + int(r.integers(0, 20)), ks[-1])
        spec = GridSpec((int(4 * M + r.integers(2, 40)),), (M,))
        f = random_function(spec, range(0, M + 1), int(r.integers(0, 2**31)))
        tr = replay(f, Enumeration(ks), mode="new")
        assert tr.check() == []

    inner()


def test_replay_certifies_optimizer_extremal_candidate():
    # the gradient-ascent winner is the most adversarial admissible function
    # the lab can produce; the replay must still certify it
    from paleylab.lab import Instance
    from paleylab.optimize import OptimizerConfig, optimize_ratio
    from paleylab.sets import schur_set as _schur

    inst = Instance(k=(2, 5, 11), forbidden="schur", M=24)
    res = optimize_ratio(inst, OptimizerConfig(restarts=3, iterations=200, seed=13))
    e = Enumeration([2, 5, 11])
    depth = max(e.gaps()) + 1
    dsets = [list(d_set(j, e, Window(-depth, -1)).members) for j in range(1, 4)]
    tr = replay(res.best, e, mode="new", dsets=dsets)
    assert tr.check() == []
    assert abs(tr.ratio - res.ratio) < 1e-6


# --- engine against a sample-space oracle ----------------------------------------

class SampleSpan:
    """Oracle: orthonormal basis of span{carrier e_n : n in ns} from the SVD of
    the N x m sample matrix, rank cut at 1e-10 of the largest singular value."""

    def __init__(self, spec, ns, carrier):
        cols = [(carrier * grid_character(spec, n)).ravel() for n in ns]
        self.basis = np.zeros((spec.size, 0), complex)
        if cols:
            u, s, _ = np.linalg.svd(np.stack(cols, axis=1), full_matrices=False)
            self.basis = u[:, : int(np.sum(s > s[0] * 1e-10))]

    def apply(self, v):
        return (self.basis @ (self.basis.conj().T @ v.ravel())).reshape(v.shape)


def test_engine_projection_matches_oracle():
    rng = np.random.default_rng(4)
    spec = GridSpec((64,), (20,))
    h = factorize(random_function(spec, range(-20, 21), 2)).h
    for ns in (range(-8, -2), range(0, 11), [-5, 3, 9]):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        oracle = SampleSpan(spec, [(n,) for n in ns], h.samples).apply(v)
        assert np.max(np.abs(span(ns, h, spec).apply(v) - oracle)) < 1e-12


def _ip(x, y):
    return complex(np.vdot(y, x) / x.size)


def oracle_two_step(f, ks, dsets, carrier, g, h):
    """a_j, b_j of the two-step split with Q_j = span{c e_n : n in D_j + k_{j+1}}."""
    spec, J = f.spec, len(ks)
    qg = [np.zeros_like(g)]
    for j in range(1, J):
        qg.append(SampleSpan(spec, [vec_add(n, ks[j]) for n in dsets[j - 1]], carrier).apply(g))
    qg.append(g)
    ajh = [grid_character(spec, k) * h for k in ks]
    a = [_ip(qg[j + 1] - qg[j], ajh[j]) for j in range(J)]
    b = [_ip(qg[j], ajh[j]) for j in range(J)]
    return a, b


def oracle_complementary(f, ks):
    """a_j, b_j of the complementary split over the blocks [-k_j, 0)."""
    spec, J = f.spec, len(ks)
    fac = factorize(f)
    g, h = fac.g.samples, fac.h.samples
    qg = [SampleSpan(spec, [(n,) for n in range(0, k)], h).apply(g) for k in ks] + [g]
    ph = [np.zeros_like(h)]
    ph += [SampleSpan(spec, [(n,) for n in range(-k, 0)], h).apply(h) for k in ks]
    chars = [grid_character(spec, (k,)) for k in ks]
    a = [_ip(qg[j + 1] - qg[j], chars[j] * h) for j in range(J)]
    b = [_ip(g, chars[j] * (ph[j + 1] - ph[j])) for j in range(J)]
    return a, b


def assert_matches_oracle(tr, f, a, b, tol=1e-12):
    assert max(abs(r.a - x) for r, x in zip(tr.rows, a)) <= tol
    assert max(abs(r.b - x) for r, x in zip(tr.rows, b)) <= tol
    assert abs(tr.sum_a_sq - sum(abs(x) ** 2 for x in a)) <= tol
    assert abs(tr.sum_b_sq - sum(abs(x) ** 2 for x in b)) <= tol
    l1 = float(np.mean(np.abs(f.samples)))
    on_k = np.sqrt(sum(abs(f.hat()[tuple(np.mod(k, f.spec.dims))]) ** 2 for k in tr.ks))
    assert abs(tr.f_l1 - l1) <= tol
    assert abs(tr.ratio - on_k / l1) <= tol


@pytest.fixture
def two_step_inputs(monkeypatch):
    """Records the inputs of every two-step replay the engine runs."""
    import paleylab.proofkit as pk

    seen = []
    inner = pk._two_step_trace

    def record(f, e_ks, dsets, carrier, gfun, hfun, *rest):
        seen.append((f, e_ks, dsets, carrier, gfun.samples, hfun.samples))
        return inner(f, e_ks, dsets, carrier, gfun, hfun, *rest)

    monkeypatch.setattr(pk, "_two_step_trace", record)
    return seen


def check_two_step(tr, inputs):
    f, ks, dsets, carrier, g, h = inputs
    a, b = oracle_two_step(f, ks, dsets, carrier, g, h)
    assert_matches_oracle(tr, f, a, b)


def test_engine_matches_oracle_new_mode(two_step_inputs):
    for seed in range(3):
        f = random_function(GridSpec((192,), (48,)), range(0, 49), seed)
        check_two_step(replay(f, Enumeration([2, 5, 11, 23]), mode="new"), two_step_inputs[-1])
    for ks, M in (([2, 5, 11, 23], 40), ([4, 5, 9], 16)):
        for seed in range(3):
            f, e, dsets = theorem5_instance(ks, M, seed)
            check_two_step(replay(f, e, mode="new", dsets=dsets), two_step_inputs[-1])
    # near-zeros of a modulated Riesz product make the Gram matrices ill-conditioned
    from paleylab.riesz import riesz_polynomial

    spec = GridSpec((512,), (90,))
    base, _ = riesz_polynomial([2, 5, 11, 23], spec)
    f = GridFunction(spec, base.samples * np.exp(1j * 41 * spec.axis_points(0)))
    check_two_step(replay(f, Enumeration([3, 8, 17, 36]), mode="new"), two_step_inputs[-1])


def test_engine_matches_oracle_classic(two_step_inputs):
    spec = GridSpec((512,), (60,))
    for seed in range(3):
        f, fac = analytic_pair(spec, deg=7, shift=2, seed=seed)
        tr = replay(f, Enumeration([3, 8, 17]), mode="classic", factorization=fac)
        check_two_step(tr, two_step_inputs[-1])


def test_engine_matches_oracle_complementary():
    ks = [2, 5, 11, 23]
    for seed in range(3):
        f = complementary_instance(ks, 40, seed)
        tr = replay(f, Enumeration(ks), mode="complementary")
        assert_matches_oracle(tr, f, *oracle_complementary(f, ks))


def test_engine_matches_oracle_group(two_step_inputs):
    rng = np.random.default_rng(8)
    lex = ConeOrder("lex-last", dim=2)
    quadrant = ConeOrder("generators", dim=2, generators=((1, 0), (0, 1)), bound=48)
    cases = [
        (lex, GridSpec((32, 16), (12, 6)), [(5, 1), (0, 3)]),
        (quadrant, GridSpec((32, 48), (12, 18)), [(1, 1), (3, 4), (8, 16)]),
    ]
    for order, spec, ks in cases:
        spectrum = {
            v: complex(*rng.standard_normal(2))
            for v in spec.window_points()
            if not order.in_strict_cone(vec_scale(-1, v))
        }
        tr = replay_group(synth(spectrum, spec), Enumeration(ks), order)
        assert tr.check() == []
        check_two_step(tr, two_step_inputs[-1])


def test_engine_matches_oracle_lift(two_step_inputs):
    from paleylab.measures import check_measure_bound_via_lift, random_density_measure

    for seed, gammas in enumerate([[3, -5, 8], [5, -3, 11, 2], [-2, 6, -9, 12, 1]]):
        e = Enumeration(gammas)
        rep = check_measure_bound_via_lift(random_density_measure(e, "s", M=32, seed=seed), e)
        assert rep.check() == [], gammas
        check_two_step(rep.trace, two_step_inputs[-1])


def test_missing_generator_fails_membership():
    # without k_1 - k_2 in D_1, h e_{k_1} is no generator of Q_1: the
    # computed distance from Q_1 must show it, not only the set-level flag
    f, e, dsets = theorem5_instance([2, 5, 11, 23], 40, 0)
    gap = (2 - 5,)
    dsets[0] = [m for m in dsets[0] if m != gap]
    tr = replay(f, e, mode="new", dsets=dsets)
    assert tr.rows[0].membership_residual > 1e-6
    assert tr.check() != []


# --- canonical replays read f-hat ---------------------------------------------

def assert_traces_agree(t1, t2, tol=1e-12):
    assert len(t1.rows) == len(t2.rows)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert abs(r1.a - r2.a) <= tol and abs(r1.b - r2.b) <= tol
        assert abs(r1.target - r2.target) <= tol
    for name in ("sum_a_sq", "sum_b_sq", "ratio", "f_l1"):
        assert abs(getattr(t1, name) - getattr(t2, name)) <= tol, name


def test_canonical_replay_matches_explicit_factorization():
    # a canonical replay reads <g, h e_n> from f-hat, since g conj(h) = f;
    # given the same factorization explicitly, the replay transforms g conj(h)
    spec = GridSpec((192,), (48,))
    for seed in range(3):
        f = random_function(spec, range(0, 49), seed)
        e = Enumeration([2, 5, 11, 23])
        assert_traces_agree(replay(f, e), replay(f, e, factorization=factorize(f)))
        f, e, dsets = theorem5_instance([2, 5, 11, 23], 40, seed)
        assert_traces_agree(
            replay(f, e, dsets=dsets), replay(f, e, dsets=dsets, factorization=factorize(f))
        )
        f = complementary_instance([2, 5, 11, 23], 40, seed)
        e = Enumeration([2, 5, 11, 23])
        assert_traces_agree(
            replay(f, e, mode="complementary"),
            replay(f, e, mode="complementary", factorization=factorize(f)),
        )


def scaled_g(f):
    """The canonical factorization of f with g scaled by 1 + 1e-6."""
    fac = factorize(f)
    return Factorization(GridFunction(f.spec, fac.g.samples * (1 + 1e-6)), fac.h)


def test_check_covers_the_factorization():
    f, e, dsets = theorem5_instance([2, 5, 11, 23], 40, 0)
    assert replay(f, e, dsets=dsets, factorization=factorize(f)).check() == []
    halfline = random_function(GridSpec((192,), (48,)), range(0, 49), 0)
    complementary = complementary_instance([2, 5, 11], 24, 0)
    for tr in (
        replay(f, e, dsets=dsets, factorization=scaled_g(f)),
        replay(halfline, Enumeration([2, 5, 11, 23]), factorization=scaled_g(halfline)),
        replay(complementary, Enumeration([2, 5, 11]), mode="complementary",
               factorization=scaled_g(complementary)),
    ):
        assert any(v.startswith("factorization residual") for v in tr.check())
