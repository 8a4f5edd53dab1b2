import cmath
import math

import numpy as np
import pytest

from paleylab.cones import ConeOrder
from paleylab.grid import GridSpec, coeff, norm_l1, synth
from paleylab.measures import (
    AtomicMeasure,
    DensityMeasure,
    check_measure_bound,
    check_measure_bound_via_lift,
    measure_bound_via_total_order,
    random_atomic_measure,
    random_density_measure,
    riesz_convolve,
)
from paleylab.riesz import riesz_expansion
from paleylab.sets import Enumeration


def test_measure_hat_examples():
    delta0 = AtomicMeasure([((0.0,), 1.0)])
    assert np.abs(delta0.hat([-3, 0, 2, 7]) - 1).max() < 1e-14

    spec = GridSpec((64,), (10,))
    dens = DensityMeasure(synth({(4,): 1.0}, spec))
    assert np.abs(dens.hat([4, 3]) - [1, 0]).max() < 1e-13

    half = AtomicMeasure([((0.0,), 0.5), ((math.pi,), 0.5)])
    ns = np.arange(-4, 5)
    assert np.abs(half.hat(ns) - (1 + (-1.0) ** ns) / 2).max() < 1e-12


def test_measure_hat_matches_per_frequency_oracle():
    # density: bit for bit the windowed coefficient, 0 beyond the window;
    # atomic: the sum over atoms of mass * e^{-i n.x}, to 1e-14 of |mu|
    rng = np.random.default_rng(17)
    for dims, half in (((40,), (12,)), ((9, 8), (3, 2))):
        spec = GridSpec(dims, half)
        window = spec.window_points()
        dens = DensityMeasure(synth(
            dict(zip(window, rng.standard_normal(2 * len(window)).view(complex))), spec
        ))
        ns = [tuple(int(c) for c in n) for n in rng.integers(-14, 15, (60, len(dims)))]
        oracle = [coeff(dens.density, n) if spec.in_window(n) else 0j for n in ns]
        assert dens.hat(ns).tolist() == oracle

        locs = rng.uniform(-np.pi, np.pi, (7, len(dims)))
        masses = rng.standard_normal(14).view(complex)
        atoms = AtomicMeasure(zip(map(tuple, locs), masses / np.abs(masses).sum()))
        oracle = [
            sum(m * cmath.exp(-1j * sum(c * x for c, x in zip(n, loc))) for loc, m in atoms.atoms)
            for n in ns
        ]
        assert np.abs(atoms.hat(ns) - oracle).max() < 1e-14 * atoms.total_variation


def per_atom_hat(mu, ns):
    """The per-atom loop that `AtomicMeasure.hat` runs as one pass."""
    freqs = np.asarray(ns, np.int64).reshape(-1, mu.dim)
    out = np.zeros(len(freqs), complex)
    for loc, mass in mu.atoms:
        phase = np.zeros(len(freqs))
        for c, x in zip(freqs.T, loc):
            phase = phase + c * x
        w = np.exp(-1j * phase)
        out.real += mass.real * w.real - mass.imag * w.imag
        out.imag += mass.real * w.imag + mass.imag * w.real
    return out


def test_atomic_hat_bitwise_per_atom_loop():
    # the last case spans several blocks of frequencies
    rng = np.random.default_rng(23)
    for dim, n_atoms, n_freqs in ((1, 9, 50), (2, 6, 40), (1, 0, 5), (1, 40, 3000)):
        locs = rng.uniform(-np.pi, np.pi, (n_atoms, dim))
        masses = rng.standard_normal(2 * n_atoms).view(complex)
        mu = AtomicMeasure(zip(map(tuple, locs), masses))
        ns = rng.integers(-60, 61, (n_freqs, dim))
        assert mu.hat(ns).tobytes() == per_atom_hat(mu, ns).tobytes()


def test_total_variation():
    mu = AtomicMeasure([((0.1,), 1 + 1j), ((2.0,), -0.5)])
    assert abs(mu.total_variation - (abs(1 + 1j) + 0.5)) < 1e-14
    spec = GridSpec((64,), (10,))
    dens = DensityMeasure(synth({(2,): 2.0}, spec))
    assert abs(dens.total_variation - 2.0) < 1e-12


def test_riesz_convolve_halving():
    spec = GridSpec((64,), (10,))
    mu = DensityMeasure(synth({(1,): 1.0}, spec))
    out = riesz_convolve(mu, [1, 3], spec)
    assert abs(coeff(out, 1) - 0.5) < 1e-13
    delta = AtomicMeasure([((0.0,), 1.0)])
    out2 = riesz_convolve(delta, [1, 3], spec)
    exp = riesz_expansion([1, 3])
    for n in exp.support():
        assert abs(coeff(out2, n) - float(exp[n])) < 1e-13


def test_riesz_convolve_window_guard():
    delta = AtomicMeasure([((0.0,), 1.0)])
    with pytest.raises(Exception):
        riesz_convolve(delta, [1, 3], GridSpec((8,), (3,)))


def test_convolution_contracts_total_variation():
    for seed in range(3):
        e = Enumeration([2, 5, 11])
        mu = random_density_measure(e, "schur-riesz", M=40, seed=seed)
        f_k = riesz_convolve(mu, [2, 5, 11], mu.density.spec)
        assert norm_l1(f_k) <= mu.total_variation * (1 + 1e-9)


def test_convolution_contraction_exact_for_atoms():
    # the grid mean of a shifted Riesz product is exactly its constant term,
    # so atomic convolutions are bounded with no quadrature slack at all
    e = Enumeration([2, 5, 11])
    spec = GridSpec((64,), (19,))
    for seed in range(5):
        mu = random_atomic_measure(e, "schur-riesz", M=19, seed=seed)
        f_k = riesz_convolve(mu, [2, 5, 11], spec)
        assert norm_l1(f_k) <= mu.total_variation * (1 + 1e-12)


def test_chain_single_character_density():
    spec = GridSpec((64,), (14,))
    mu = DensityMeasure(synth({(4,): 1.0}, spec))
    rep = check_measure_bound(mu, Enumeration([4]), hypothesis="negative", M=14)
    assert rep.check() == []
    assert abs(rep.ratio - 1.0) < 1e-12


def test_chain_density_instances():
    e = Enumeration([2, 5, 11, 23])
    for seed in range(4):
        mu = random_density_measure(e, "schur-riesz", M=48, seed=seed)
        rep = check_measure_bound(mu, e, hypothesis="schur-riesz", M=48)
        assert rep.check() == [], seed
        assert rep.ratio <= 2 * math.sqrt(2) + 1e-6


def test_chain_both_hypothesis_variants():
    e = Enumeration([1, 3, 7, 15])
    for hyp in ("schur-riesz", "schur"):
        mu = random_density_measure(e, hyp, M=30, seed=5)
        rep = check_measure_bound(mu, e, hypothesis=hyp, M=30)
        assert rep.check() == [], hyp


def test_chain_atomic_instances():
    e = Enumeration([2, 5, 11])
    for seed in range(3):
        mu = random_atomic_measure(e, "schur-riesz", M=24, seed=seed)
        rep = check_measure_bound(mu, e, hypothesis="schur-riesz", M=24)
        assert rep.check() == [], seed


def test_chain_hypothesis_violation_named():
    spec = GridSpec((64,), (14,))
    mu = DensityMeasure(synth({(4,): 1.0, (-1,): 0.5}, spec))
    with pytest.raises(ValueError, match="mu-hat"):
        check_measure_bound(mu, Enumeration([4]), hypothesis="negative", M=14)


def test_random_atomic_measure_constraints():
    e = Enumeration([2, 5, 11])
    mu = random_atomic_measure(e, "schur-riesz", M=24, seed=1)
    from paleylab.measures import _hypothesis_members

    members = _hypothesis_members(e, 24, "schur-riesz")
    assert np.abs(mu.hat(list(members))).max() <= 1e-9 * mu.total_variation


def test_lift_pipeline_unordered_non_lacunary():
    for seed, gammas in enumerate([[5, -3, 11, 2], [4, 9], [7, 3, 1], [-2, 6, -9, 12, 1]]):
        e = Enumeration(gammas)
        mu = random_density_measure(e, "s", M=32, seed=seed)
        rep = check_measure_bound_via_lift(mu, e)
        assert rep.check() == [], gammas
        assert rep.ratio <= 2 * math.sqrt(2) + 1e-6


def test_lift_pipeline_atomic():
    e = Enumeration([3, -5, 8])
    mu = random_atomic_measure(e, "s", M=24, seed=4)
    rep = check_measure_bound_via_lift(mu, e)
    assert rep.check() == []


def test_lift_pipeline_with_zero_frequency():
    # gamma_j = 0 makes a shifted exponent wrap onto a live support point on
    # a three-point axis; the widened axis keeps the model faithful
    for gammas, seed in (([0, 5], 3), ([3, 0, -4, 7], 5)):
        e = Enumeration(gammas)
        mu = random_density_measure(e, "s", M=24, seed=seed)
        rep = check_measure_bound_via_lift(mu, e)
        assert rep.check() == [], gammas


def test_lift_pipeline_full_size():
    # six arbitrary frequencies: the largest lifted model the lab runs
    e = Enumeration([7, -13, 29, 4, -2, 17])
    mu = random_density_measure(e, "s", M=80, seed=9)
    rep = check_measure_bound_via_lift(mu, e)
    assert rep.check() == []


def test_lift_preserves_total_variation_and_transform():
    # the lift never materializes the torus factor: it reuses mu-hat, so the
    # pulled-back quantities agree with the base ones identically
    e = Enumeration([4, -7, 2])
    mu = random_density_measure(e, "s", M=20, seed=8)
    rep = check_measure_bound_via_lift(mu, e)
    base = math.sqrt(np.sum(np.abs(mu.hat(e.scalars())) ** 2))
    assert abs(rep.ratio * mu.total_variation - base) < 1e-12


def test_total_order_reduction():
    cone = ConeOrder("generators", dim=2, generators=((1, 0), (0, 1)), bound=24)
    e = Enumeration([(5, 1), (0, 3)])
    spec = GridSpec((48, 32), (16, 9))
    rng = np.random.default_rng(3)
    total = ConeOrder("lex-last", dim=2)
    spectrum = {}
    for n1 in range(-16, 17):
        for n2 in range(-9, 10):
            if not total.in_strict_cone((-n1, -n2)):
                spectrum[(n1, n2)] = complex(rng.standard_normal(), rng.standard_normal())
    mu = DensityMeasure(synth(spectrum, spec))
    rep = measure_bound_via_total_order(mu, e, cone, spec)
    assert rep.check() == []


def test_lift_pipeline_seven_entries():
    # J = 7 runs on a 559,872-point grid with |D_1| = 126: a sample-space
    # basis would be a 559,872 x 126 complex matrix (about 1.1 GB), while the
    # coefficient-space replay only factors Gram matrices of at most 126 x 126
    e = Enumeration([7, -13, 29, 4, -2, 17, 53])
    mu = random_density_measure(e, "s", M=125, seed=7)
    rep = check_measure_bound_via_lift(mu, e)
    assert rep.check() == []
    assert rep.ratio > 0
