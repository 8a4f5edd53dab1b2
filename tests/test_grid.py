import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleylab.cones import as_vec
from paleylab.grid import (
    GridFunction,
    GridSpec,
    WindowViolation,
    auto_spec,
    coeff,
    dft,
    norm_l1,
    norm_l2,
    synth,
)


def test_spec_validates_alias_freedom():
    with pytest.raises(ValueError):
        GridSpec((8,), (4,))  # 2*4+1 > 8
    GridSpec((9,), (4,))


def test_auto_spec_smooth_sizes():
    spec = auto_spec(100)
    assert spec.dims[0] >= 202
    n = spec.dims[0]
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    assert n == 1


def test_coeff_orthonormality():
    spec = GridSpec((32,), (10,))
    f = synth({(7,): 1.0}, spec)
    assert abs(coeff(f, 7) - 1) < 1e-14
    for n in range(-10, 11):
        if n != 7:
            assert abs(coeff(f, n)) < 1e-14


def test_coeff_example_n8():
    spec = GridSpec((8,), (3,))
    f = synth({(0,): 1.0, (2,): 1.0}, spec)
    assert abs(coeff(f, 2) - 1) < 1e-14


def test_coeff_outside_window_raises():
    spec = GridSpec((32,), (10,))
    f = synth({(3,): 1.0}, spec)
    with pytest.raises(WindowViolation):
        coeff(f, 11)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synth_coeff_roundtrip(seed):
    rng = np.random.default_rng(seed)
    spec = GridSpec((129,), (64,))
    spectrum = {
        (n,): complex(rng.standard_normal(), rng.standard_normal())
        for n in range(-64, 65)
    }
    f = synth(spectrum, spec)
    err = max(abs(coeff(f, n) - spectrum[(n,)]) for n in range(-64, 65))
    scale = max(abs(v) for v in spectrum.values())
    assert err <= 1e-12 * scale


def synth_loop(spectrum, spec):
    """Reference: the per-key loop that `synth` vectorises."""
    acc = np.zeros(spec.dims, complex)
    for n, c in spectrum.items():
        spec.require_window(n)
        acc[tuple(ci % d for ci, d in zip(as_vec(n), spec.dims))] += c
    return np.fft.ifftn(acc) * spec.size


def test_synth_matches_loop_reference():
    rng = np.random.default_rng(5)
    line, plane = GridSpec((32,), (10,)), GridSpec((12, 9), (5, 4))
    cases = [
        (line, {(n,): complex(*rng.standard_normal(2)) for n in range(-10, 11)}),
        (line, {3: rng.standard_normal(), -4: 1j, (0,): 2.0}),
        (plane, {v: complex(*rng.standard_normal(2)) for v in plane.window_points()}),
        (line, {}),
    ]
    for spec, spectrum in cases:
        assert np.array_equal(synth(spectrum, spec).samples, synth_loop(spectrum, spec))


def test_synth_names_first_bad_key():
    spec = GridSpec((32,), (10,))
    with pytest.raises(WindowViolation, match=r"\(-11,\)"):
        synth({(1,): 1.0, (-11,): 1.0, (12,): 1.0}, spec)
    with pytest.raises(WindowViolation, match=r"\(11,\)"):
        synth({(1,): 1.0, (11,): 1.0, (1, 2): 1.0}, spec)
    with pytest.raises(ValueError, match="wrong dimension"):
        synth({(1, 2): 1.0, (11,): 1.0}, spec)
    with pytest.raises(WindowViolation):
        synth({(10**30,): 1.0}, spec)


def test_synth_empty_spectrum_is_zero():
    spec = GridSpec((16,), (5,))
    f = synth({}, spec)
    assert np.all(f.samples == 0)


def test_norm_l1_of_character_is_one():
    spec = GridSpec((64,), (10,))
    f = synth({(4,): 1.0}, spec)
    assert abs(norm_l1(f) - 1) < 1e-13


def test_norm_l1_two_term_closed_form():
    # |1 + e^{2it}| integrates to 4/pi under the normalized measure
    spec = GridSpec((1024,), (4,))
    f = synth({(0,): 1.0, (2,): 1.0}, spec)
    assert abs(norm_l1(f) - 4 / np.pi) < 1e-4


def test_parseval():
    rng = np.random.default_rng(11)
    spec = GridSpec((64,), (20,))
    f = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    total = float(np.sum(np.abs(f.hat()) ** 2))
    assert abs(norm_l2(f) ** 2 - total) < 1e-12 * total


def test_multi_axis_coeff_and_synth():
    spec = GridSpec((16, 9), (5, 3))
    f = synth({(2, -1): 1.5 + 0.5j}, spec)
    assert abs(coeff(f, (2, -1)) - (1.5 + 0.5j)) < 1e-13
    assert abs(coeff(f, (1, 1))) < 1e-13
    # the only nonzero coefficient in the window
    hat = f.hat()
    ns = np.array(spec.window_points())
    vals = hat[tuple((ns % spec.dims).T)]
    assert ns[np.abs(vals) > 1e-15 * np.abs(hat).max()].tolist() == [[2, -1]]


@pytest.mark.parametrize(
    "shape",
    [(180, 3, 3, 3), (192, 3, 4, 3), (4,), (3,), (2,), (1,), (240, 3, 3, 3, 3, 3), (3, 4, 10)],
)
def test_dft_matches_numpy(shape):
    # butterflies on the axes of 1-4 points (several blocks of axis-0 slices
    # for the J = 5 lifted grid, small leading axes for the last shape)
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = x.copy()
    scale = 1e-15 * np.abs(x).sum()
    assert np.abs(dft(x) - np.fft.fftn(x)).max() <= scale
    assert np.abs(dft(x, inverse=True) - np.fft.ifftn(x) * x.size).max() <= scale
    assert np.array_equal(x, before)


def test_dft_is_numpy_bytes_without_small_axes():
    rng = np.random.default_rng(11)
    for shape in ((12, 9), (192,)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert dft(x).tobytes() == np.fft.fftn(x).tobytes()
        assert dft(x, inverse=True).tobytes() == (np.fft.ifftn(x) * x.size).tobytes()
