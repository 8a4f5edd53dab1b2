"""Exact finite Fourier analysis on uniform grids.

The grid with N points per axis models the circle with normalized measure:
norms and inner products are uniform means over grid points, and the discrete
coefficient of a trigonometric polynomial of windowed degree equals its
continuous coefficient exactly because N >= 2M + 1 leaves no aliasing inside
the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import Vec, as_vec


class WindowViolation(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Axis sizes and per-axis frequency window halves, with N >= 2M + 1."""

    dims: tuple[int, ...]
    window_half: tuple[int, ...]

    def __init__(self, dims, window_half):
        dims = tuple(int(n) for n in (dims if hasattr(dims, "__iter__") else [dims]))
        wh = tuple(
            int(m) for m in (window_half if hasattr(window_half, "__iter__") else [window_half])
        )
        if len(dims) != len(wh):
            raise ValueError("dims and window_half lengths disagree")
        if any(n < 1 for n in dims):
            raise ValueError("axis sizes must be positive")
        if any(2 * m + 1 > n for n, m in zip(dims, wh)):
            raise ValueError("need N >= 2M + 1 per axis for alias-free windows")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "window_half", wh)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def in_window(self, n) -> bool:
        v = as_vec(n)
        if len(v) != self.ndim:
            raise ValueError(f"frequency {v} has wrong dimension for {self.dims}")
        return all(abs(c) <= m for c, m in zip(v, self.window_half))

    def require_window(self, n):
        if not self.in_window(n):
            raise WindowViolation(f"frequency {as_vec(n)} outside window {self.window_half}")

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.dims[axis]
        return 2 * np.pi * np.arange(n) / n

    def window_points(self) -> list[Vec]:
        """Every frequency inside the window, in lexicographic order."""
        return [
            tuple(int(o) - m for o, m in zip(offsets, self.window_half))
            for offsets in np.ndindex(*(2 * m + 1 for m in self.window_half))
        ]

    def window_mask(self) -> np.ndarray:
        """Boolean FFT-layout mask of the residues inside the window."""
        axis_masks = []
        for n, m in zip(self.dims, self.window_half):
            am = np.zeros(n, bool)
            am[: m + 1] = True
            if m > 0:
                am[n - m :] = True
            axis_masks.append(am)
        mask = axis_masks[0]
        for am in axis_masks[1:]:
            mask = mask[..., None] & am
        return mask


def _smooth_size(n: int) -> int:
    """Smallest 5-smooth integer >= n (fast FFT lengths)."""
    best = None
    p2 = 1
    while p2 < 8 * n:
        p3 = p2
        while p3 < 8 * n:
            p5 = p3
            while p5 < 8 * n:
                if p5 >= n and (best is None or p5 < best):
                    best = p5
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return best


def auto_spec(max_freq, min_points: int = 0) -> GridSpec:
    """Grid spec for a required window: M per axis, N the smallest 5-smooth
    size >= max(2M + 2, min_points)."""
    ms = as_vec(max_freq) if hasattr(max_freq, "__iter__") else (int(max_freq),)
    dims = [_smooth_size(max(2 * m + 2, min_points)) for m in ms]
    return GridSpec(tuple(dims), tuple(ms))


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on the grid points t_i = 2π i / N per axis."""

    spec: GridSpec
    samples: np.ndarray

    def __init__(self, spec: GridSpec, samples):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != spec.dims:
            raise ValueError(f"sample shape {samples.shape} != grid {spec.dims}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_hat_cache", None)

    def hat(self) -> np.ndarray:
        """All discrete coefficients, index n taken modulo N per axis."""
        if self._hat_cache is None:
            object.__setattr__(self, "_hat_cache", np.fft.fftn(self.samples) / self.spec.size)
        return self._hat_cache


def grid_character(spec: GridSpec, n) -> np.ndarray:
    """Samples of the character e^{i n·t}."""
    v = as_vec(n)
    arrays = [np.exp(1j * c * spec.axis_points(axis)) for axis, c in enumerate(v)]
    out = arrays[0]
    for a in arrays[1:]:
        out = np.multiply.outer(out, a)
    return out


def coeff(f: GridFunction, n) -> complex:
    """Discrete Fourier coefficient: the uniform mean of f e^{-i n·t}."""
    f.spec.require_window(n)
    v = as_vec(n)
    idx = tuple(c % d for c, d in zip(v, f.spec.dims))
    return complex(f.hat()[idx])


def spectrum_of(f: GridFunction) -> dict[Vec, complex]:
    """Windowed frequencies with nonzero (above 1e-15 relative) coefficients."""
    hat = f.hat()
    scale = max(np.max(np.abs(hat)), 1e-300)
    out = {}
    for v in f.spec.window_points():
        idx = tuple(c % d for c, d in zip(v, f.spec.dims))
        val = hat[idx]
        if abs(val) > 1e-15 * scale:
            out[v] = complex(val)
    return out


def synth(spectrum, spec: GridSpec) -> GridFunction:
    """Samples of Σ c_n e^{i n·t} for a windowed spectrum: a mapping from
    frequency to coefficient, or a pair (frequencies as (n, ndim) ints,
    coefficients)."""
    acc = np.zeros(spec.dims, complex)
    if isinstance(spectrum, dict):
        keys = list(spectrum)
        try:
            freqs = np.array(keys, np.int64).reshape(len(keys), spec.ndim)
        except (ValueError, TypeError, OverflowError):
            for n in keys:  # names the first bad key, in order
                spec.require_window(n)
            freqs = np.array([as_vec(n) for n in keys], np.int64).reshape(len(keys), spec.ndim)
        values = np.array(list(spectrum.values()), complex)
    else:
        freqs, values = spectrum
        freqs = np.asarray(freqs, np.int64).reshape(len(freqs), spec.ndim)
    outside = np.any(np.abs(freqs) > np.array(spec.window_half), axis=1)
    if outside.any():
        spec.require_window(tuple(freqs[int(np.argmax(outside))].tolist()))
    np.add.at(acc, tuple((freqs % np.array(spec.dims)).T), values)
    return GridFunction(spec, np.fft.ifftn(acc) * spec.size)


def norm_l1(f: GridFunction) -> float:
    return float(np.mean(np.abs(f.samples)))


def norm_l2(f: GridFunction) -> float:
    return float(np.sqrt(np.mean(np.abs(f.samples) ** 2)))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """Mean of f times conjugate g."""
    if f.spec != g.spec:
        raise ValueError("grid specs disagree")
    return complex(np.vdot(g.samples, f.samples) / f.spec.size)


def modulate(f: GridFunction, k) -> GridFunction:
    """Pointwise product with e^{i k·t}; unitary on the grid."""
    return GridFunction(f.spec, f.samples * grid_character(f.spec, k))
