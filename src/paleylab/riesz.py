"""Riesz products: exact dyadic-rational expansion and sampled evaluation.

R_K = Π_{γ ∈ K'} (1 + (γ + conj γ)/2) over K' = K \\ {0}.  Every coefficient
of the expansion is a dyadic rational with the common denominator 2^|K'|, so
the expansion is computed as an integer convolution in exponent space: each
factor (2 + γ' + conj γ')/2 maps numerators num[n] to
2·num[n] + num[n − γ'] + num[n + γ'].  The numerators sum to 4^|K'|, so with
|K'| capped at RIESZ_CAP they are exact in int64.  `sets.signed_sums`, the
walk that also gives the Riesz support, does each factor as one sort and one
segmented sum over int64 frequency keys.  Fraction values are made only
where the expansion is read.  The coefficient facts c(0) = 1 and
c(γ) >= 1/2 on K' for strongly lacunary K are exact statements about these
rationals, not floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import Vec, as_vec
from .grid import GridFunction, GridSpec, grid_character
from .sets import signed_sums


@dataclass(frozen=True, eq=False)
class RieszExpansion:
    """Exact expansion: coefficient c(freqs[i]) = nums[i] / 2^exp2.

    `freqs` is the support as an (n, d) int64 array in lexicographic order,
    `nums` the positive int64 numerators over the common denominator 2^exp2
    with exp2 = |K'|; frequencies not in `freqs` have coefficient 0.  The
    reads (``numerators``, ``[n]``, ``coeffs``, ``to_json``) are built from
    the arrays on each call and give Python ints or reduced Fractions.
    """

    freqs: np.ndarray
    nums: np.ndarray
    exp2: int

    @property
    def numerators(self) -> dict[Vec, int]:
        return dict(zip(zip(*self.freqs.T.tolist()), self.nums.tolist()))

    def __getitem__(self, n) -> Fraction:
        v = as_vec(n)
        hit = np.flatnonzero(np.all(self.freqs == v, axis=1)) if len(v) == self.freqs.shape[1] else ()
        return Fraction(int(self.nums[hit[0]]) if len(hit) else 0, 1 << self.exp2)

    @property
    def coeffs(self) -> dict[Vec, Fraction]:
        """Map frequency -> rational coefficient of the product expansion."""
        den = 1 << self.exp2
        return {n: Fraction(c, den) for n, c in self.numerators.items()}

    def support(self) -> list[Vec]:
        return list(zip(*self.freqs.T.tolist()))

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, complex coefficients), the form `synth` takes.
        Dividing by a power of two is exact, as float(Fraction) is."""
        return self.freqs, (self.nums / (1 << self.exp2)).astype(complex)

    def to_json(self) -> list:
        """Triples (frequency, numerator, exponent of 2 in the denominator)."""
        out = []
        for n, c in self.coeffs.items():
            key = n[0] if len(n) == 1 else list(n)
            out.append([key, c.numerator, c.denominator.bit_length() - 1])
        return out


def riesz_expansion(K) -> RieszExpansion:
    """Expand Π (1 + (γ' + conj γ')/2) exactly in exponent space.

    Raises CapExceeded when |K'| > RIESZ_CAP or the support's box does not
    fit int64 keys, before the expansion starts.
    """
    return RieszExpansion(*signed_sums(K))


def riesz_polynomial(K, spec: GridSpec) -> tuple[GridFunction, RieszExpansion]:
    """Sampled Riesz product and its exact expansion.

    Samples come from the pointwise product of the nonnegative factors
    1 + cos(γ'·t); they must match the synthesized expansion to 1e-12, and
    the whole support must fit the spec window (coefficients wrap otherwise).
    """
    expansion = riesz_expansion(K)
    for n in expansion.support():
        spec.require_window(n)
    samples = np.ones(spec.dims, float)
    pts = sorted({as_vec(g) for g in K})
    zero = tuple(0 for _ in range(spec.ndim))
    for g in pts:
        if g == zero:
            continue
        samples = samples * (1.0 + np.real(grid_character(spec, g)))
    f = GridFunction(spec, samples.astype(complex))
    return f, expansion
