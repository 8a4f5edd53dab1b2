"""Correctness checks on the program's outputs.

Each check either tests a property the method must have or compares against
a computation made here, apart from the program: brute-force sign-vector
enumerations, FFTs of the instance samples, direct sums over atoms, and the
Riesz product evaluated pointwise.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRTE = math.sqrt(math.e)
#: observed-ratio ceilings of the sharp-constant remarks, per selector
CEILING = {
    "schur": SQRT2,
    "negative-halfline": SQRT2,
    "outside-K-positive": SQRTE,
    "s": 2.0 * SQRT2,
}
RESIDUAL_TOL = 1e-9
RATIO_MATCH_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _admissible(eps) -> bool:
    s = 0
    seen_pos = exceeded = False
    for e in eps:
        s += e
        if s < 0 or (seen_pos and s <= 0):
            return False
        seen_pos = seen_pos or s > 0
        exceeded = exceeded or s > 1
    return s == 1 and exceeded


def brute_schur(ks, lo: int, hi: int, bound: int) -> list[int]:
    """Values Σ ε_j k_j in [lo, hi] over admissible ε with |ε_j| <= bound."""
    out = set()
    for eps in itertools.product(range(-bound, bound + 1), repeat=len(ks)):
        if _admissible(eps):
            m = sum(e * k for e, k in zip(eps, ks))
            if lo <= m <= hi:
                out.add(m)
    return sorted(out)


def brute_s_set(ks) -> list[int]:
    """The S set: admissible sign vectors with entries in {-1, 0, 1}."""
    return brute_schur(ks, -math.inf, math.inf, 1)


def brute_riesz_support(ks) -> list[int]:
    pts = sorted({k for k in ks if k != 0})
    vals = {0}
    for g in pts:
        vals = {v + s * g for v in vals for s in (-1, 0, 1)}
    return sorted(vals)


def fft_ratio(samples: np.ndarray, ks) -> float:
    """||f-hat restricted to K||_2 / ||f||_1 from the grid samples."""
    n = samples.size
    hat = np.fft.fft(samples) / n
    on_k = math.sqrt(sum(abs(hat[k % n]) ** 2 for k in ks))
    return on_k / float(np.mean(np.abs(samples)))


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def check_instance_ratio(ratio: float, selector: str):
    require(ratio <= CEILING[selector],
            f"instance ratio {ratio!r} above the {selector} ceiling {CEILING[selector]!r}")


def check_campaign_report(report: dict, ceiling: float, instances: int, recomputed_max: float):
    """One `paleylab verify` report against the recomputed instance ratios."""
    require(report["instances"] == instances,
            f"{report['instances']} instances, expected {instances}")
    require(report["failures"] == 0 and report["passes"] == instances,
            f"{report['failures']} failed replays")
    require(report["ceiling_ok"], "report says a ratio exceeds its ceiling")
    require(report["worst_residual"] <= RESIDUAL_TOL,
            f"worst residual {report['worst_residual']:.3e} above {RESIDUAL_TOL}")
    require(report["max_ratio"] <= ceiling,
            f"max_ratio {report['max_ratio']!r} above the ceiling {ceiling!r}")
    require(abs(report["max_ratio"] - recomputed_max) <= RATIO_MATCH_TOL,
            f"max_ratio {report['max_ratio']!r} != recomputed {recomputed_max!r}")


def check_vanishes_on(samples: np.ndarray, members, what: str):
    """f-hat is zero (to rounding) at every listed frequency."""
    n = samples.size
    hat = np.fft.fft(samples) / n
    scale = float(np.max(np.abs(hat)))
    for m in members:
        require(abs(hat[m % n]) <= 1e-12 * scale,
                f"f-hat({m}) = {abs(hat[m % n]):.3e} on the {what}")


# ---------------------------------------------------------------------------
# exact sets
# ---------------------------------------------------------------------------

def check_schur_routes(dp: np.ndarray, gaps: np.ndarray):
    """Both Schur routes list the same strictly increasing negative members."""
    require(np.array_equal(dp, gaps),
            f"the two Schur routes disagree ({dp.size} vs {gaps.size} members)")
    require(bool(np.all(np.diff(dp) > 0)), "Schur members are not sorted and distinct")
    require(dp.size == 0 or dp[-1] < 0, f"Schur member {dp[-1]} is not negative")


def check_against_brute(members: np.ndarray, lo: int, hi: int, brute: list[int]):
    inside = members[(members >= lo) & (members <= hi)].tolist()
    require(inside == brute,
            f"Schur set on [{lo}, {hi}] differs from brute force: "
            f"{sorted(set(inside) ^ set(brute))[:5]}")


def check_draw(ks, W: int, schur: np.ndarray, g_fulls: list, dks: list[int],
               g_caps: list, d_caps: list, s_members: list[int], riesz: list[int]):
    """Set-system properties of one draw (members as sorted int arrays).

    ``g_fulls[j-1]`` is G_{j+1} on the shifted full window, ``dks[j-1]`` is Δk_j.
    """
    shifted = np.concatenate([g - dk for g, dk in zip(g_fulls, dks)] + [schur[:0]])
    shifted = np.unique(shifted[(shifted >= -W) & (shifted <= 0)])
    require(np.array_equal(shifted, schur), "Schur set != union of the G_{j+1} - Δk_j")
    for a, b in zip(g_caps, g_caps[1:]):
        require(bool(np.all(np.isin(a, b))), "G sets are not nested")
    for a, b in zip(d_caps, d_caps[1:]):
        require(bool(np.all(np.isin(b, a))), "D sets are not antinested")
    require(s_members == brute_s_set(ks), "s_set differs from the sign-vector enumeration")
    require(riesz == brute_riesz_support(ks), "riesz_support differs from the signed sums")
    s_window = [m for m in s_members if -W <= m <= 0]
    require(bool(np.all(np.isin(s_window, schur))) and set(s_window) <= set(riesz),
            "S is not inside Schur ∩ Riesz")


def check_riesz(ks, numerators: dict, exp2: int, phases, period: int) -> None:
    """Exact facts of Π(1 + cos γt) and its value at t = 2π p / period.

    Phases n·p are reduced modulo the period in integers, so the cosines
    are taken of arguments in [0, 2π) and carry no error from large n·t.
    """
    kprime = sorted({k for k in ks if k != 0})
    require(exp2 == len(kprime), f"denominator 2^{exp2} for |K'| = {len(kprime)}")
    den = 1 << exp2
    require(sum(numerators.values()) == 4 ** exp2, "numerators do not sum to 4^|K'|")
    require(numerators.get((0,), 0) == den, "c(0) != 1")
    for g in kprime:
        require(2 * numerators.get((g,), 0) >= den, f"c({g}) < 1/2")
    for n, c in numerators.items():
        require(numerators.get((-n[0],)) == c, f"c({n[0]}) != c({-n[0]})")
    freqs = np.array([n[0] for n in numerators], dtype=np.int64)
    coeffs = np.array(list(numerators.values()), dtype=float) / den
    for p in phases:
        angles = 2 * np.pi * ((freqs * p) % period) / period
        series = float(np.sum(coeffs * np.cos(angles)))
        direct = math.prod(1.0 + math.cos(2 * math.pi * ((g * p) % period) / period)
                           for g in kprime)
        require(abs(series - direct) <= 1e-9,
                f"expansion at t=2π·{p}/{period}: {series!r} != product {direct!r}")


# ---------------------------------------------------------------------------
# measure chains
# ---------------------------------------------------------------------------

def measure_on_k_and_tv(kind: str, data, gammas) -> tuple[float, float]:
    """||mu-hat on K||_2 and |mu| computed here from the measure's own data.

    ``data`` is the density's grid samples or the atoms' (location, mass) list.
    """
    if kind == "density":
        n = data.size
        hat = np.fft.fft(data) / n
        half = (n - 1) // 2
        on_k = math.sqrt(sum(abs(hat[g % n]) ** 2 for g in gammas if abs(g) <= half))
        return on_k, float(np.mean(np.abs(data)))
    locs = np.array([loc for loc, _ in data], dtype=float)
    masses = np.array([m for _, m in data], dtype=complex)
    on_k = math.sqrt(sum(abs(np.sum(masses * np.exp(-1j * g * locs))) ** 2 for g in gammas))
    return on_k, float(np.sum(np.abs(masses)))


def check_chain(report: dict, problems: list, on_k: float, tv: float):
    """One measure-chain report against its own links and the recomputation."""
    require(not problems, f"chain reports violations: {problems[:2]}")
    for name, lhs, rhs in report["links"]:
        require(lhs <= rhs * (1 + RESIDUAL_TOL) + RESIDUAL_TOL, f"chain link {name} fails")
    require(report["ratio"] <= 2 * SQRT2, f"measure ratio {report['ratio']!r} above 2√2")
    require(_rel_close(report["links"][0][1], on_k, RATIO_MATCH_TOL),
            f"|mu-hat on K| {report['links'][0][1]!r} != recomputed {on_k!r}")
    require(_rel_close(report["links"][2][2], 4 * tv, RATIO_MATCH_TOL),
            f"4|mu| {report['links'][2][2]!r} != recomputed {4 * tv!r}")
    require(_rel_close(report["ratio"], on_k / tv, RATIO_MATCH_TOL),
            "ratio disagrees with the recomputed norms")


def check_lift_projection(lifted_s: list, base_s: list[int], hypothesis_members: list):
    """Lifted S projects into base S, and the hypothesis is exactly base S."""
    base = set(base_s)
    for m in lifted_s:
        require(m[0] in base, f"lifted S member {m} projects outside S")
    require(sorted(hypothesis_members) == sorted(base_s),
            "hypothesis members differ from the brute-force S set")
