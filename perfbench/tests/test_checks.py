"""Each correctness check passes on the lab's real output and rejects a
corrupted copy of it."""

import json

import numpy as np
import pytest

from perfbench import checks
from perfbench.exact_sets import PERIOD, brute_window


def test_riesz_numerator_off_by_one():
    from paleylab.riesz import riesz_expansion

    ks = [3, 7, 16, 36]
    exp = riesz_expansion(ks)
    phases = [1, 12345, 999_999]
    checks.check_riesz(ks, exp.numerators, exp.exp2, phases, PERIOD)
    bad = dict(exp.numerators)
    bad[(7,)] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_riesz(ks, bad, exp.exp2, phases, PERIOD)


def _schur_arrays(ks, W):
    from paleylab.sets import Enumeration, Window, schur_set, schur_set_via_gaps

    e, w = Enumeration(ks), Window(-W, 0)
    return tuple(np.array([m[0] for m in r.members], dtype=np.int64)
                 for r in (schur_set(e, w), schur_set_via_gaps(e, w)))


def test_schur_member_dropped():
    ks = [2, 5, 11]
    dp, gaps = _schur_arrays(ks, ks[-1])
    lo, bound = brute_window(ks)
    brute = checks.brute_schur(ks, lo, -1, bound)
    checks.check_schur_routes(dp, gaps)
    checks.check_against_brute(dp, lo, -1, brute)
    dropped = np.delete(dp, dp.size // 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_schur_routes(dropped, gaps)
    with pytest.raises(checks.CheckFailed):
        checks.check_against_brute(dropped, lo, -1, brute)


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    """A real `paleylab verify` report and its independently recomputed max ratio."""
    from paleylab import cli, lab

    template = {"k": [2, 5, 11], "forbidden": "schur", "M": 24}
    d = tmp_path_factory.mktemp("verify")
    (d / "config.json").write_text(json.dumps({"templates": [template]}))
    argv = ["verify", "--instances", str(d / "config.json"), "--trials", "3", "--seed", "4",
            "--workers", "1", "--no-timing", "--out", str(d / "report.json")]
    assert cli.main(argv) == 0
    inst = lab.Instance.from_json(template)
    ratios = [checks.fft_ratio(lab.make_instance(inst, lab.instance_rng(4, i)).samples, inst.k)
              for i in range(3)]
    return json.loads((d / "report.json").read_text()), max(ratios)


def test_campaign_report_passes(verify_report):
    report, recomputed = verify_report
    checks.check_campaign_report(report, checks.SQRT2, 3, recomputed)


def test_ratio_over_ceiling(verify_report):
    report, _ = verify_report
    bad = dict(report, max_ratio=checks.SQRT2 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="ceiling"):
        checks.check_campaign_report(bad, checks.SQRT2, 3, bad["max_ratio"])
    with pytest.raises(checks.CheckFailed, match="ceiling"):
        checks.check_instance_ratio(bad["max_ratio"], "schur")


def test_residual_above_tolerance(verify_report):
    report, recomputed = verify_report
    bad = dict(report, worst_residual=2e-9)
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_campaign_report(bad, checks.SQRT2, 3, recomputed)


def test_max_ratio_disagrees_with_recomputation(verify_report):
    report, recomputed = verify_report
    bad = dict(report, max_ratio=report["max_ratio"] + 1e-10)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_campaign_report(bad, checks.SQRT2, 3, recomputed)


def test_chain_norms_recomputed():
    from paleylab.measures import check_measure_bound, random_density_measure
    from paleylab.sets import Enumeration

    ks = [1, 3, 7, 15]
    mu = random_density_measure(Enumeration(ks), "schur", M=27, seed=2)
    rep = check_measure_bound(mu, Enumeration(ks), hypothesis="schur")
    on_k, tv = checks.measure_on_k_and_tv("density", mu.density.samples, ks)
    checks.check_chain(rep.to_json(), rep.check(), on_k, tv)
    bad = rep.to_json()
    bad["links"][0][1] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_chain(bad, rep.check(), on_k, tv)
