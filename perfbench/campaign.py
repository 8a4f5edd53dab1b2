"""Workload `campaign`: `paleylab verify --workers 1 --no-timing`, in process.

One op is one `paleylab.cli.main` call on a config file of one template; a
round is one call per template.  The template shapes are fixed: the 24
criterion-3 Schur templates of the acceptance suite plus its (4, 5, 9)
template, two negative-halfline templates, two outside-K-positive templates
and one ratio-only `s` template.  The campaign's master seed of the call on
template t is 100·seed + t, so the seed draws every replayed function; the
shapes, and with them the work per round, are the same for every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import checks
from .harness import Op

TRIALS = {"full": 10, "smoke": 2}


def criterion3_template(i: int) -> dict:
    """The acceptance suite's criterion-3 template i (J = 1..8, M <= 512)."""
    r = np.random.default_rng([424242, i])
    J = int(r.integers(1, 9))
    ks = [int(r.integers(1, 12))]
    target = int(2 ** r.uniform(4, 9))
    while len(ks) < J:
        nxt = 2 * ks[-1] + int(r.integers(1, max(2, ks[-1])))
        if nxt > target:
            break
        ks.append(nxt)
    M = min(512, max(int(ks[-1] * r.uniform(1.0, 1.6)), ks[-1]))
    return {"k": ks, "forbidden": "schur", "M": M}


def templates(size: str) -> list[dict]:
    schur = [criterion3_template(i) for i in range(24 if size == "full" else 3)]
    schur.append({"k": [4, 5, 9], "forbidden": "schur", "M": 16})
    return schur + [
        {"k": [2, 5, 11, 23], "forbidden": "negative-halfline", "M": 32},
        {"k": [1, 3, 7, 15, 31, 63], "forbidden": "negative-halfline", "M": 80},
        {"k": [2, 5, 11, 23], "forbidden": "outside-K-positive", "M": 32},
        {"k": [1, 3, 7, 15, 31], "forbidden": "outside-K-positive", "M": 40},
        {"k": [2, 5, 11], "forbidden": "s", "M": 24},
    ][: 5 if size == "full" else 3]


def _schur_sample(ks, M):
    """Schur members in [-M, M] from sign vectors with |ε_j| <= 3."""
    return checks.brute_schur(ks, -M, M, 3)


def build(seed: int, size: str, workdir: Path) -> list[Op]:
    from paleylab import cli, lab

    trials = TRIALS[size]
    ops = []
    for t, template in enumerate(templates(size)):
        config = workdir / f"campaign-{t}.json"
        config.write_text(json.dumps({"templates": [template]}))
        out_path = workdir / f"campaign-{t}-report.json"
        master = 100 * seed + t
        argv = [
            "verify", "--instances", str(config), "--trials", str(trials),
            "--seed", str(master), "--workers", "1", "--no-timing", "--out", str(out_path),
        ]

        def check(code, template=template, master=master, out_path=out_path):
            checks.require(code == 0, f"paleylab verify exited with {code}")
            inst = lab.Instance.from_json(template)
            brute = template["forbidden"] == "schur" and len(inst.k) <= 4
            ratios = []
            for i in range(trials):
                # run_campaign draws instance i of its one template from stream i
                f = lab.make_instance(inst, lab.instance_rng(master, i))
                ratios.append(checks.fft_ratio(f.samples, inst.k))
                checks.check_instance_ratio(ratios[-1], template["forbidden"])
                if brute and i == 0:
                    checks.check_vanishes_on(
                        f.samples, _schur_sample(inst.k, inst.M), "brute-force Schur set"
                    )
            report = json.loads(out_path.read_text())
            checks.check_campaign_report(
                report, checks.CEILING[template["forbidden"]], trials, max(ratios))

        ops.append(Op(
            label=f"verify {template['forbidden']} k={template['k']} M={template['M']}",
            items=trials,
            call=lambda argv=argv: cli.main(argv),
            check=check,
            # each call rewrites its own report file, read back untimed
            digest=lambda code, out_path=out_path: (code, out_path.read_text()),
        ))
    return ops
