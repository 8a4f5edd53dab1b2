"""Batch front end: compute sets, expand Riesz products, replay proofs, run
campaigns and optimizations from JSON configs; emit JSON or CSV.

Exit codes: 0 success or all-pass, 1 verification found a violation
(counterexample dumped), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .grid import GridFunction, synth
from .lab import Instance, make_instance, replay_dsets, run_campaign
from .lift import check_simple_s, lift_enumeration, lifted_s_set
from .measures import (
    check_measure_bound,
    check_measure_bound_via_lift,
    random_atomic_measure,
    random_density_measure,
)
from .optimize import OptimizerConfig, optimize_ratio
from .proofkit import replay
from .riesz import riesz_expansion
from .sets import (
    Enumeration,
    Window,
    alt_sum_set,
    d_set,
    g_set,
    riesz_support,
    s_set,
    schur_set,
)


def parse_freqs(text: str):
    """Comma-separated integers; semicolon-separated tuples for dim > 1."""
    text = text.strip()
    if ";" in text:
        return [tuple(int(x) for x in part.split(",")) for part in text.split(";") if part]
    return [int(x) for x in text.split(",") if x]


def parse_window(text: str) -> Window:
    """lo:hi with comma-separated components for dim > 1 (e.g. -3,-3:3,3)."""
    lo, hi = text.split(":")

    def side(part):
        vals = [int(x) for x in part.split(",") if x]
        return vals[0] if len(vals) == 1 else tuple(vals)

    return Window(side(lo), side(hi))


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dump_json(obj, out: str | None):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def cmd_sets(args) -> int:
    e = Enumeration(parse_freqs(args.k))
    if args.window:
        w = parse_window(args.window)
        if w.dim != e.dim:
            raise ValueError("window dimension disagrees with the enumeration")
    else:
        reach = 4 * max((max(abs(c) for c in v) for v in e.entries), default=1)
        w = Window(tuple(-reach for _ in range(e.dim)), tuple(0 for _ in range(e.dim)))
    name = args.set
    if name == "schur":
        rep = schur_set(e, w, args.coeff_bound)
    elif name == "s":
        rep = s_set(e)
    elif name == "riesz":
        rep = riesz_support(e.entries)
    elif name == "alt":
        rep = alt_sum_set(e)
    elif name == "dj":
        if args.j is None:
            raise ValueError("--set dj needs --j")
        rep = d_set(args.j, e, w)
    elif name == "gj":
        if args.j is None:
            raise ValueError("--set gj needs --j")
        rep = g_set(args.j, e, w)
    else:
        raise ValueError(f"unknown set {name!r}")
    _dump_json(rep.to_json(), args.out)
    return 0


def cmd_riesz(args) -> int:
    expansion = riesz_expansion(parse_freqs(args.k))
    _dump_json(expansion.to_json(), args.out)
    return 0


def _function_from_dump(d: dict) -> tuple[GridFunction, Instance]:
    inst = Instance.from_json(d["template"] if "template" in d else d)
    spec = inst.grid()
    if "spectrum" in d:
        spectrum = {(int(n),): complex(re, im) for n, re, im in d["spectrum"]}
        f = synth(spectrum, spec)
    else:
        f = make_instance(inst)
    return f, inst


def cmd_replay(args) -> int:
    with open(args.instances) as fh:
        d = json.load(fh)
    f, inst = _function_from_dump(d)
    mode = args.mode or inst.replay_mode() or "new"
    dsets = d.get("dsets")
    if dsets is not None:
        dsets = [[tuple(m) if isinstance(m, (list, tuple)) else int(m) for m in ds] for ds in dsets]
    else:
        dsets = replay_dsets(inst, mode)
    trace = replay(f, inst.enumeration, mode=mode, dsets=dsets)
    _dump_json(trace.to_json(), args.out)
    return 0 if trace.ok else 1


def cmd_verify(args) -> int:
    with open(args.instances) as fh:
        config = json.load(fh)
    raw = config["templates"] if isinstance(config, dict) else config
    templates = [Instance.from_json(t) for t in raw]
    report = run_campaign(
        templates,
        trials=args.trials,
        master_seed=args.seed,
        workers=args.workers,
    )
    _dump_json(report.to_json(include_timing=not args.no_timing), args.out)
    return 0 if report.ok else 1


def cmd_optimize(args) -> int:
    with open(args.instances) as fh:
        template = Instance.from_json(json.load(fh))
    cfg = OptimizerConfig(
        restarts=args.restarts, iterations=args.iterations, seed=args.seed
    )
    result = optimize_ratio(template, cfg)
    if args.format == "csv":
        _emit(result.log_csv(), args.out)
    else:
        _dump_json(
            {"ratio": result.ratio, "k": list(template.k), "iterations": len(result.log)},
            args.out,
        )
    return 0


def cmd_lift(args) -> int:
    e = Enumeration(parse_freqs(args.k))
    le = lift_enumeration(e)
    ok, witnesses = check_simple_s(e)
    payload = {
        "pairs": [[p[0], list(p[1:])] for p in le.pairs()],
        "extremely_lacunary": le.extreme_lacunarity().holds,
        "exact": le.extreme_lacunarity().exact,
        "simple_s_ok": ok,
        "witnesses": [list(wit) for wit in witnesses],
        "s_members": lifted_s_set(le).array.tolist(),
    }
    _dump_json(payload, args.out)
    return 0 if ok else 1


def cmd_measures(args) -> int:
    with open(args.instances) as fh:
        config = json.load(fh)
    runs = config if isinstance(config, list) else [config]
    reports = []
    bad = 0
    for i, run in enumerate(runs):
        e = Enumeration(run["k"])
        hypothesis = run.get("hypothesis", "schur-riesz")
        seed = int(run.get("seed", args.seed))
        M = run.get("M")
        if run.get("lift"):
            mu = (
                random_atomic_measure(e, "s", M or 64, seed=seed)
                if run.get("type") == "atomic"
                else random_density_measure(e, "s", M or 64, seed=seed)
            )
            rep = check_measure_bound_via_lift(mu, e)
        else:
            if run.get("type") == "atomic":
                mu = random_atomic_measure(e, hypothesis, M or 64, seed=seed)
            else:
                mu = random_density_measure(e, hypothesis, M or 64, seed=seed)
            rep = check_measure_bound(mu, e, hypothesis=hypothesis, M=M)
        problems = rep.check()
        bad += bool(problems)
        reports.append({"index": i, "ok": not problems, "violations": problems, "report": rep.to_json()})
    _dump_json(reports, args.out)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="paleylab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sets", help="enumerate a forbidden set inside a window")
    sp.add_argument("--k", required=True)
    sp.add_argument("--window", help="lo:hi")
    sp.add_argument("--set", required=True, choices=["schur", "s", "riesz", "alt", "dj", "gj"])
    sp.add_argument("--j", type=int)
    sp.add_argument("--coeff-bound", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sets)

    rp = sub.add_parser("riesz", help="exact Riesz product expansion")
    rp.add_argument("--k", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_riesz)

    pl = sub.add_parser("replay", help="replay one instance file")
    pl.add_argument("--instances", required=True)
    pl.add_argument("--mode", choices=["new", "classic", "complementary"])
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_replay)

    vf = sub.add_parser("verify", help="run a seeded campaign from a config file")
    vf.add_argument("--instances", required=True)
    vf.add_argument("--trials", type=int, default=100)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--workers", type=int, default=None)
    vf.add_argument("--no-timing", action="store_true")
    vf.add_argument("--out")
    vf.set_defaults(func=cmd_verify)

    op = sub.add_parser("optimize", help="search for extremal ratios")
    op.add_argument("--instances", required=True)
    op.add_argument("--restarts", type=int, default=6)
    op.add_argument("--iterations", type=int, default=250)
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--format", choices=["json", "csv"], default="json")
    op.add_argument("--out")
    op.set_defaults(func=cmd_optimize)

    lf = sub.add_parser("lift", help="lift an enumeration and check the simple-set identity")
    lf.add_argument("--k", required=True)
    lf.add_argument("--out")
    lf.set_defaults(func=cmd_lift)

    ms = sub.add_parser("measures", help="verify measure chains from a config file")
    ms.add_argument("--instances", required=True)
    ms.add_argument("--seed", type=int, default=0)
    ms.add_argument("--out")
    ms.set_defaults(func=cmd_measures)

    return p


VALUE_FLAGS = ("--k", "--window")


def _merge_dash_values(argv):
    """Fold `--k -2,6` into `--k=-2,6` so negative values parse."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in VALUE_FLAGS:
            try:
                val = next(it)
            except StopIteration:
                out.append(tok)
                break
            out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
