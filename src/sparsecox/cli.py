"""Command-line front end: fit / simulate / bench / path.

Exit codes: 0 success, 1 input or runtime error (running out of memory
included), 2 fit did not converge (the result file is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import (FORMAT_DENSE, FORMAT_SPARSE, load_dataset, save_dataset,
                   standardize, to_original_scale)
from .bar import BarConfig, fit_bar, path_over
from .screening import sjs_coxbar
from .sim import MethodConfig, SimScenario, run_benchmark, simulate


def detect_design_format(path):
    """sparse-coord files start with an 'n p nnz' integer triple."""
    with open(path, "rt", encoding="utf-8") as fh:
        first = fh.readline().split()
    if len(first) == 3:
        try:
            [int(tok) for tok in first]
            return FORMAT_SPARSE
        except ValueError:
            pass
    return FORMAT_DENSE


def parse_grid(spec):
    """Grid syntax: 'a:b:logN' / 'a:b:linN' or a comma list of values."""
    if ":" in spec:
        lo, hi, kind = spec.split(":")
        lo, hi = float(lo), float(hi)
        if kind.startswith("log"):
            if not (lo > 0 and hi > 0):
                raise ValueError(f"a log grid needs positive ends, not {spec!r}")
            return np.logspace(np.log10(lo), np.log10(hi), int(kind[3:]))
        if kind.startswith("lin"):
            return np.linspace(lo, hi, int(kind[3:]))
        raise ValueError(f"unknown grid kind in {spec!r}")
    return np.asarray([float(tok) for tok in spec.split(",") if tok.strip()])


def _add_tuning_flags(sub, lambda_rule=True, screen=True):
    # None stands for a flag not given, so that a command can refuse one it would ignore
    sub.add_argument("--xi", type=float, default=None)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    if lambda_rule:  # a bench method names its own rule
        sub.add_argument("--lambda-rule", dest="lambda_rule",
                         choices=["bic", "cbic", "fixed"], default=None)
    if screen:  # path_over never screens
        sub.add_argument("--screen-m", dest="screen_m", type=int, default=None)


def _xi(args):
    return 1.0 if args.xi is None else args.xi


def _bar_config(args):
    rule = args.lambda_rule
    if args.lam is not None:
        if rule not in (None, "fixed"):
            raise ValueError(f"--lambda fixes lambda, so --lambda-rule {rule} would be ignored")
        rule = "fixed"
    return BarConfig(xi=_xi(args), lambda_rule=rule or "bic", lambda_value=args.lam)


def _load(args):
    ds = load_dataset(args.surv, args.design, detect_design_format(args.design))
    return standardize(ds, args.standardize)


def cmd_fit(args):
    config = _bar_config(args)
    ds = _load(args)
    if args.screen_m is not None:
        fit = sjs_coxbar(ds, args.screen_m, config)
    else:
        fit = fit_bar(ds, config)
    beta = to_original_scale(ds, fit.beta)
    payload = {
        "coefficients": {str(int(j) + 1): float(beta[j]) for j in fit.support},
        "support": [int(j) + 1 for j in fit.support],
        "loglik": fit.loglik,
        "df": fit.df,
        "aic": fit.aic,
        "bic": fit.bic,
        "cbic": fit.cbic,
        "iterations": {"outer": fit.outer_iterations, "sweeps": fit.sweeps},
        "converged": bool(fit.converged),
        "config": {
            "xi": config.xi,
            "lambda": fit.lam,
            "lambda_rule": config.lambda_rule,
            "screen_m": args.screen_m,
            "standardize": args.standardize,
        },
        "version": __version__,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "wt", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if fit.converged else 2


def cmd_simulate(args):
    scenario = SimScenario.from_config(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    ds = simulate(scenario)
    fmt = args.format
    if fmt == "auto":
        density = ds.design.nnz() / max(ds.n * ds.p, 1)
        fmt = FORMAT_SPARSE if density < 0.5 else FORMAT_DENSE
    save_dataset(ds, args.out_surv, args.out_design, fmt)
    realized = 1.0 - ds.event_count / ds.n
    print(f"realized censoring rate: {realized:.4f}")
    return 0


def cmd_bench(args):
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    scenario = SimScenario.from_config(args.scenario)
    method = MethodConfig.from_name(args.method, lam=args.lam, xi=_xi(args),
                                    screen_m=args.screen_m)
    seed = args.seed if args.seed is not None else scenario.seed
    report = run_benchmark(scenario, method, args.reps, seed, threads=args.threads)
    report.to_csv(args.out)
    print(f"wrote {args.out} ({report.reps} replicates, {len(report.failures)} failed)")
    return 0


def cmd_path(args):
    if args.axis == "xi" and args.xi is not None:
        raise ValueError("the xi axis takes xi from --grid, so --xi would be ignored")
    if args.axis == "lambda" and (args.lam is not None or args.lambda_rule is not None):
        raise ValueError("the lambda axis takes lambda from --grid, so --lambda and "
                         "--lambda-rule would be ignored")
    config = _bar_config(args)
    if args.scenario:
        if args.surv or args.design:
            raise ValueError("path takes either --scenario or --surv/--design, not both")
        scenario = SimScenario.from_config(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        ds = standardize(simulate(scenario), args.standardize)
    else:
        if not (args.surv and args.design):
            raise ValueError("path needs either --scenario or --surv/--design")
        if args.seed is not None:
            raise ValueError("--seed draws a --scenario, so --surv/--design would ignore it")
        ds = _load(args)
    grid = np.sort(parse_grid(args.grid))
    path = path_over(ds, args.axis, grid, config, threads=args.threads)
    path = replace(path, fits=[None if fit is None else
                               replace(fit, beta=to_original_scale(ds, fit.beta))
                               for fit in path.fits])
    path.to_csv(args.out)
    failed = sum(e is not None for e in path.errors)
    print(f"wrote {args.out} ({grid.size} grid points, {failed} failed)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsecox",
        description="Sparse Cox regression via iteratively reweighted ridge",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one dataset, write a JSON result", allow_abbrev=False)
    fit.add_argument("--surv", required=True)
    fit.add_argument("--design", required=True)
    fit.add_argument("--standardize", choices=["none", "scale-only", "center-and-scale"],
                     default="none")
    _add_tuning_flags(fit)
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    sim = subs.add_parser("simulate", help="draw a dataset from a scenario file",
                          allow_abbrev=False)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out-surv", required=True)
    sim.add_argument("--out-design", required=True)
    sim.add_argument("--format", choices=["auto", FORMAT_DENSE, FORMAT_SPARSE], default="auto")
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    bench = subs.add_parser("bench", help="replicate benchmark, write a report CSV",
                            allow_abbrev=False)
    bench.add_argument("--scenario", required=True)
    bench.add_argument("--method", required=True)
    bench.add_argument("--reps", type=int, required=True)
    _add_tuning_flags(bench, lambda_rule=False)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    path = subs.add_parser("path", help="solution path over a tuning grid", allow_abbrev=False)
    path.add_argument("--scenario", default=None)
    path.add_argument("--surv", default=None)
    path.add_argument("--design", default=None)
    path.add_argument("--standardize", choices=["none", "scale-only", "center-and-scale"],
                      default="none")
    path.add_argument("--axis", choices=["lambda", "xi"], required=True)
    path.add_argument("--grid", required=True)
    _add_tuning_flags(path, screen=False)
    path.add_argument("--seed", type=int, default=None)
    path.add_argument("--threads", type=int, default=1)
    path.add_argument("--out", required=True)
    path.set_defaults(func=cmd_path)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "did not converge" here
        if exc.code == 2:
            return 1
        raise
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
