"""Command-line entry point: one dispatcher, per-module subcommands.

Every output embeds the exact run configuration: JSON outputs as a "config"
object next to "results", CSV outputs as a leading "# config: {...}" comment.
Numbers in CSV are printed with 17 significant digits so downstream fits are
bit-reproducible.  Exit status: 0 success, 1 runtime error, 2 invalid flags.
"""

import argparse
import json
import math
import sys

import numpy as np

from .diophantine import (GOLDEN_MEAN, SILVER_MEAN, continued_fraction,
                          convergents, frequency_diophantine_constant,
                          phase_diophantine_constant)
from .single_particle import (ModelParams, localization_table,
                              lyapunov_exponent)
from .many_body import diagonalize, compute_correlation, occupations, density
from .multiscale import (ScaleFamily, scale_decay_constants, chain_graph_value)
from .counterterm import fix_counterterm, counterterm_grid
from .analysis import fit_spatial_decay, phase_scan


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _parse_omega(text):
    if text == "golden":
        return GOLDEN_MEAN
    if text == "silver":
        return SILVER_MEAN
    return float(text)


def _parse_grid(text):
    """a:b:n -> n evenly spaced values from a to b inclusive."""
    a, b, n = text.split(":")
    return np.linspace(float(a), float(b), int(n)).tolist()


def _emit(config, payload, stream):
    if config["format"] == "json":
        json.dump({"config": config, "results": payload}, stream, indent=2)
        stream.write("\n")
    else:
        header, rows = payload
        stream.write("# config: " + json.dumps(config) + "\n")
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")


def _model_flags(p, beta=True, couplings=True):
    p.add_argument("--L", type=int, default=8)
    if beta:
        p.add_argument("--beta", type=float, default=8.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--u", type=float, default=1.0)
    if couplings:
        p.add_argument("--U", type=float, default=0.0)
    p.add_argument("--omega", default="golden")
    p.add_argument("--theta", type=float, default=0.2377)
    p.add_argument("--xhat", type=int, default=2)
    p.add_argument("--nu", type=float, default=0.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quasiloc",
        description="quasi-periodic fermionic chain laboratory")
    parser.add_argument("--config", help="JSON file with flag defaults")
    parser.add_argument("--output", "-o", help="output path (default stdout)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dioph", help="certify small-divisor constants")
    p.add_argument("--omega", default="golden")
    p.add_argument("--theta", type=float, default=0.2377)
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--qmax", type=int, default=10 ** 5)

    p = sub.add_parser("spectrum", help="single-particle spectrum and localization")
    _model_flags(p, beta=False, couplings=False)

    p = sub.add_parser("lyapunov", help="transfer-matrix Lyapunov exponent")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10 ** 5)
    p.add_argument("--omega", default="golden")
    p.add_argument("--theta", type=float, default=0.2377)

    p = sub.add_parser("correlate", help="imaginary-time two-point function")
    _model_flags(p)
    p.add_argument("--times", default="0.0",
                   help="comma-separated time differences")

    p = sub.add_parser("density", help="site occupations and mean filling")
    _model_flags(p)

    p = sub.add_parser("counterterm", help="fix nu by density matching")
    _model_flags(p)
    p.add_argument("--grid", help="a:b:n grid over both eps and U")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="absolute tolerance on nu")

    p = sub.add_parser("scales", help="single-scale propagator decay survey")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--hmin", type=int, default=-10)
    p.add_argument("--xhat", type=int, default=2)
    p.add_argument("--theta", type=float, default=0.2377)
    p.add_argument("--omega", default="golden")

    p = sub.add_parser("chain", help="chain-graph value and divisors")
    _model_flags(p)
    p.add_argument("--alphas", required=True,
                   help="comma-separated hops, e.g. +1,+1,-1,0")
    p.add_argument("--x1", type=int, default=0)
    p.add_argument("--k0", type=float, default=0.1)

    p = sub.add_parser("decay", help="spatial decay fit at one coupling point")
    _model_flags(p)
    p.add_argument("--window", default="2:8")
    p.add_argument("--fit-counterterm", action="store_true")

    p = sub.add_parser("scan", help="phase diagnostics over a coupling grid")
    p.add_argument("--eps-grid", default="0:0.2:3")
    p.add_argument("--U-grid", default="0:0.2:3")
    p.add_argument("--L-list", default="100,200,400")
    p.add_argument("--beta", type=float, default=8.0)
    p.add_argument("--omega", default="golden")
    p.add_argument("--theta", type=float, default=0.2377)
    p.add_argument("--xhat", type=int, default=2)
    return parser


def _params_from(args, beta=True, couplings=True):
    return ModelParams(
        L=args.L, beta=args.beta if beta else 1.0, eps=args.eps, u=args.u,
        U=args.U if couplings else 0.0, omega=_parse_omega(args.omega),
        theta=args.theta, x_hat=args.xhat,
        nu=getattr(args, "nu", 0.0))


def _run_dioph(args):
    # almost every omega is Diophantine only for tau > 1; NaN fails too
    if not 1.0 < args.tau < math.inf:
        raise ValueError("tau must exceed 1 and be finite")
    omega = _parse_omega(args.omega)
    c0, arg = frequency_diophantine_constant(omega, args.tau, args.qmax)
    c0p, argp = phase_diophantine_constant(omega, args.theta, args.tau,
                                           args.qmax)
    return "json", {
        "c0_freq": c0, "c0_phase": c0p,
        "argmin_x": {"freq": arg, "phase": argp},
        "convergents": convergents(continued_fraction(omega, 20)),
    }


def _run_spectrum(args):
    params = _params_from(args, beta=False, couplings=False)
    rows = [(e, xi, ipr) for e, xi, ipr in localization_table(params)]
    return "csv", (("energy", "xi", "ipr"), rows)


def _run_lyapunov(args):
    lam = lyapunov_exponent(args.E, args.eps, args.u,
                            _parse_omega(args.omega), args.theta, args.steps)
    return "json", {"E": args.E, "lyapunov": lam, "steps": args.steps}


def _run_correlate(args):
    params = _params_from(args)
    times = [float(t) for t in args.times.split(",")]
    spectral = diagonalize(params)
    corr = compute_correlation(params, spectral, times)
    rows = []
    for it, t in enumerate(corr.times):
        for ix, x in enumerate(params.sites):
            for iy, y in enumerate(params.sites):
                rows.append((int(x), int(y), float(t),
                             float(corr.values[it, ix, iy])))
    return "csv", (("x", "y", "t", "value"), rows)


def _run_density(args):
    params = _params_from(args)
    spectral = diagonalize(params)
    occ = occupations(params, spectral)
    rows = [(int(x), float(o)) for x, o in zip(params.sites, occ)]
    rows.append(("mean", density(params, spectral)))
    return "csv", (("x", "occupation"), rows)


def _run_counterterm(args):
    params = _params_from(args)
    if args.grid:
        values = _parse_grid(args.grid)
        results = counterterm_grid(params, values, values, tolerance=args.tol)
        return "json", [r.to_dict() for r in results.values()]
    return "json", [fix_counterterm(params, tolerance=args.tol).to_dict()]


def _run_scales(args):
    family = ScaleFamily.build(_parse_omega(args.omega), args.theta,
                               args.xhat, tau=args.tau, gamma=args.gamma,
                               h_min=args.hmin)
    rows = []
    for h in range(args.hmin, 1):
        sup_g, cn = scale_decay_constants(family, h)
        rows.append((h, sup_g, cn[1], cn[2], cn[3]))
    return "csv", (("h", "sup_g", "C_1", "C_2", "C_3"), rows)


def _run_chain(args):
    params = _params_from(args)
    alphas = [int(a) for a in args.alphas.split(",")]
    value, magnitudes = chain_graph_value(params, alphas, args.x1, args.k0)
    return "json", {
        "value_re": value.real, "value_im": value.imag,
        "divisor_magnitudes": magnitudes,
    }


def _run_decay(args):
    params = _params_from(args)
    spectral = diagonalize(params)
    if args.fit_counterterm:
        # nu only shifts mu, so the same spectrum serves the correlation
        params = params.with_nu(fix_counterterm(params, spectral=spectral).nu)
    corr = compute_correlation(params, spectral, [0.0])
    lo, hi = args.window.split(":")
    fit = fit_spatial_decay(corr, window=(int(lo), int(hi)))
    return "json", {
        "rate": fit.rate, "xi_fit": fit.xi_fit, "prefactor": fit.prefactor,
        "r_squared": fit.r_squared, "theorem_rate": fit.theorem_rate,
        "window": list(fit.window), "n_points": fit.n_points,
        "nu": params.nu, "discarded_weight": float(corr.discarded[0]),
        "tail_certified": spectral.tail_certified,
    }


def _run_scan(args):
    grid = phase_scan(_parse_grid(args.eps_grid), _parse_grid(args.U_grid),
                      [int(v) for v in args.L_list.split(",")], args.beta,
                      omega=_parse_omega(args.omega), theta=args.theta,
                      x_hat=args.xhat)
    rows = []
    for (eps, U), pt in sorted(grid.items()):
        rows.append((eps, U, pt.nu, pt.decay_rate, pt.lyapunov, pt.verdict))
    return "csv", (("eps", "U", "nu", "rate", "lyapunov", "verdict"), rows)


_HANDLERS = {
    "dioph": _run_dioph, "spectrum": _run_spectrum, "lyapunov": _run_lyapunov,
    "correlate": _run_correlate, "density": _run_density,
    "counterterm": _run_counterterm, "scales": _run_scales,
    "chain": _run_chain, "decay": _run_decay, "scan": _run_scan,
}


def main(argv=None):
    parser = build_parser()
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        try:
            with open(pre.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        known = {a.dest for a in parser._actions}
        for sp in parser._subparsers._group_actions[0].choices.values():
            known |= {a.dest for a in sp._actions}
        bad = set(overrides) - known
        if bad:
            print(f"invalid config: unknown keys {sorted(bad)}",
                  file=sys.stderr)
            return 2
        parser.set_defaults(**overrides)
        for sp in parser._subparsers._group_actions[0].choices.values():
            sp.set_defaults(**{k: v for k, v in overrides.items()
                               if k in {a.dest for a in sp._actions}})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handler = _HANDLERS[args.subcommand]
    try:
        fmt, payload = handler(args)
    except (ValueError, KeyError) as exc:
        # invalid model or flag ranges (L odd, beta <= 0, theta = 0, x_hat = 0)
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    config = {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("config", "output", "subcommand")},
        "output": args.output or "-",
        "format": fmt,
    }
    if args.output:
        with open(args.output, "w") as fh:
            _emit(config, payload, fh)
    else:
        _emit(config, payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
