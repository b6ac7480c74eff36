"""Command-line front end.

Commands: simulate, estimate, spec-test, fit-artfima, mc, ckc.  Every
command writes its outputs, and then ``main`` writes a manifest.json
(arguments, seeds, input hashes) sufficient to re-run it bit-identically;
a failed command writes no manifest.  ``mc.read_csv`` reads
every data file, and ``mc.write_json`` and ``mc.write_csv`` write every
file.  ``--bandwidth`` and ``spec-test``'s ``--lam`` take a number, held
at every sample size, or a power rule ``n^a``, which gives m^a at size m;
``spec-test`` passes both to ``run_spec_test`` as given, for one block
size: ``--block-size`` b, or ``--block-rule`` c for b = [c sqrt(n)], not
both.  Exit codes:
0 success, 2 validation error (``ValueError``, missing file or column, a
bad option: bad or non-finite input, a singular full-sample design; the
message names the data file), 3 numerical failure (``SubsamplingError``:
too many singular subsample blocks).
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .processes import (TemperedProcessSpec, NoiseConfig, simulate_model,
                        regression_function_sine)
from .kernel_regression import get_kernel, kernel_estimate
from .spec_test import (DEFAULT_WEIGHT_SUPPORT, run_spec_test, get_family, parse_exponent,
                        uniform_weight, SubsamplingError, _at_size)
from .whittle import fit_artfima00, fit_arfima00
from .mc import (BlockRule, StudyConfig, run_study, export_study,
                 read_csv, write_json, write_csv, _fmt)
from .empirical import ingest_ckc_csv, ckc_analysis

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _save_manifest(args):
    """The run record of a command that succeeded: its name and arguments,
    the package version and the hash of its input file (``--data`` or
    ``--config``; ``simulate`` reads none)."""
    inputs = [p for p in (getattr(args, "data", None), getattr(args, "config", None)) if p]
    manifest = {
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if not callable(v)},
        "package_version": __version__,
        "input_sha256": {os.path.basename(p): _sha256(p) for p in inputs},
    }
    return write_json(os.path.join(args.out, "manifest.json"), manifest)


def _weight_support(text):
    """--weight-support a,b: two numbers with a < b."""
    try:
        a, b = (float(v) for v in text.split(","))
        if a < b:
            return a, b
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected two numbers a,b with a < b, got {text!r}")


def _tuning(text):
    """--bandwidth or --lam: a number, or a power rule n^a kept as its text."""
    try:
        return float(text)
    except ValueError:
        try:
            parse_exponent(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}; expected a number or n^a") from None
        return text


def _attach_weight_support(argv):
    """``--weight-support a,b`` as ``--weight-support=a,b``: argparse reads a
    separate value such as -50,50, which starts with '-' and is not a plain
    number, as an option and rejects it."""
    out = []
    for arg in argv:
        if out and out[-1] == "--weight-support":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _cmd_simulate(args):
    spec = TemperedProcessSpec(d=args.d, lam=args.lam, n=args.n,
                               presample="full" if args.presample == "full" else 0)
    noise = NoiseConfig(rho=args.rho, psi=args.psi, sigma=args.sigma, seed=args.seed)
    path = simulate_model(spec, noise, f=regression_function_sine)
    os.makedirs(args.out, exist_ok=True)
    csv_path = write_csv(
        os.path.join(args.out, "path.csv"), ("k", "x", "u", "y"),
        ([_fmt(v) for v in row]
         for row in zip(range(1, spec.n + 1), path.x, path.u, path.y)))
    write_json(os.path.join(args.out, "run.json"),
               {"spec": spec.to_dict(), "noise": noise.to_dict()})
    print(csv_path)


def _cmd_estimate(args):
    x, y = read_csv(args.data, ("x", "y")).values()
    n = x.shape[0]
    if n < 2:  # one observation is its own fit, with no residual to spread
        raise ValueError(f"a variance needs at least 2 observations, got {n}")
    h = _at_size(args.bandwidth, n)
    grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
    est = kernel_estimate(x, y, grid, h, get_kernel(args.kernel),
                          alpha=args.alpha, variance=args.variance)
    os.makedirs(args.out, exist_ok=True)
    # an undefined grid point (no kernel mass) has NaN entries: empty cells
    out_csv = write_csv(
        os.path.join(args.out, "estimate.csv"),
        ("x", "fhat", "sigma2hat", "local_mass", "ci_lo", "ci_hi"),
        ([_fmt(v) if np.isfinite(v) else "" for v in row]
         for row in zip(est.grid, est.fhat, est.sigma2hat, est.local_mass,
                        est.ci_lo, est.ci_hi)))
    print(out_csv)


def _cmd_spec_test(args):
    x, y = read_csv(args.data, ("x", "y")).values()
    b = BlockRule(args.block_coef).size(len(x)) if args.block_size is None else args.block_size
    (result,) = run_spec_test(
        x, y, get_family(args.family), args.bandwidth, get_kernel(args.kernel),
        uniform_weight(*args.weight_support), d=args.d, lam=args.lam, blocks=[b])
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "spec_test.json"), result.to_dict())
    print(f"p_value={result.p_value!r} t_normalized={result.t_normalized!r}")


def _cmd_fit_artfima(args):
    series = [v for name, v in read_csv(args.data).items() if name != "year"]
    if len(series) != 1:
        raise ValueError("expected a single value column (plus optional year)")
    fit = (fit_artfima00 if args.model == "artfima" else fit_arfima00)(series[0])
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "fit.json"), fit.to_dict())
    print(f"d_hat={fit.d_hat!r} lambda_hat={fit.lambda_hat!r} mse={fit.mse!r}")


def _cmd_mc(args):
    with open(args.config) as fh:
        config = StudyConfig.from_dict(json.load(fh))
    result = run_study(config, threads=args.threads)
    export_study(result, args.out)
    print(args.out)


def _cmd_ckc(args):
    series = ingest_ckc_csv(args.data, country=args.country)
    report = ckc_analysis(series)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "ckc_report.json"), report)
    for row in report["p_values"]:
        print(f"{row['hypothesis']:9s} h={row['bandwidth_rule']:8s} "
              f"b={row['block_size']:3d} p={row['p_value']:.4f}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slmcoint",
        description="Tempered cointegrating regression: simulation, kernel "
                    "estimation, specification testing and Whittle fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--psi", type=float, default=0.25)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--presample", choices=("full", "0"), default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="kernel regression with confidence bands")
    p.add_argument("--data", required=True, help="CSV with a header row naming x and y")
    p.add_argument("--bandwidth", type=_tuning, default="n^-1/3",
                   help="a number or a power rule n^a")
    p.add_argument("--kernel", choices=["epanechnikov", "gaussian"],
                   default="epanechnikov")
    p.add_argument("--grid-start", type=float, default=0.0)
    p.add_argument("--grid-stop", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variance", choices=["centered", "uncentered"],
                   default="centered")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("spec-test", help="parametric specification test")
    p.add_argument("--data", required=True, help="CSV with a header row naming x and y")
    p.add_argument("--family", choices=["linear", "quadratic"], default="linear")
    p.add_argument("--bandwidth", type=_tuning, default="n^-1/5",
                   help="a number, or a power rule n^a (b^a at block scale)")
    blocks = p.add_mutually_exclusive_group()
    blocks.add_argument("--block-size", type=int, default=None)
    blocks.add_argument("--block-rule", dest="block_coef", type=float, default=1.0,
                        help="coefficient c of b = [c*n^0.5]")
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--lam", type=_tuning, default="n^-1/5",
                   help="as --bandwidth; 0 is long memory")
    p.add_argument("--kernel", choices=["gaussian", "epanechnikov"],
                   default="gaussian")
    p.add_argument("--weight-support", type=_weight_support,
                   default=DEFAULT_WEIGHT_SUPPORT,
                   help="support a,b of the uniform weight, a < b, given as "
                        "--weight-support a,b or --weight-support=a,b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spec_test)

    p = sub.add_parser("fit-artfima", help="Whittle fit of tempered noise")
    p.add_argument("--data", required=True,
                   help="CSV with a header row: a value column and an optional year")
    p.add_argument("--model", choices=["artfima", "arfima"], default="artfima")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_artfima)

    p = sub.add_parser("mc", help="run a Monte Carlo study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("ckc", help="Carbon Kuznets curve workflow")
    p.add_argument("--data", required=True, help="CSV with year,gdp,co2 columns")
    p.add_argument("--country", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ckc)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_weight_support(sys.argv[1:] if argv is None else argv))
    try:
        args.func(args)
        _save_manifest(args)
        return EXIT_OK
    except (ValueError, FileNotFoundError) as exc:
        message, data = str(exc), getattr(args, "data", None)
        # a validation error of a command that reads a data file names it
        if isinstance(exc, ValueError) and data and not message.startswith(f"{data}: "):
            message = f"{data}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except SubsamplingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
