"""Command line entry point: one subcommand per recipe, plus compare."""

from __future__ import annotations

import argparse
import sys

from ..errors import RecipeMismatch
from .compare import compare_runs, format_comparison
from .config import resolve_config
from .recipes import RECIPE_ORDER, run_recipe


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", dest="n", default=None,
                    help="comma separated grid sizes, e.g. 16,32,64")
    sp.add_argument("--eps", dest="eps", default=None,
                    help="comma separated layer widths, e.g. 0.1,0.05")
    sp.add_argument("--T", dest="t", default=None, type=float,
                    help="final time for evolution recipes")
    sp.add_argument("--dt", dest="dt", default=None, type=float,
                    help="time step for evolution recipes")
    sp.add_argument("--scheme", dest="scheme", default=None,
                    choices=("euler", "cn"), help="time stepping scheme")
    sp.add_argument("--out", dest="out", default=None,
                    help="output root directory (default: runs/)")
    sp.add_argument("--seed", dest="seed", default=None, type=int,
                    help="seed for randomized probes")
    sp.add_argument("--config", dest="config", default=None,
                    help="INI file with a [vws] section and per-recipe "
                         "sections; flags override it")
    sp.add_argument("--allow-underresolved", dest="allow_underresolved",
                    action="store_const", const=True, default=None,
                    help="waive the n >= 8/eps resolution guard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vws",
        description="Numerical experiments for very weak Stokes solutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RECIPE_ORDER + ["all"]:
        sp = sub.add_parser(name, help=f"run the {name} recipe")
        _add_common(sp)
    cp = sub.add_parser("compare", help="compare two recipe run directories")
    cp.add_argument("dir_a")
    cp.add_argument("dir_b")
    cp.add_argument("--tol", type=float, default=1e-8,
                    help="relative difference treated as a regression")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        try:
            result = compare_runs(args.dir_a, args.dir_b, tol=args.tol)
        except (FileNotFoundError, RecipeMismatch) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_comparison(result))
        return 0 if result["match"] else 1

    overrides = {
        "n": args.n,
        "eps": args.eps,
        "t": args.t,
        "dt": args.dt,
        "scheme": args.scheme,
        "out": args.out,
        "seed": args.seed,
        "allow_underresolved": args.allow_underresolved,
    }
    try:
        cfg = resolve_config(args.command, config_path=args.config,
                             overrides=overrides)
        report = run_recipe(cfg)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    print(f"summary: {cfg.out_dir() / 'summary.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
