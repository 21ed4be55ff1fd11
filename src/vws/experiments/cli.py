"""Command line entry point: one subcommand per recipe, plus compare."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import NonConvergence
from .compare import compare_runs, format_comparison
from .config import ExperimentConfig
from .recipes import RECIPES, run_recipe


def _comma_list(kind):
    """A comma separated list of kind; a bad element, or none, exits 2."""
    def parse(s: str) -> tuple:
        try:
            if values := tuple(kind(v) for v in s.replace(" ", "").split(",") if v):
                return values
            raise ValueError("no value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid list {s!r}: {exc}") from None
    return parse


def _add_run_flags(sp: argparse.ArgumentParser, ns=True, eps=True) -> None:
    """The run flags a recipe reads, each stored under its ExperimentConfig
    field; a flag not given leaves no attribute, so the field keeps its
    default, and a flag the recipe does not read is unrecognized."""
    if ns:
        sp.add_argument("--n", dest="ns", type=_comma_list(int), metavar="N",
                        help="comma separated grid sizes, e.g. 16,32,64")
    if eps:
        sp.add_argument("--eps", dest="eps_list", type=_comma_list(float),
                        metavar="EPS",
                        help="comma separated layer widths, e.g. 0.1,0.05")
    sp.add_argument("--out", dest="out", type=Path,
                    help="output root directory (default: runs/)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vws",
        description="Numerical experiments for very weak Stokes solutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, r in RECIPES.items():
        sp = sub.add_parser(name, help=f"run the {name} recipe",
                            argument_default=argparse.SUPPRESS)
        _add_run_flags(sp, *(f not in r.unread() for f in ("ns", "eps_list")))
    _add_run_flags(sub.add_parser("all", help="run every recipe",
                                  argument_default=argparse.SUPPRESS))
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
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_comparison(result))
        return 0 if result["match"] else 1

    flags = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        cfg = ExperimentConfig(recipe=args.command, **flags)
        report = run_recipe(cfg)
    except (ValueError, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    for line in report.lines():
        print(line)
    print(f"summary: {cfg.out_dir() / 'summary.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
