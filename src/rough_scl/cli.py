"""Command-line entry point.

One subcommand per experiment plus `suite`; every subcommand accepts
`--config <file>` (flat key = value text), `--seed` and `--out`; a suite runs
its members one after another.  The clauses a report failed, each with its
numbers, are printed as `failed:` lines under its FAIL line.
Exit status: 0 when the report passes, 1 when it fails, otherwise 2 from the one
`except` in `main`.  A ValueError or OSError (a config that fails to load, a suite
member that is not an experiment, a config that an experiment rejects, a datum or
path file that cannot be read) prints `config error: ...`; a RuntimeError (a
numerical breakdown inside a run, such as a quadrature that does not converge, or a
NaN or infinity in the report or manifest, which are strict JSON) prints
`run error: ...`.  Either is one stderr line and leaves no run directory.
The default output root is ./runs, overridable by the ROUGH_SCL_OUT variable.
"""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .harness import DEFAULT_SUITE, EXPERIMENTS, execute, run_suite


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the path seed")
    p.add_argument("--out", help="output root directory (default: runs/ or ROUGH_SCL_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rough-scl",
        description="Finite-volume laboratory for conservation laws driven by rough time signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve": "run the solver on one datum/path and dump snapshots",
        "contraction": "L1 distance of two data under one path, must be nonincreasing",
        "path-stability": "error scaling under sine perturbations of the driver",
        "refine": "Cauchy gaps under dyadic path refinement",
        "kinetic-check": "defect-measure extraction, sign/mass bounds, L1 identity",
        "dissipative-check": "L1 distance to local smooth solutions must not rise (periodic grids)",
        "semilinear-demo": "transform-vs-direct shock mismatch for a semilinear law",
    }
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name, help=helps[name]))
    suite = sub.add_parser("suite", help="run several experiments in order")
    suite.add_argument("experiments", nargs="*", help=f"names (default: {' '.join(DEFAULT_SUITE)})")
    _add_common(suite)
    return parser


_ERRORS = (ValueError, OSError, RuntimeError)


def _print_failed(report: dict) -> None:
    for clause in report.get("failed_clauses", []):
        print(f"  failed: {clause}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    suite = args.command == "suite"
    overrides = {"seed": args.seed} if suite else {"seed": args.seed, "experiment": args.command}
    try:
        cfg = load_config(args.config, overrides)
        if suite:
            names = args.experiments or list(DEFAULT_SUITE)
            unknown = [n for n in names if n not in EXPERIMENTS]
            if unknown:
                raise ValueError(f"unknown experiments: {unknown}")
            suite_dir, summary = run_suite(names, cfg, args.out)
        else:
            run_dir, report = execute(args.command, cfg, args.out)
    except _ERRORS as exc:
        print(f"{'run' if isinstance(exc, RuntimeError) else 'config'} error: {exc}", file=sys.stderr)
        return 2
    if suite:
        for name in names:
            res = summary["experiments"][name]
            print(f"{name}: {'PASS' if res['pass'] else 'FAIL'}  ({res['run_dir']})")
            _print_failed(res["report"])
        print(f"suite: {'PASS' if summary['pass'] else 'FAIL'}  ({suite_dir})")
        return 0 if summary["pass"] else 1
    ok = report.get("pass")
    print(f"{args.command}: {'PASS' if ok else 'FAIL'}  ({run_dir})")
    _print_failed(report)
    for key in sorted(report):
        if key in ("pass",) or isinstance(report[key], (list, dict)):
            continue
        print(f"  {key} = {report[key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
