"""Command-line interface for the benchmark harness.

Subcommands:
  run            execute the campaigns of a config file and write a report
  list-problems  show the registered benchmark problems
  fd-ref         build (and cache) a finite-difference Helmholtz reference
  split-inspect  dump the coupling matrix, C/F split and prolongation

Exit status is 0 when every solver run completed (converged or stopped at
its configured iteration cap) and 1 when any run failed outright.  A
campaign file that cannot be read, or whose campaigns (with the --seed and
--solver overrides applied) fail validation, or an --out, --trace or
--cache path that cannot be written, stops `run` with status 2 and one
line on standard error, before any campaign runs; `fd-ref` and
`split-inspect` treat settings that define no problem or grid the same
way (for `fd-ref`, also a resonant wavenumber, whose discrete operator
cannot be solved), and `split-inspect` names the flag at fault.  On
standard error, `run` names every failed run with its error, and every
run that stopped at its iteration cap without converging.
"""

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench, config, fdref, pde
from .activations import Activation
from .amg import (
    build_coupling_matrix, build_interpolation, check_eps_amg, dump_coarsening, ruge_stuben_split,
)
from .bench import PROBLEMS
from .network import NetworkArch


def _input_error(where, exc):
    """Print `exc` as one line on standard error; return the bad-input status 2."""
    message = " ".join(str(exc).split())
    print(f"mlmnet {where}: {message}", file=sys.stderr)
    return 2


def _cmd_run(args):
    replaced = {}
    if args.seed:
        replaced["seeds"] = tuple(args.seed)
    if args.solver:
        replaced["solvers"] = tuple(args.solver)
    try:
        # rebuilt, not assigned, so the overridden campaign is validated again
        campaigns = [
            dataclasses.replace(campaign, **replaced)
            for campaign in config.parse_campaign_file(args.config)
        ]
    except (OSError, ValueError, configparser.Error) as exc:
        return _input_error(f"run: {args.config}", exc)
    out, cache = Path(args.out), Path(args.cache)
    if out.is_dir() or not out.parent.is_dir():
        why = "is a directory" if out.is_dir() else f"no directory {out.parent}"
        return _input_error(f"run: --out {out}", why)
    if cache.exists() and not cache.is_dir():
        return _input_error(f"run: --cache {cache}", "is not a directory")
    trace_dir = None
    if args.trace is not None:
        trace_dir = Path(args.trace)
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _input_error(f"run: --trace {trace_dir}", exc)
    all_rows = []
    failed = 0
    for campaign in campaigns:
        rows, seed_results = bench.run_campaign(campaign, trace_dir=trace_dir, cache_dir=args.cache)
        failed += sum(len(r.errors) for r in seed_results)
        all_rows.extend((campaign.name, row) for row in rows)
        for res in seed_results:
            for solver, message in res.errors.items():
                print(f"{campaign.name} {solver} seed {res.seed}: failed: {message}",
                      file=sys.stderr)
            for solver, report in res.reports.items():
                if not report.converged:
                    print(
                        f"{campaign.name} {solver} seed {res.seed}: stopped at the iteration "
                        f"cap after {report.iterations} iterations without converging "
                        f"(gradient norm {report.final_gradient_norm:.3e})",
                        file=sys.stderr,
                    )
        for row in rows:
            save = "" if row.save_mean is None else (
                f"  save {row.save_min:.3g}-{row.save_mean:.3g}-{row.save_max:.3g}"
            )
            print(
                f"{campaign.name:24s} {row.solver:4s} iter {row.mean_iterations:8.1f} "
                f"rmse {row.rmse_geomean:.3e}{save}"
            )
    bench.emit_report(all_rows, args.format, args.out)
    print(f"report written to {args.out}")
    return 1 if failed else 0


def _cmd_list_problems(_args):
    print(f"{'id':26s} {'nu':>5s} {'r':>6s}  description")
    for name, entry in PROBLEMS.items():
        print(f"{name:26s} {entry.default_nu:5g} {entry.default_r:6d}  {entry.description}")
    return 0


def _cmd_fd_ref(args):
    entry = PROBLEMS[args.problem]
    nu = args.nu if args.nu is not None else entry.default_nu
    try:
        problem = entry.build(nu)
        grid = fdref.cached_reference(
            args.cache, nu, problem.velocity, entry.velocity_name,
            problem.rhs_interior, args.resolution,
        )
    except (ValueError, fdref.FdSolveError) as exc:
        return _input_error("fd-ref", exc)
    path = fdref.cache_path(args.cache, nu, entry.velocity_name, args.resolution)
    print(f"reference field {grid.points_per_axis}x{grid.points_per_axis} cached at {path}")
    return 0


def _cmd_split_inspect(args):
    entry = PROBLEMS[args.problem]
    nu = entry.default_nu if args.nu is None else args.nu
    r = entry.default_r if args.r is None else args.r
    flag = f"--nu {nu:g}"
    try:
        problem = entry.build(nu)
        pde.build_training_set(problem)
        flag = f"--r {r}"
        if r < 2:
            raise ValueError("coarsening needs at least 2 hidden nodes")
        flag = f"--activation {args.activation}"
        arch = NetworkArch(r, problem.dim, Activation(args.activation))
        flag = f"--eps-amg {args.eps_amg:g}"
        check_eps_amg(args.eps_amg)
        flag = f"--seed {args.seed}"
        bench.check_seed(args.seed)
    except ValueError as exc:
        return _input_error("split-inspect", f"{flag}: {exc}")
    system = pde.ResidualSystem(problem, arch)
    p0 = bench.initial_guess(args.seed, system.n)
    A = build_coupling_matrix(system.jacobian(p0), system.arch)
    split = ruge_stuben_split(A, eps_amg=args.eps_amg)
    ops = build_interpolation(A, split)
    with open(args.out, "w") as stream:
        dump_coarsening(stream, A, split, ops)
    print(
        f"{args.problem}: r={system.arch.n_hidden} -> r_coarse={ops.r_coarse} "
        f"({split.coarse.size} coarse after split); dump written to {args.out}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mlmnet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the campaigns of a config file")
    run.add_argument("config", help="campaign config file")
    run.add_argument("--out", default="report.csv", help="report path (default report.csv)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, action="append",
                     help="override campaign seeds (repeatable)")
    run.add_argument("--solver", choices=bench.SOLVERS, action="append",
                     help="override campaign solvers (repeatable)")
    run.add_argument("--trace", help="directory for per-iteration trace CSV files")
    run.add_argument("--cache", default=".mlmnet-cache",
                     help="cache directory for FD reference fields")
    run.set_defaults(func=_cmd_run)

    lp = sub.add_parser("list-problems", help="list registered benchmark problems")
    lp.set_defaults(func=_cmd_list_problems)

    fd = sub.add_parser("fd-ref", help="build and cache an FD Helmholtz reference field")
    fd.add_argument("--problem", default="helmholtz2d-const",
                    choices=[n for n, e in PROBLEMS.items() if e.velocity_name is not None])
    fd.add_argument("--nu", type=float, default=None)
    fd.add_argument("--resolution", type=int, default=201)
    fd.add_argument("--cache", default=".mlmnet-cache")
    fd.set_defaults(func=_cmd_fd_ref)

    si = sub.add_parser("split-inspect",
                        help="dump coupling matrix, C/F split and prolongation for a seed")
    si.add_argument("--problem", default="poisson1d", choices=sorted(PROBLEMS))
    si.add_argument("--nu", type=float, default=None)
    si.add_argument("--r", type=int, default=None)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--eps-amg", type=float, default=0.9)
    si.add_argument("--activation", default="sigmoid")
    si.add_argument("--out", default="coarsening.txt")
    si.set_defaults(func=_cmd_split_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
