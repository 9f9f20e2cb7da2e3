"""Command-line interface for the benchmark harness.

Subcommands:
  run            execute the campaigns of a config file and write a report
  list-problems  show the registered benchmark problems
  split-inspect  dump the coupling matrix, C/F split and prolongation

Exit status is 0 when every solver run completed (converged or stopped at
its configured iteration cap) and 1 when any run failed outright.  Input
`run` or `split-inspect` cannot use (a campaign file, a setting, an
--out, --trace or --cache path) ends it with status 2 and one line on
standard error before any campaign runs or system is built; an unknown
option gives argparse's usage and status 2.  The cases are the tests
`test_cli_run_reports_a_malformed_file_in_one_line`,
`test_out_of_range_setting_fails_before_any_campaign_runs`,
`test_cli_run_has_no_workers_option`,
`test_cli_run_checks_its_paths_before_any_campaign_runs`,
`test_cli_run_refuses_an_out_that_is_or_holds_its_trace_or_cache`,
`test_cli_run_refuses_a_campaign_its_trace_files_cannot_name`,
`test_cli_checks_its_paths_before_any_work` and
`test_cli_bad_settings_end_in_one_line` in tests/test_bench.py.

`run` takes each campaign's seeds and solvers from the campaign file
alone, and names each failed run and each run stopped at its cap on
standard error.
"""

import argparse
import configparser
import os
import sys
from pathlib import Path

from . import bench, config
from .amg import build_coupling_matrix, build_interpolation, dump_coarsening, ruge_stuben_split
from .bench import PROBLEMS


def _input_error(where, exc):
    """Print `exc` as one line on standard error; return the bad-input status 2."""
    message = " ".join(str(exc).split())
    print(f"mlmnet {where}: {message}", file=sys.stderr)
    return 2


def _exists(path):
    """Whether `path` exists; a name the file system refuses (one too long) raises OSError."""
    try:
        path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def _probe_file(path):
    """Open `path` for appending and remove it unless it was there before.

    Raises OSError when the file cannot be made: its directory refuses new
    files, or the file system refuses its name (one with a `/` in a part
    that is not a directory, or one too long).
    """
    existed = _exists(path)
    with open(path, "a"):
        pass
    if not existed:
        path.unlink()


def _holds(out, path):
    """Whether `path` is `out` or lies under it, compared as resolved paths.

    `os.path.realpath`, unlike `Path.resolve`, does not raise on a symlink loop.
    """
    path = Path(os.path.realpath(path))
    return Path(os.path.realpath(out)) in (path, *path.parents)


def _path_error(where, out=None, cache=None, trace=None):
    """Status 2 after one stderr line if `out` or `cache` cannot be written, else None.

    `out` may not be the `trace` or `cache` directory, or lie above one
    (compared as resolved paths), since the run would make that directory
    where its report goes.  `out` is probed by its own name (see
    `_probe_file`), so a directory that refuses new files or a name that
    is too long is caught before any work starts, and no empty output is
    left behind.  `cache` is made only when a reference is first stored,
    so its nearest existing ancestor, itself included, must be a
    directory, and no part of its name may be refused.
    """
    if out is not None:
        why = None
        try:
            clash = next((name for name, path in (("trace", trace), ("cache", cache))
                          if path is not None and _holds(out, path)), None)
            if clash is not None:
                why = f"is the --{clash} directory or lies above it"
            elif out.is_dir():
                why = "is a directory"
            elif not out.parent.is_dir():
                why = f"no directory {out.parent}"
            else:
                _probe_file(out)
        except OSError as exc:
            why = f"cannot be created: {exc.strerror or exc}"
        if why is not None:
            return _input_error(f"{where}: --out {out}", why)
    if cache is not None:
        try:
            existing = next((p for p in (cache, *cache.parents) if _exists(p)), None)
        except OSError as exc:
            return _input_error(f"{where}: --cache {cache}", exc.strerror or exc)
        if existing is not None and not existing.is_dir():
            why = "is not a directory" if existing == cache else f"{existing} is not a directory"
            return _input_error(f"{where}: --cache {cache}", why)
    return None


def _trace_name_error(trace_dir, campaigns):
    """Status 2 after one stderr line if a campaign's trace files cannot be made, else None.

    Trace files are named after their campaign, so each campaign's longest
    trace file name (its longest solver name, its largest seed) is probed
    in `trace_dir` (see `_probe_file`): a name the file system refuses
    (one with a `/`, or one too long) stops the run before any campaign
    runs.
    """
    for campaign in campaigns:
        solver = max(campaign.solvers, key=len)
        path = bench.trace_path(trace_dir, campaign.name, solver, max(campaign.seeds))
        try:
            _probe_file(path)
        except OSError as exc:
            return _input_error(f"run: --trace {trace_dir}: campaign {campaign.name!r}",
                                f"cannot create {path}: {exc.strerror or exc}")
    return None


def _cmd_run(args):
    try:
        campaigns = config.parse_campaign_file(args.config)
    except (OSError, ValueError, configparser.Error) as exc:
        return _input_error(f"run: {args.config}", exc)
    trace_dir = None if args.trace is None else Path(args.trace)
    status = _path_error("run", out=Path(args.out), cache=Path(args.cache), trace=trace_dir)
    if status is not None:
        return status
    if trace_dir is not None:
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _input_error(f"run: --trace {trace_dir}", exc)
        status = _trace_name_error(trace_dir, campaigns)
        if status is not None:
            return status
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
    bench.emit_report(all_rows, args.out)
    print(f"report written to {args.out}")
    return 1 if failed else 0


def _cmd_list_problems(_args):
    print(f"{'id':26s} {'nu':>5s} {'r':>6s}  description")
    for name, entry in PROBLEMS.items():
        print(f"{name:26s} {entry.default_nu:5g} {entry.default_r:6d}  {entry.description}")
    return 0


def _cmd_split_inspect(args):
    try:
        campaign = bench.Campaign(name=args.problem, problem=args.problem, nu=args.nu, r=args.r,
                                  seeds=(args.seed,), solvers=("mlm",))
    except ValueError as exc:
        return _input_error("split-inspect", exc)
    status = _path_error("split-inspect", out=Path(args.out))
    if status is not None:
        return status
    system = campaign.system
    p0 = bench.initial_guess(args.seed, system.n)
    A = build_coupling_matrix(system.jacobian(p0), system.arch)
    split = ruge_stuben_split(A)
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
    run.add_argument("--out", default="report.csv",
                     help="report path, JSON if it ends in .json, else CSV (default report.csv)")
    run.add_argument("--trace", help="directory for per-iteration trace CSV files")
    run.add_argument("--cache", default=".mlmnet-cache",
                     help="cache directory for FD reference fields")
    run.set_defaults(func=_cmd_run)

    lp = sub.add_parser("list-problems", help="list registered benchmark problems")
    lp.set_defaults(func=_cmd_list_problems)

    si = sub.add_parser("split-inspect",
                        help="dump coupling matrix, C/F split and prolongation for a seed")
    si.add_argument("--problem", default="poisson1d", choices=sorted(PROBLEMS))
    si.add_argument("--nu", type=float, default=None)
    si.add_argument("--r", type=int, default=None)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--out", default="coarsening.txt")
    si.set_defaults(func=_cmd_split_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
