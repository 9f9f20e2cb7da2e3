"""Benchmark harness: problem registry, multi-seed campaigns, reports.

A campaign runs the requested solvers from identical random starting
points over a list of seeds and aggregates iteration counts, solution
errors and the flop ratio (`save`) of the one-level versus the two-level
solver.  All randomness comes from numpy's default PCG64 generator
seeded per run, so campaigns are reproducible bit for bit at a fixed BLAS
thread count: a multi-threaded BLAS splits a product over threads at
offsets set by its size and thread count, which changes the order in
which it sums.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import fdref, pde
from .amg import build_transfer_operators
from .linsolve import FlopCounter, NumericalError
from .lm import LmConfig, lm_solve
from .mlm import mlm_solve
from .network import NetworkArch

SOLVERS = ("lm", "mlm")


@dataclass
class ProblemEntry:
    """Registry row, a problem's one definition: `factory(nu)` builds the problem.

    Its id names the problem's FD reference cache file (see `reference_for`).
    """

    factory: callable
    default_nu: float
    default_r: int
    description: str


PROBLEMS = {
    "poisson1d": ProblemEntry(pde.poisson_1d, 20, 512, "-u'' = g1, solution cos(nu z)"),
    "poisson2d": ProblemEntry(pde.poisson_2d, 5, 1024, "-Lap u = g1, solution cos(nu (z1+z2))"),
    "helmholtz1d": ProblemEntry(
        pde.helmholtz_1d, 5, 1024, "-u'' - nu^2 u = 0, solution sin(nu z)+cos(nu z)"
    ),
    "helmholtz2d-const": ProblemEntry(
        partial(pde.helmholtz_2d, velocity=pde.velocity_constant), 1, 512,
        "2D Helmholtz, constant velocity 40",
    ),
    "helmholtz2d-two-layers": ProblemEntry(
        partial(pde.helmholtz_2d, velocity=pde.velocity_two_layers), 2, 512,
        "2D Helmholtz, two-layer velocity 20/40",
    ),
    "helmholtz2d-four-layers": ProblemEntry(
        partial(pde.helmholtz_2d, velocity=pde.velocity_four_layers), 2, 512,
        "2D Helmholtz, four-layer velocity 20..80",
    ),
    "helmholtz2d-sine": ProblemEntry(
        partial(pde.helmholtz_2d, velocity=pde.velocity_sine), 2, 512,
        "2D Helmholtz, velocity 0.1 sin(z1+z2) (extreme zero-order coefficient)",
    ),
    "sine1d": ProblemEntry(
        pde.sine_nonlinear_1d, 20, 512, "u'' + sin(u) = g1, solution 0.1 cos(nu z)"
    ),
    "exp2d": ProblemEntry(
        pde.exp_nonlinear_2d, 1, 512, "Lap u + e^u = g1, solution log(nu/(z1+z2+10))"
    ),
}


@dataclass
class Campaign:
    """One benchmark configuration: problem, sizes, seeds, solvers.

    `solver_config` is the one LmConfig both solvers run: the overrides
    of `epsilon` and `max_outer_iter` on top of an epsilon of 1e-4 in 1D
    and 1e-3 in 2D.  The seeds must be distinct non-negative integers, and
    the solvers distinct names from SOLVERS, at least one of each.  The
    rest is fixed: the sigmoid activation, the boundary penalty
    `pde.PENALTY_FACTOR * t`, the AMG strength threshold 0.9 and the RMSE
    grid of `pde.TEST_POINTS_PER_AXIS` points per axis.
    Every setting is checked on construction, by building the residual
    system, its test grid and the solver config, so that a bad campaign
    fails before any campaign runs.  The residual system is kept as
    `system`, the one every run of the campaign works on.
    """

    name: str
    problem: str
    nu: float = None
    r: int = None
    seeds: tuple = (0,)
    solvers: tuple = ("lm", "mlm")
    overrides: dict = field(default_factory=dict)
    fd_resolution: int = fdref.RESOLUTION
    solver_config: LmConfig = field(init=False, repr=False)
    system: pde.ResidualSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            if self.problem not in PROBLEMS:
                raise ValueError(f"unknown problem {self.problem!r}; see mlmnet list-problems")
            if not self.seeds:
                raise ValueError("campaign needs at least one seed")
            for k, seed in enumerate(self.seeds):
                check_seed(seed)
                if seed in self.seeds[:k]:
                    # a repeat would overwrite its own trace and count twice in the means
                    raise ValueError(f"seeds must be distinct; seed {seed} repeats")
            if not self.solvers:
                raise ValueError("campaign needs at least one solver")
            for k, solver in enumerate(self.solvers):
                if solver not in SOLVERS:
                    raise ValueError(f"unknown solver {solver!r}")
                if solver in self.solvers[:k]:
                    # a repeat would overwrite its own trace and write its row twice
                    raise ValueError(f"solvers must be distinct; {solver} repeats")
            entry = PROBLEMS[self.problem]
            if self.nu is None:
                self.nu = entry.default_nu
            if self.r is None:
                self.r = entry.default_r
            if "mlm" in self.solvers and self.r < 2:
                raise ValueError(
                    f"the two-level solver needs at least 2 hidden nodes to coarsen, got r={self.r}"
                )
            unknown = set(self.overrides) - set(LmConfig.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config overrides {sorted(unknown)}")
            problem = entry.factory(self.nu)
            if problem.true_solution is None:
                fdref.check_resolution(self.fd_resolution, "fd_resolution")
            self.system = pde.ResidualSystem(problem, NetworkArch(self.r, problem.dim))
            settings = dict(self.overrides)
            settings.setdefault("epsilon", 1e-4 if problem.dim == 1 else 1e-3)
            self.solver_config = LmConfig(**settings)
            self.system.test_grid()
        except ValueError as exc:
            raise ValueError(f"campaign {self.name!r}: {exc}") from exc


@dataclass
class SeedResult:
    """Reports of all solvers started from one seed's initial guess."""

    seed: int
    reports: dict
    rmse: dict
    errors: dict


@dataclass
class ComparisonRow:
    """Aggregate over seeds for one solver, in benchmark-table format."""

    solver: str
    mean_iterations: float
    rmse_seeds: list
    rmse_geomean: float
    save_min: float = None
    save_mean: float = None
    save_max: float = None
    failures: int = 0


def check_seed(seed):
    """Raise ValueError unless `seed` is a non-negative integer, as numpy's generator needs."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seed!r}")


def initial_guess(seed, n_params):
    """The canonical starting point for a seed: iid uniform on [-1, 1]."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n_params)


def build_system(campaign):
    """The campaign's residual system (problem, grid and architecture), built on construction."""
    return campaign.system


def reference_for(campaign, system, cache_dir):
    """The callable on point rows that `rmse` measures against: the true solution or FD field.

    A problem without a true solution (2D Helmholtz) is scored by the `sample`
    of its FD field, cached under `cache_dir` by its registry id, or solved
    afresh when `cache_dir` is None.
    """
    problem = system.problem
    if problem.true_solution is not None:
        return problem.true_solution
    if cache_dir is not None:
        grid = fdref.cached_reference(cache_dir, campaign.problem, problem, campaign.fd_resolution)
    else:
        grid = fdref.solve_helmholtz_fd(
            problem.nu, problem.velocity, problem.rhs_interior, campaign.fd_resolution
        )
    return grid.sample


def trace_path(trace_dir, name, solver, seed):
    """The file in `trace_dir` that campaign `name`'s `solver` run from `seed` traces to."""
    return trace_dir / f"trace_{name}_{solver}_seed{seed}.csv"


def run_seed(campaign, system, seed, reference, trace_dir):
    """Run every requested solver from the seed's starting point.

    Each run writes its trace into `trace_dir`, unless that is None.  A
    starting point changed in place by an earlier run is a programming
    error and raises AssertionError, under `python -O` too.
    """
    p0 = initial_guess(seed, system.n)
    digest = hashlib.sha256(p0.tobytes()).hexdigest()
    reports, rmse, errors = {}, {}, {}
    cfg = campaign.solver_config
    for solver in campaign.solvers:
        x0 = p0.copy()
        if hashlib.sha256(x0.tobytes()).hexdigest() != digest:
            raise AssertionError(f"seed {seed}'s starting point changed before its {solver} run")
        trace = None
        if trace_dir is not None:
            trace = open(trace_path(trace_dir, campaign.name, solver, seed), "w", newline="")
        try:
            if solver == "lm":
                report = lm_solve(system, x0, cfg, FlopCounter(), trace)
            else:
                ops = build_transfer_operators(system.jacobian(p0), system.arch)
                report = mlm_solve(system, x0, cfg, ops, FlopCounter(), trace)
            rmse[solver] = system.rmse(report.final_params, reference)
            reports[solver] = report  # only with its RMSE: aggregate reads both
        except (NumericalError, ValueError) as exc:
            # a declared solver failure (a numerical breakdown, a non-finite
            # start, a failed operator build) is recorded and excluded from
            # the aggregates; any other exception is a bug and propagates
            errors[solver] = f"{type(exc).__name__}: {exc}"
        finally:
            if trace is not None:
                trace.close()
    return SeedResult(seed=seed, reports=reports, rmse=rmse, errors=errors)


def aggregate(campaign, seed_results):
    """Fold per-seed reports into one comparison row per solver."""
    rows = []
    saves = []
    for res in sorted(seed_results, key=lambda r: r.seed):
        if "lm" in res.reports and "mlm" in res.reports:
            saves.append(res.reports["lm"].matvec_flops / res.reports["mlm"].matvec_flops)
    for solver in campaign.solvers:
        ok = [r for r in sorted(seed_results, key=lambda r: r.seed) if solver in r.reports]
        failures = len(seed_results) - len(ok)
        if not ok:
            rows.append(ComparisonRow(solver, math.nan, [], math.nan, failures=failures))
            continue
        rmses = [r.rmse[solver] for r in ok]
        row = ComparisonRow(
            solver=solver,
            mean_iterations=float(np.mean([r.reports[solver].iterations for r in ok])),
            rmse_seeds=rmses,
            rmse_geomean=float(np.exp(np.mean(np.log(np.maximum(rmses, 1e-300))))),
            failures=failures,
        )
        if solver == "mlm" and saves:
            row.save_min = float(np.min(saves))
            row.save_mean = float(np.mean(saves))
            row.save_max = float(np.max(saves))
        rows.append(row)
    return rows


def run_campaign(campaign, trace_dir=None, cache_dir=None, workers=1):
    """Execute a campaign and return its comparison rows (plus seed detail).

    Seeds run in sequence.  `workers` remains only because the benchmark
    harness (perfbench/run.py) passes `workers=1`; any other value raises
    ValueError.
    """
    if workers != 1:
        raise ValueError(f"campaign seeds run in sequence; workers must be 1, got {workers!r}")
    system = build_system(campaign)
    reference = reference_for(campaign, system, cache_dir)
    try:
        seed_results = [run_seed(campaign, system, s, reference, trace_dir) for s in campaign.seeds]
    finally:
        # a campaign keeps its system: an idle one holds no activation bases
        system.release_bases()
    return aggregate(campaign, seed_results), seed_results


# -- report emission -----------------------------------------------------------

_CSV_FIELDS = (
    "campaign", "solver", "mean_iterations", "rmse_geomean", "rmse_seeds",
    "save_min", "save_mean", "save_max", "failures",
)


def _fmt(value):
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.6g}"
    return "" if value is None else str(value)


def _json_num(value):
    if isinstance(value, list):
        return [_json_num(v) for v in value]
    if isinstance(value, float):
        return None if math.isnan(value) else float(f"{value:.6g}")
    return value


def emit_report(rows, path):
    """Write comparison rows to `path` with stable field order.

    The report is JSON when `path` ends in `.json` and CSV otherwise.
    `rows` is a list of (campaign_name, ComparisonRow) pairs.  Floats are
    rendered at 6 significant digits, so repeated runs of a deterministic
    campaign produce byte-identical files.
    """
    # each row's values in _CSV_FIELDS order; every field after the campaign is a row attribute
    table = [(name, *(getattr(row, key) for key in _CSV_FIELDS[1:])) for name, row in rows]
    with open(path, "w", newline="") as stream:
        if Path(path).suffix == ".json":
            import json

            payload = [dict(zip(_CSV_FIELDS, map(_json_num, values))) for values in table]
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(_CSV_FIELDS)
            writer.writerows([_fmt(v) for v in values] for values in table)

