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
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import pde
from .activations import Activation
from .amg import build_transfer_operators, check_eps_amg
from .linsolve import FlopCounter, NumericalError
from .lm import lm_solve
from .mlm import MlmConfig, mlm_solve
from .network import NetworkArch

SOLVERS = ("lm", "mlm")


@dataclass
class ProblemEntry:
    """Registry row: how to build a benchmark problem and its defaults."""

    factory: callable
    dim: int
    default_nu: float
    default_r: int
    description: str
    velocity_name: str = None  # set for the Helmholtz velocity variants

    def build(self, nu):
        if self.velocity_name is not None:
            return self.factory(nu=nu, velocity=self.velocity_name)
        return self.factory(nu=nu)


PROBLEMS = {
    "poisson1d": ProblemEntry(pde.poisson_1d, 1, 20, 512, "-u'' = g1, solution cos(nu z)"),
    "poisson2d": ProblemEntry(pde.poisson_2d, 2, 5, 1024, "-Lap u = g1, solution cos(nu (z1+z2))"),
    "helmholtz1d": ProblemEntry(
        pde.helmholtz_1d, 1, 5, 1024, "-u'' - nu^2 u = 0, solution sin(nu z)+cos(nu z)"
    ),
    "helmholtz2d-const": ProblemEntry(
        pde.helmholtz_2d, 2, 1, 512, "2D Helmholtz, constant velocity 40", "constant"
    ),
    "helmholtz2d-two-layers": ProblemEntry(
        pde.helmholtz_2d, 2, 2, 512, "2D Helmholtz, two-layer velocity 20/40", "two-layers"
    ),
    "helmholtz2d-four-layers": ProblemEntry(
        pde.helmholtz_2d, 2, 2, 512, "2D Helmholtz, four-layer velocity 20..80", "four-layers"
    ),
    "helmholtz2d-sine": ProblemEntry(
        pde.helmholtz_2d, 2, 2, 512,
        "2D Helmholtz, velocity 0.1 sin(z1+z2) (extreme zero-order coefficient)", "sine",
    ),
    "sine1d": ProblemEntry(
        pde.sine_nonlinear_1d, 1, 20, 512, "u'' + sin(u) = g1, solution 0.1 cos(nu z)"
    ),
    "exp2d": ProblemEntry(
        pde.exp_nonlinear_2d, 2, 1, 512, "Lap u + e^u = g1, solution log(nu/(z1+z2+10))"
    ),
}


@dataclass
class Campaign:
    """One benchmark configuration: problem, sizes, seeds, solvers.

    `solver_config` is the one MlmConfig both solvers run: the overrides
    on top of an epsilon of 1e-4 in 1D and 1e-3 in 2D.  The seeds must be
    distinct non-negative integers.  Every setting is checked on
    construction, by building the solver config, the residual system and
    its test grid, so that a bad campaign fails before any campaign runs.
    """

    name: str
    problem: str
    nu: float = None
    r: int = None
    activation: str = "sigmoid"
    seeds: tuple = (0,)
    solvers: tuple = ("lm", "mlm")
    overrides: dict = field(default_factory=dict)
    eps_amg: float = 0.9
    penalty: float = None
    test_points_per_axis: int = 100
    fd_resolution: int = 201
    solver_config: MlmConfig = field(init=False, repr=False)

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
            unknown = set(self.solvers) - set(SOLVERS)
            if unknown:
                raise ValueError(f"unknown solvers {sorted(unknown)}")
            entry = PROBLEMS[self.problem]
            if self.nu is None:
                self.nu = entry.default_nu
            if self.r is None:
                self.r = entry.default_r
            if "mlm" in self.solvers and self.r < 2:
                raise ValueError("the two-level solver needs at least 2 hidden nodes to coarsen")
            unknown = set(self.overrides) - set(MlmConfig.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config overrides {sorted(unknown)}")
            settings = dict(self.overrides)
            settings.setdefault("epsilon", 1e-4 if entry.dim == 1 else 1e-3)
            self.solver_config = MlmConfig(**settings)
            check_eps_amg(self.eps_amg)
            if entry.velocity_name is not None and self.fd_resolution < 3:
                raise ValueError(
                    f"fd_resolution must be at least 3 points per axis, got {self.fd_resolution}"
                )
            if self.test_points_per_axis < 1:
                raise ValueError(
                    f"test_points_per_axis must be at least 1, got {self.test_points_per_axis}"
                )
            if not len(_residual_system(self).test_grid(self.test_points_per_axis)):
                raise ValueError(
                    f"the test grid of test_points_per_axis = {self.test_points_per_axis} "
                    "lies entirely on training points"
                )
        except ValueError as exc:
            raise ValueError(f"campaign {self.name!r}: {exc}") from exc


@dataclass
class SeedResult:
    """Reports of all solvers started from one seed's initial guess."""

    seed: int
    reports: dict
    rmse: dict
    p0_digest: str
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
    """Residual system for a campaign (problem, grid and architecture)."""
    return _residual_system(campaign)


def _residual_system(campaign):
    # The body of build_system.  Campaign validation calls it directly, so
    # that the benchmark's traced bench.build_system spans, which it
    # attributes to a run, are only the builds made inside run_campaign.
    entry = PROBLEMS[campaign.problem]
    problem = entry.build(campaign.nu)
    if campaign.penalty is not None:
        problem = replace(problem, penalty=campaign.penalty)
    arch = NetworkArch(campaign.r, problem.dim, Activation(campaign.activation))
    return pde.ResidualSystem(problem, arch)


def reference_for(campaign, system, cache_dir=None):
    """Error-metric reference: the true solution, or an FD field for Helmholtz."""
    if system.problem.true_solution is not None:
        return None  # rmse() falls back to the true solution
    from . import fdref

    entry = PROBLEMS[campaign.problem]
    if cache_dir is not None:
        return fdref.cached_reference(
            cache_dir, campaign.nu, system.problem.velocity, entry.velocity_name,
            system.problem.rhs_interior, campaign.fd_resolution,
        )
    return fdref.solve_helmholtz_fd(
        campaign.nu, system.problem.velocity, system.problem.rhs_interior,
        campaign.fd_resolution,
    )


def run_seed(campaign, system, seed, reference, trace_dir=None):
    """Run every requested solver from the seed's starting point."""
    p0 = initial_guess(seed, system.n)
    digest = hashlib.sha256(p0.tobytes()).hexdigest()
    reports, rmse, errors = {}, {}, {}
    cfg = campaign.solver_config
    for solver in campaign.solvers:
        x0 = p0.copy()
        assert hashlib.sha256(x0.tobytes()).hexdigest() == digest
        trace = None
        if trace_dir is not None:
            trace_path = trace_dir / f"trace_{campaign.name}_{solver}_seed{seed}.csv"
            trace = open(trace_path, "w", newline="")
        try:
            if solver == "lm":
                report = lm_solve(system, x0, cfg, FlopCounter(), trace=trace)
            else:
                ops = build_transfer_operators(
                    system.jacobian(p0), system.arch, eps_amg=campaign.eps_amg
                )
                report = mlm_solve(system, x0, cfg, ops, FlopCounter(), trace=trace)
            rmse[solver] = system.rmse(
                report.final_params, campaign.test_points_per_axis, reference
            )
            reports[solver] = report  # only with its RMSE: aggregate reads both
        except (NumericalError, ValueError) as exc:
            # a declared solver failure (a numerical breakdown, a non-finite
            # start, a failed operator build) is recorded and excluded from
            # the aggregates; any other exception is a bug and propagates
            errors[solver] = f"{type(exc).__name__}: {exc}"
        finally:
            if trace is not None:
                trace.close()
    return SeedResult(seed=seed, reports=reports, rmse=rmse, p0_digest=digest, errors=errors)


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
        if failures:
            warnings.warn(
                f"campaign {campaign.name!r}: {failures} seed(s) failed for {solver}"
            )
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
    seed_results = [run_seed(campaign, system, s, reference, trace_dir) for s in campaign.seeds]
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


def emit_report(rows, fmt, path):
    """Write comparison rows as CSV or JSON with stable field order.

    `rows` is a list of (campaign_name, ComparisonRow) pairs.  Floats are
    rendered at 6 significant digits, so repeated runs of a deterministic
    campaign produce byte-identical files.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    # each row's values in _CSV_FIELDS order; every field after the campaign is a row attribute
    table = [(name, *(getattr(row, key) for key in _CSV_FIELDS[1:])) for name, row in rows]
    with open(path, "w", newline="") as stream:
        if fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(_CSV_FIELDS)
            writer.writerows([_fmt(v) for v in values] for values in table)
        else:
            import json

            payload = [dict(zip(_CSV_FIELDS, map(_json_num, values))) for values in table]
            json.dump(payload, stream, indent=2)
            stream.write("\n")

