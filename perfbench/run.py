#!/usr/bin/env python3
"""Time to solution of mlmnet's `lm` and `mlm` solvers on three PDE workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run sets the workload up several times in fresh processes (timing
each), then repeats closed-loop rounds for S seconds: in each round the
`lm` campaign and the `mlm` campaign of the workload run one after the
other through `mlmnet.bench.run_campaign`, seeds in sequence, one
worker.  Every (solver, seed) run is one operation, checked against
computations made apart from the program (see checks.py).  The last
line of standard output is one JSON object with the operations
attempted and failed and the metrics: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  The exit
code is 0 only when no operation failed.

BLAS is held to one thread in this process and in every process it
starts; see README.md for why.
"""

import os

# before numpy is first imported, here and (inherited) in the set-up processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, round_order  # noqa: E402


def import_program():
    """Import mlmnet from this checkout's sources, never from anywhere else."""
    package = SRC / "mlmnet"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import mlmnet

    if Path(mlmnet.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported mlmnet from {mlmnet.__file__}, not {package}")


def time_setup(workload, cache_dir):
    """Seconds from starting a fresh process to its system and reference being built."""
    cache_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           json.dumps(workload.setup_spec()), str(cache_dir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up process failed (exit {code})")
    return elapsed


class OperatorCapture:
    """Keeps the Jacobian and the result of every transfer-operator build of bench.run_seed.

    A build that raises is kept with `None` for its operators, so that the
    k-th entry always belongs to the k-th seed of a campaign.
    """

    def __init__(self, bench):
        self.bench = bench
        self.builds = []

    def __enter__(self):
        original = self._original = self.bench.build_transfer_operators

        def capture(J, arch, eps_amg=0.9, **kwargs):
            ops = None
            try:
                ops = original(J, arch, eps_amg=eps_amg, **kwargs)
                return ops
            finally:
                self.builds.append((J, arch.dim, eps_amg, ops))

        self.bench.build_transfer_operators = capture
        return self

    def __exit__(self, *exc):
        self.bench.build_transfer_operators = self._original


def solver_cap(workload, solver):
    from mlmnet.lm import LmConfig

    overrides = workload.campaign_kwargs(solver, workload.seeds)["overrides"]
    return overrides.get("max_outer_iter", LmConfig().max_outer_iter)


class Run:
    """State of one benchmark run of a workload."""

    def __init__(self, workload, seed, trace):
        from mlmnet import bench

        self.bench = bench
        self.workload = workload
        self.trace = trace
        self.solvers, self.seeds = round_order(workload, seed)
        self.attempted = 0
        self.failures = []
        self.first_counts = {}
        self.results = {}  # solver -> SeedResults of the latest round
        self.mlm_builds = []  # (J, dim, eps_amg, ops) of the latest mlm campaign
        self.field = None  # (axis, values) of the FD reference, for the checks
        self.field_failure = None

    def load_field(self, cache_dir):
        """Read the cached FD field directly and check it against the five-point stencil."""
        import numpy as np

        if self.workload.fd_rmse_agreement is None:
            return
        files = sorted(Path(cache_dir).glob("*.npz"))
        if len(files) != 1:
            raise SystemExit(f"perfbench: expected one cached FD field in {cache_dir}")
        with np.load(files[0]) as data:
            self.field = (data["axis"].copy(), data["values"].copy())
        try:
            checks.check_fd_field(*self.field, nu=self.workload.nu)
        except checks.CheckFailed as exc:
            self.field_failure = exc

    def round(self, cache_dir, trace_dir, capture):
        """One closed-loop round: each solver's campaign over all seeds, timed from outside.

        Returns the wall times of the round's campaigns, per solver.  A
        traced round runs each campaign once.
        """
        timings = {}
        for solver in self.solvers:
            campaign = self.bench.Campaign(**self.workload.campaign_kwargs(solver, self.seeds))
            repeats = 1 if self.trace else self.workload.repeats.get(solver, 1)
            timings[solver] = []
            for _ in range(repeats):
                capture.builds.clear()
                start = time.perf_counter()
                _, results = self.bench.run_campaign(
                    campaign, trace_dir=trace_dir, cache_dir=cache_dir, workers=1
                )
                timings[solver].append(time.perf_counter() - start)
                builds = list(capture.builds)
                self.check(solver, results, builds)
            self.results[solver] = results
            if solver == "mlm":
                self.mlm_builds = builds
        return timings

    def check(self, solver, results, builds):
        wl = self.workload
        cap = solver_cap(wl, solver)
        for k, res in enumerate(results):
            self.attempted += 1
            try:
                if self.field_failure is not None:
                    raise self.field_failure
                checks.check_no_error(res.errors, solver)
                report = res.reports[solver]
                counts = (report.iterations, report.matvec_flops)
                if self.first_counts.setdefault((solver, res.seed), counts) != counts:
                    raise checks.CheckFailed(
                        "repeatable", f"counts {counts} differ from the first round's"
                    )
                checks.check_stop(report, wl.epsilon, solver in wl.to_tolerance, cap)
                checks.check_loss_history(report)
                checks.check_coherence(report)
                if solver == "mlm":
                    # no operators only when the build raised, which check_no_error reports
                    J, dim, eps_amg, ops = builds[k]
                    checks.check_amg(J, dim, eps_amg, ops)
                if solver in wl.rmse_bound:
                    own = checks.rmse_closed_form(wl.problem, wl.nu, report.final_params, wl.r)
                    checks.check_rmse(own, wl.rmse_bound[solver])
                if self.field is not None:
                    own = checks.rmse_fd_nodes(report.final_params, wl.r, *self.field)
                    checks.check_fd_rmse(own, res.rmse[solver], wl.fd_rmse_agreement)
            except checks.CheckFailed as exc:
                self.failures.append(f"{solver} seed {res.seed}: {exc}")

    def summary(self):
        """Human-readable lines on the last round's outputs, and `save` per seed."""
        wl = self.workload
        lines = []
        flops = defaultdict(dict)
        for solver in ("lm", "mlm"):
            for res in self.results[solver]:
                rep = res.reports.get(solver)
                if rep is None:
                    lines.append(f"{solver} seed {res.seed}: error {res.errors.get(solver)}")
                    continue
                flops[res.seed][solver] = rep.matvec_flops
                if self.field is not None:
                    own = checks.rmse_fd_nodes(rep.final_params, wl.r, *self.field)
                else:
                    own = checks.rmse_closed_form(wl.problem, wl.nu, rep.final_params, wl.r)
                lines.append(
                    f"{solver} seed {res.seed}: {rep.iterations} iterations, "
                    f"converged {rep.converged}, gradient norm {rep.final_gradient_norm:.3e}, "
                    f"coarse steps {rep.coarse_steps}, rmse {res.rmse[solver]:.3e} "
                    f"(own {own:.3e}), {rep.matvec_flops / 1e9:.4f} Gflop"
                )
        for seed in sorted(flops):
            pair = flops[seed]
            if len(pair) == 2:
                lines.append(f"save seed {seed}: {pair['lm'] / pair['mlm']:.4f}")
        return lines

    def totals(self, solver):
        """Reports of the latest round's campaign of `solver`."""
        return [res.reports[solver] for res in self.results[solver] if solver in res.reports]


def end_to_end(run, setup_times, rounds):
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for solver in ("lm", "mlm"):
        reports = run.totals(solver)
        samples = [t for r in rounds for t in r[solver]]
        metrics[f"{solver}.solve_s"] = (statistics.median(samples), "s")
        metrics[f"{solver}.iterations"] = (sum(r.iterations for r in reports), "count")
        metrics[f"{solver}.matvec_gflop"] = (sum(r.matvec_flops for r in reports) / 1e9, "Gflop")
    return metrics


def trace_rows(trace_dir):
    """Data rows of every trace CSV, as dicts."""
    rows = {}
    for path in sorted(Path(trace_dir).glob("*.csv")):
        with open(path, newline="") as stream:
            rows[path.name] = list(csv.DictReader(stream))
    return rows


def layer_metrics(run, spans_mod, spans, lo, hi, timings, csv_rows, setup_fd_s, builds):
    """Per-layer figures of one traced round from spans[lo:hi]."""
    selfs, incl = spans_mod.self_times(spans, lo, hi)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    flops = defaultdict(int)
    incl_flops = defaultdict(int)
    notes = defaultdict(list)
    for k, span in enumerate(spans[lo:hi]):
        name = span[spans_mod.NAME]
        calls[name] += 1
        self_s[name] += selfs[k]
        flops[name] += span[spans_mod.FLOPS]
        incl_flops[name] += incl[k]
        if span[spans_mod.NOTE] is not None:
            notes[name].append(span[spans_mod.NOTE])

    def group(prefix):
        names = [n for n in calls if n.startswith(prefix)]
        return sum(calls[n] for n in names), sum(self_s[n] for n in names)

    dims = notes["linsolve.direct_solve"]
    cg = notes["linsolve.cgls_truncated"]
    coarse_rows = [
        row for rows in csv_rows.values() for row in rows if row.get("level") == "coarse"
    ]
    lm_reports = run.totals("lm")
    r_coarse = [ops.r_coarse for *_, ops in builds if ops is not None]
    network_calls, network_s = group("network.")
    _, bench_s = group("bench.")
    timings = {solver: times[0] for solver, times in timings.items()}
    traced_total = sum(timings.values())
    m = {
        "linsolve.direct.calls": (calls["linsolve.direct_solve"], "count"),
        "linsolve.direct.s": (self_s["linsolve.direct_solve"], "s"),
        "linsolve.direct.dim": (max(dims, default=0), "count"),
        "linsolve.direct.gflop_computed": (sum(n**3 / 3 + 4 * n**2 for n in dims) / 1e9, "Gflop"),
        "linsolve.cgls.calls": (calls["linsolve.cgls_truncated"], "count"),
        "linsolve.cgls.s": (self_s["linsolve.cgls_truncated"], "s"),
        "linsolve.cg_iterations": (sum(it for it, _, _ in cg), "count"),
        "linsolve.cgls.satisfied_frac": (_frac(sum(ok for _, ok, _ in cg), len(cg)), "ratio"),
        "linsolve.cg_past_bound_frac": (
            _frac(sum(it > rows + 1 for it, _, rows in cg), len(cg)), "ratio"),
        "linsolve.cgls.matvec_gflop": (flops["linsolve.cgls_truncated"] / 1e9, "Gflop"),
        "pde.residual.calls": (calls["pde.residual"], "count"),
        "pde.residual.s": (self_s["pde.residual"], "s"),
        "pde.jacobian.calls": (calls["pde.jacobian"], "count"),
        "pde.jacobian.s": (self_s["pde.jacobian"], "s"),
        "pde.rmse.s": (self_s["pde.rmse"], "s"),
        "network.calls": (network_calls, "count"),
        "network.s": (network_s, "s"),
        "activations.calls": (calls["activations.Activation"], "count"),
        "activations.s": (self_s["activations.Activation"], "s"),
        "mlm.self_s": (self_s["mlm.mlm_solve"], "s"),
        "mlm.coarse_build.s": (self_s["mlm.build_coarse_model"], "s"),
        "mlm.coarse_cycle.calls": (calls["mlm.coarse_cycle"], "count"),
        "mlm.coarse_cycle.s": (self_s["mlm.coarse_cycle"], "s"),
        "mlm.coarse_accepted_frac": (
            _frac(sum(row["accepted"] == "1" for row in coarse_rows), len(coarse_rows)), "ratio"),
        "mlm.coarse.matvec_gflop": (
            (incl_flops["mlm.build_coarse_model"] + incl_flops["mlm.coarse_cycle"]) / 1e9,
            "Gflop"),
        "lm.self_s": (self_s["lm.lm_solve"], "s"),
        "lm.accepted_frac": (
            _frac(sum(r.accepted_steps for r in lm_reports),
                  sum(r.iterations for r in lm_reports)), "ratio"),
        "amg.coupling.s": (self_s["amg.build_coupling_matrix"], "s"),
        "amg.split.s": (self_s["amg.ruge_stuben_split"], "s"),
        "amg.interp.s": (self_s["amg.build_interpolation"], "s"),
        "amg.r_coarse": (_frac(sum(r_coarse), len(r_coarse)), "count"),
        "amg.apply.calls": (calls["amg.apply_blockwise"], "count"),
        "amg.apply.s": (self_s["amg.apply_blockwise"], "s"),
        "fdref.solve.s": (setup_fd_s, "s"),
        "fdref.load.s": (self_s["fdref.load_reference"], "s"),
        "bench.campaign_self.s": (bench_s, "s"),
        "bench.trace_rows": (sum(len(rows) for rows in csv_rows.values()), "count"),
        "traced.lm.solve_s": (timings["lm"], "s"),
        "traced.mlm.solve_s": (timings["mlm"], "s"),
        "traced.unattributed_s": (traced_total - sum(selfs), "s"),
    }
    return m


def _frac(part, whole):
    return part / whole if whole else 0.0


def median_round(per_round):
    """Figures of the round whose traced solve time is the median (the lower
    middle one for an even count).  Taking one whole round keeps the layer
    self times adding up to its traced solve time; counts repeat exactly
    from round to round."""
    def total(metrics):
        return metrics["traced.lm.solve_s"][0] + metrics["traced.mlm.solve_s"][0]

    return sorted(per_round, key=total)[(len(per_round) - 1) // 2]


def run_workload(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS, out=OUT,
                 log=print):
    """Run one workload; returns the result object printed as the last line.

    A traced run writes its spans to `out`/spans_<workload>.json.
    """
    import_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        return _run(workload, seed, seconds, trace, setup_repeats, work, Path(out), log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, setup_repeats, work, out, log):
    run = Run(workload, seed, trace)
    bench = run.bench
    log(f"workload {workload.name}, seed {seed}: solver order {' '.join(run.solvers)}, "
        f"starting-point seeds {' '.join(map(str, run.seeds))}")
    tracer = None
    setup_fd_s = 0.0
    if trace:
        import spans as spans_mod

        tracer = spans_mod.Tracer()
        tracer.install()
        cache_dir = work / "cache-traced"
        campaign = bench.Campaign(**workload.campaign_kwargs("lm", run.seeds))
        lo = len(tracer.spans)
        bench.reference_for(campaign, bench.build_system(campaign), cache_dir=cache_dir)
        setup_fd_s = sum(
            s[spans_mod.END] - s[spans_mod.START] for s in tracer.spans[lo:]
            if s[spans_mod.NAME] == "fdref.solve_helmholtz_fd"
        )
        setup_times = []
    else:
        setup_times = [time_setup(workload, work / f"cache{k}") for k in range(setup_repeats)]
        cache_dir = work / "cache0"
        log("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    run.load_field(cache_dir)

    trace_dir = work / "traces" if (workload.traces or trace) else None
    rounds, per_round = [], []
    try:
        with OperatorCapture(bench) as capture:
            start = time.perf_counter()
            while True:
                if trace_dir is not None:
                    shutil.rmtree(trace_dir, ignore_errors=True)
                    trace_dir.mkdir()
                lo = len(tracer.spans) if tracer else 0
                timings = run.round(cache_dir, trace_dir, capture)
                rounds.append(timings)
                if tracer:
                    per_round.append(layer_metrics(
                        run, spans_mod, tracer.spans, lo, len(tracer.spans), timings,
                        trace_rows(trace_dir), setup_fd_s, run.mlm_builds,
                    ))
                log(f"round {len(rounds)}: " + ", ".join(
                    f"{s} " + " ".join(f"{t:.4f}" for t in timings[s]) + " s"
                    for s in run.solvers))
                if time.perf_counter() - start >= seconds:
                    break
    finally:
        if tracer:
            tracer.uninstall()

    for line in run.summary():
        log(line)
    for failure in run.failures:
        log(f"FAILED {failure}")
    if tracer:
        out.mkdir(exist_ok=True)
        path = out / f"spans_{workload.name}.json"
        tracer.write(path, {"workload": workload.name, "seed": seed, "rounds": len(rounds)})
        log(f"{len(tracer.spans)} spans written to {path}")
        metrics = median_round(per_round)
    else:
        metrics = end_to_end(run, setup_times, rounds)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
