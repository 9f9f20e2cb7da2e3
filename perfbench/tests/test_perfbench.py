"""The benchmark's own tests: each check fails on a corrupted output, and
every workload runs to its end at a tiny size.

Run from the root of the repository with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS, round_order

from mlmnet import bench, fdref

ROOT = Path(__file__).resolve().parents[2]


def tiny(workload):
    """A shrunken copy of a workload that runs to its end in about a second."""
    if workload.problem == "poisson1d":
        return replace(workload, nu=5, r=32, seeds=(0,))
    return replace(workload, r=24, seeds=(0,), fd_resolution=41)


@pytest.fixture(scope="module")
def poisson():
    """A tiny converged poisson1d campaign of both solvers, with its operator build."""
    wl = tiny(WORKLOADS["poisson1d-converge"])
    campaign = bench.Campaign(**{**wl.campaign_kwargs("lm", wl.seeds), "solvers": ("lm", "mlm")})
    with run.OperatorCapture(bench) as capture:
        _, results = bench.run_campaign(campaign)
    (J, dim, eps_amg, ops), = capture.builds
    return wl, results[0], J, dim, eps_amg, ops


@pytest.fixture(scope="module")
def field():
    wl = tiny(WORKLOADS["helmholtz2d-layers"])
    system = bench.build_system(bench.Campaign(**wl.campaign_kwargs("lm", wl.seeds)))
    grid = fdref.solve_helmholtz_fd(
        wl.nu, system.problem.velocity, system.problem.rhs_interior, wl.fd_resolution
    )
    return wl, grid.axis, grid.values


def test_rmse_check_fails_on_perturbed_parameters(poisson):
    wl, res, *_ = poisson
    params = res.reports["lm"].final_params
    checks.check_rmse(checks.rmse_closed_form(wl.problem, wl.nu, params, wl.r), 1e-3)
    perturbed = params + 1e-2 * np.random.default_rng(0).standard_normal(params.size)
    with pytest.raises(checks.CheckFailed, match="rmse_closed_form"):
        checks.check_rmse(checks.rmse_closed_form(wl.problem, wl.nu, perturbed, wl.r), 1e-3)


def test_own_network_matches_the_program(poisson):
    wl, res, *_ = poisson
    own = checks.rmse_closed_form(wl.problem, wl.nu, res.reports["mlm"].final_params, wl.r)
    assert own == pytest.approx(res.rmse["mlm"], rel=0.1)


def test_stop_check_fails_on_unconverged_report(poisson):
    _, res, *_ = poisson
    report = res.reports["lm"]
    checks.check_stop(report, 1e-4, True, 2000)
    with pytest.raises(checks.CheckFailed, match="converged"):
        checks.check_stop(replace(report, converged=False), 1e-4, True, 2000)
    with pytest.raises(checks.CheckFailed, match="converged"):
        checks.check_stop(replace(report, final_gradient_norm=2e-4), 1e-4, True, 2000)
    unfinished = replace(report, converged=False, iterations=report.iterations)
    checks.check_stop(unfinished, 1e-4, False, report.iterations)
    with pytest.raises(checks.CheckFailed, match="stopped_at_cap"):
        checks.check_stop(unfinished, 1e-4, False, report.iterations + 1)


def test_loss_check_fails_on_a_rise_or_no_decrease(poisson):
    _, res, *_ = poisson
    report = res.reports["mlm"]
    checks.check_loss_history(report)
    history = list(report.loss_history)
    history[len(history) // 2] *= 1.5
    with pytest.raises(checks.CheckFailed, match="loss_monotone"):
        checks.check_loss_history(replace(report, loss_history=history))
    flat = [report.loss_history[0]] * 3
    with pytest.raises(checks.CheckFailed, match="loss_monotone"):
        checks.check_loss_history(replace(report, loss_history=flat))


def test_coherence_check_fails_on_an_inflated_residual(poisson):
    _, res, *_ = poisson
    report = res.reports["mlm"]
    assert report.coherence_residuals, "the tiny mlm run takes no coarse step"
    checks.check_coherence(report)
    residual, grad_norm = report.coherence_residuals[0]
    bad = [(1e-9 * (1.0 + grad_norm), grad_norm)] + report.coherence_residuals[1:]
    with pytest.raises(checks.CheckFailed, match="coherence"):
        checks.check_coherence(replace(report, coherence_residuals=bad))


def test_amg_checks_fail_on_corrupted_operators(poisson):
    _, _, J, dim, eps_amg, ops = poisson
    checks.check_amg(J, dim, eps_amg, ops)
    r = ops.r
    fine = np.setdiff1d(np.arange(r), ops.coarse_idx)[0]
    cut = J.copy()
    cut[:, [fine + k * r for k in range(dim + 2)]] = 0.0  # node `fine` couples to nothing
    with pytest.raises(checks.CheckFailed, match="amg_strong_coarse_neighbour"):
        checks.check_amg(cut, dim, eps_amg, ops)
    with pytest.raises(checks.CheckFailed, match="amg_restriction_transpose"):
        checks.check_amg(J, dim, eps_amg, replace(ops, restrict=1.01 * ops.restrict))
    flat = ops.prolong.copy()
    flat[:, 0] = 0.0
    with pytest.raises(checks.CheckFailed, match="amg_full_rank"):
        checks.check_amg(J, dim, eps_amg, replace(ops, prolong=flat))
    rows = ops.prolong_raw.copy()
    rows[ops.coarse_idx[0], :] *= 2.0
    with pytest.raises(checks.CheckFailed, match="amg_coarse_rows"):
        checks.check_amg(J, dim, eps_amg, replace(ops, prolong_raw=rows))


def test_fd_checks_fail_on_a_scaled_field(field):
    wl, axis, values = field
    checks.check_fd_field(axis, values, wl.nu)
    with pytest.raises(checks.CheckFailed, match="fd_stencil"):
        checks.check_fd_field(axis, 1.001 * values, wl.nu)
    walls = values.copy()
    walls[0, 5] = 1e-3
    with pytest.raises(checks.CheckFailed, match="fd_stencil"):
        checks.check_fd_field(axis, walls, wl.nu)


def test_fd_rmse_check_fails_on_disagreement(field):
    wl, axis, values = field
    params = np.random.default_rng(1).uniform(-1, 1, 4 * wl.r + 1) * 1e-2
    own = checks.rmse_fd_nodes(params, wl.r, axis, values)
    checks.check_fd_rmse(own, own * 1.05, 0.1)
    with pytest.raises(checks.CheckFailed, match="rmse_fd_nodes"):
        checks.check_fd_rmse(own, own * 1.2, 0.1)
    with pytest.raises(checks.CheckFailed, match="rmse_fd_nodes"):
        checks.check_fd_rmse(checks.rmse_fd_nodes(params, wl.r, axis, 2 * values), own, 0.1)


def test_solver_error_is_a_failure():
    checks.check_no_error({}, "lm")
    with pytest.raises(checks.CheckFailed, match="solver_error: NumericalError"):
        checks.check_no_error({"lm": "NumericalError: boom"}, "lm")


def test_workload_seed_changes_order_only():
    wl = replace(WORKLOADS["poisson1d-converge"], seeds=(0, 1, 2))
    orders = {round_order(wl, s) for s in range(6)}
    assert {tuple(sorted(seeds)) for _, seeds in orders} == {(0, 1, 2)}
    assert {solvers for solvers, _ in orders} == {("lm", "mlm"), ("mlm", "lm")}


def test_benchmark_file_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_to_its_end(name, trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    result = run.run_workload(
        tiny(WORKLOADS[name]), seed=trace, seconds=0, trace=trace, setup_repeats=2,
        out=tmp_path, log=lambda line: None,
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in expected)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert abs(metrics["traced.unattributed_s"]) < 1e-3
        assert (tmp_path / f"spans_{name}.json").is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_solver_output_fails_the_run(monkeypatch, tmp_path):
    original = bench.lm_solve

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        report.final_params = report.final_params + 0.1
        return report

    monkeypatch.setattr(bench, "lm_solve", perturbed)
    result = run.run_workload(
        tiny(WORKLOADS["poisson1d-converge"]), seed=0, seconds=0, trace=0, setup_repeats=1,
        out=tmp_path, log=lambda line: None,
    )
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 2


def test_a_failed_operator_build_fails_only_its_own_seed(monkeypatch, tmp_path):
    original = bench.build_transfer_operators
    calls = []

    def first_build_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ValueError("no coarse nodes")
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "build_transfer_operators", first_build_raises)
    failures = []
    result = run.run_workload(
        replace(tiny(WORKLOADS["poisson1d-converge"]), seeds=(0, 1)), seed=0, seconds=0,
        trace=0, setup_repeats=1, out=tmp_path,
        log=lambda line: failures.append(line) if line.startswith("FAILED") else None,
    )
    assert result["attempted"] == 4 and result["failed"] == 1
    assert failures == ["FAILED mlm seed 0: solver_error: ValueError: no coarse nodes"]


def test_without_program_sources_the_run_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson1d-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
