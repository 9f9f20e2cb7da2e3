"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 reproduces the full-size benchmark comparison and takes tens
of minutes; it is opt-in via `pytest -m long`.
"""

import filecmp
from contextlib import contextmanager

import numpy as np
import pytest

from mlmnet import cli
from mlmnet.activations import Activation
from mlmnet.amg import build_interpolation, build_transfer_operators, ruge_stuben_split
from mlmnet.bench import Campaign, emit_report, initial_guess, run_campaign
from mlmnet.fdref import solve_helmholtz_fd
from mlmnet.linsolve import cgls_truncated
from mlmnet.lm import LmConfig, lm_solve
from mlmnet.mlm import MlmConfig, mlm_solve
from mlmnet.network import NetworkArch
from mlmnet.pde import (
    ResidualSystem,
    exp_nonlinear_2d,
    helmholtz_1d,
    helmholtz_2d,
    poisson_1d,
    poisson_2d,
    sine_nonlinear_1d,
)

from conftest import fd_jacobian, rel_err


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_derivative_correctness():
    problems = [
        poisson_1d(nu=3),
        poisson_2d(nu=2),
        helmholtz_1d(nu=3),
        helmholtz_2d(nu=2, velocity="constant"),
        helmholtz_2d(nu=2, velocity="two-layers"),
        helmholtz_2d(nu=2, velocity="four-layers"),
        helmholtz_2d(nu=2, velocity="sine"),
        sine_nonlinear_1d(nu=3),
        exp_nonlinear_2d(nu=1),
    ]
    with criterion(1, "derivative correctness"):
        rng = np.random.default_rng(2024)
        for problem in problems:
            system = ResidualSystem(problem, NetworkArch(8, problem.dim, Activation("sigmoid")))
            worst = 0.0
            for _ in range(20):
                x = rng.uniform(-1, 1, system.n)
                worst = max(worst, rel_err(system.jacobian(x), fd_jacobian(system.residual, x)))
            assert worst < 1e-6, f"{problem.name}: max rel err {worst:.3e}"


def test_criterion_2_first_order_coherence():
    with criterion(2, "first-order coherence"):
        system = ResidualSystem(poisson_1d(nu=5), NetworkArch(64, 1, Activation("sigmoid")))
        p0 = initial_guess(0, system.n)
        ops = build_transfer_operators(system.jacobian(p0), system.arch)
        report = mlm_solve(system, p0, MlmConfig(epsilon=1e-4), ops)
        assert report.coherence_residuals, "the run never built a coarse model"
        for coherence, grad_norm in report.coherence_residuals:
            assert coherence <= 1e-10 * (1.0 + grad_norm)


def test_criterion_3_amg_structural_invariants():
    with criterion(3, "AMG structural invariants"):
        rng = np.random.default_rng(7)
        tridiag = (
            np.diag(np.full(9, 2.0))
            + np.diag(np.full(8, -1.0), 1)
            + np.diag(np.full(8, -1.0), -1)
        )
        matrices = [tridiag] + [
            (lambda X: X @ X.T + 0.1 * np.eye(X.shape[0]))(rng.normal(size=(k, k)))
            for k in rng.integers(3, 24, size=20)
        ]
        for A in matrices:
            r = A.shape[0]
            split = ruge_stuben_split(A, 0.25 if A is tridiag else 0.9)
            assert np.array_equal(
                np.sort(np.concatenate([split.coarse, split.fine])), np.arange(r)
            )
            coarse = set(split.coarse.tolist())
            for i in split.fine:
                assert any(int(k) in coarse for k in np.flatnonzero(split.strong[i]))
            ops = build_interpolation(A, split)
            assert np.linalg.matrix_rank(ops.prolong) == ops.r_coarse
            for c, k in enumerate(ops.coarse_idx):
                unit = np.zeros(ops.r_coarse)
                unit[c] = 1.0
                assert np.array_equal(ops.prolong_raw[int(k)], unit)
            assert np.array_equal(ops.restrict, ops.prolong_raw.T / ops.restrict_scale)
        # classical half-weight interpolation on the 1D stencil matrix
        split = ruge_stuben_split(tridiag, 0.25)
        assert np.array_equal(split.coarse, [1, 3, 5, 7])
        ops = build_interpolation(tridiag, split)
        col = ops.prolong_raw[:, 1]  # coarse node 3
        assert col[2] == pytest.approx(0.5) and col[3] == 1.0 and col[4] == pytest.approx(0.5)


def test_criterion_4_inner_solver_contract():
    with criterion(4, "inner solver stopping contract"):
        rng = np.random.default_rng(11)
        checked = 0
        for trial in range(40):
            m = int(rng.integers(5, 30))
            n = int(rng.integers(2, m + 1))
            J = rng.normal(size=(m, n))
            F = rng.normal(size=m)
            corr = rng.normal(size=n) if trial % 3 == 0 else None
            lam = float(rng.uniform(1e-4, 1.0))
            theta = float(rng.uniform(0.01, 0.5))
            res = cgls_truncated(J, F, lam, corr=corr, theta=theta, max_iter=4 * n)
            if res.satisfied:
                lhs = J.T @ (J @ res.step) + lam * res.step + J.T @ F
                if corr is not None:
                    lhs = lhs + corr
                assert np.linalg.norm(lhs) <= theta * float(res.step @ res.step) * (1 + 1e-12)
                checked += 1
        assert checked >= 20  # the contract must actually have been exercised


def test_criterion_5_desk_scale_convergence():
    with criterion(5, "desk-scale convergence (1D Poisson, nu=5, r=64)"):
        system = ResidualSystem(poisson_1d(nu=5), NetworkArch(64, 1, Activation("sigmoid")))
        cfg_lm = LmConfig(epsilon=1e-4, max_outer_iter=2000)
        cfg_mlm = MlmConfig(epsilon=1e-4, max_outer_iter=2000)
        for seed in (0, 1, 2):
            p0 = initial_guess(seed, system.n)
            ops = build_transfer_operators(system.jacobian(p0), system.arch)
            for name, report in (
                ("lm", lm_solve(system, p0.copy(), cfg_lm)),
                ("mlm", mlm_solve(system, p0.copy(), cfg_mlm, ops)),
            ):
                assert report.converged, f"{name} seed {seed} did not converge"
                assert report.final_gradient_norm <= 1e-4
                assert report.iterations <= 2000
                rmse = system.rmse(report.final_params, 100)
                assert rmse <= 1e-3, f"{name} seed {seed} RMSE {rmse:.2e}"


@pytest.mark.long
def test_criterion_6_table2_order_reproduction():
    with criterion(6, "full-size benchmark order reproduction (nu=20, r=512)"):
        campaign = Campaign(
            name="table2",
            problem="poisson1d",
            nu=20,
            r=512,
            seeds=tuple(range(10)),
            solvers=("lm", "mlm"),
        )
        rows, seed_results = run_campaign(campaign)
        by_solver = {row.solver: row for row in rows}
        for solver in ("lm", "mlm"):
            row = by_solver[solver]
            assert row.failures == 0
            assert row.rmse_geomean <= 5e-3, f"{solver} RMSE {row.rmse_geomean:.2e}"
        assert by_solver["mlm"].save_mean >= 1.0, (
            f"flop save mean {by_solver['mlm'].save_mean:.3f}"
        )
        print(
            "  table2 detail: lm iters {:.0f} rmse {:.2e} | mlm iters {:.0f} rmse {:.2e} "
            "save {:.2f}-{:.2f}-{:.2f}".format(
                by_solver["lm"].mean_iterations, by_solver["lm"].rmse_geomean,
                by_solver["mlm"].mean_iterations, by_solver["mlm"].rmse_geomean,
                by_solver["mlm"].save_min, by_solver["mlm"].save_mean,
                by_solver["mlm"].save_max,
            )
        )


def test_criterion_7_nonlinear_operator_coverage():
    with criterion(7, "nonlinear operator convergence (sine, nu=5, r=64)"):
        system = ResidualSystem(
            sine_nonlinear_1d(nu=5), NetworkArch(64, 1, Activation("sigmoid"))
        )
        report = lm_solve(system, initial_guess(0, system.n), LmConfig(epsilon=1e-4))
        assert report.converged
        rmse = system.rmse(report.final_params, 100)
        assert rmse <= 1e-3, f"RMSE {rmse:.2e}"


def test_criterion_8_fd_reference_order():
    with criterion(8, "finite-difference reference order-2 convergence"):
        k2 = (2.0 * np.pi / 40.0) ** 2

        def g1(z):
            return (2.0 * np.pi**2 - k2) * np.sin(np.pi * z[:, 0]) * np.sin(np.pi * z[:, 1])

        def u(z):
            return np.sin(np.pi * z[:, 0]) * np.sin(np.pi * z[:, 1])

        errs = []
        for M in (33, 65):
            grid = solve_helmholtz_fd(1.0, lambda z: np.full(z.shape[0], 40.0), g1, M)
            xs, ys = np.meshgrid(grid.axis, grid.axis, indexing="ij")
            exact = u(np.column_stack([xs.ravel(), ys.ravel()])).reshape(grid.values.shape)
            errs.append(np.abs(grid.values - exact).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5, f"convergence ratio {ratio:.2f}"


def test_criterion_9_campaign_determinism(tmp_path):
    with criterion(9, "byte-identical campaign reports"):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(
            "[campaign:determinism]\n"
            "problem = poisson1d\n"
            "nu = 3\n"
            "r = 24\n"
            "seeds = 0 1\n"
            "solvers = lm mlm\n"
            "epsilon = 1e-3\n"
            "max_outer_iter = 300\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(out2)]) == 0
        assert filecmp.cmp(out1, out2, shallow=False)
