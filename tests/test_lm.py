import io

import numpy as np
import pytest

from mlmnet import lm
from mlmnet.activations import Activation
from mlmnet.linsolve import FlopCounter, NumericalError
from mlmnet.lm import LmConfig, lm_solve
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem, poisson_1d


class LinearLeastSquares:
    """F(x) = A x - c; the minimum is the normal-equations solution."""

    def __init__(self, A, c):
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def residual(self, x):
        return self.A @ x - self.c

    def jacobian(self, x):
        return self.A

    def coarsen(self, ops):
        return self


def test_config_validation():
    with pytest.raises(ValueError):
        LmConfig(eta1=0.8, eta2=0.5)
    with pytest.raises(ValueError):
        LmConfig(gamma3=0.9)
    with pytest.raises(ValueError):
        LmConfig(lambda0=1e-7, lambda_min=1e-6)
    with pytest.raises(ValueError):
        LmConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        LmConfig(cg_max_iter=0)  # no CG iteration would ever produce a step
    assert LmConfig(cg_max_iter=1).cg_max_iter == 1


def fine_solve_sizes(monkeypatch, system, x0, cfg):
    """(CG iterations, rows of J) of every fine solve of one lm run."""
    sizes = []
    solve = lm.cgls_truncated

    def spy(J, *args, **kwargs):
        result = solve(J, *args, **kwargs)
        sizes.append((result.iterations, J.shape[0]))
        return result

    monkeypatch.setattr(lm, "cgls_truncated", spy)
    lm_solve(system, x0, cfg)
    return sizes


def test_fine_solves_stop_at_the_exact_arithmetic_bound(monkeypatch, rng):
    system = ResidualSystem(poisson_1d(nu=5), NetworkArch(16, 1, Activation("sigmoid")))
    x0 = rng.uniform(-1, 1, system.n)
    sizes = fine_solve_sizes(monkeypatch, system, x0, LmConfig(max_outer_iter=300))
    assert sizes and all(iterations <= m + 1 for iterations, m in sizes)


def test_cg_max_iter_overrides_the_bound(monkeypatch, rng):
    system = ResidualSystem(poisson_1d(nu=5), NetworkArch(16, 1, Activation("sigmoid")))
    x0 = rng.uniform(-1, 1, system.n)
    cfg = LmConfig(max_outer_iter=300, cg_max_iter=system.n)
    sizes = fine_solve_sizes(monkeypatch, system, x0, cfg)
    assert any(iterations > m + 1 for iterations, m in sizes)
    assert all(iterations <= system.n for iterations, _ in sizes)


def test_already_critical_start(rng):
    A = rng.normal(size=(6, 3))
    x_star = np.linalg.lstsq(A, rng.normal(size=6), rcond=None)[0]
    system = LinearLeastSquares(A, A @ x_star)  # consistent: F(x*) = 0
    report = lm_solve(system, x_star, LmConfig(epsilon=1e-8))
    assert report.iterations == 0
    assert report.converged
    assert report.final_gradient_norm <= 1e-8


def test_linear_least_squares_reaches_normal_equations(rng):
    m, n = 30, 10
    A = rng.normal(size=(m, n))
    c = rng.normal(size=m)
    system = LinearLeastSquares(A, c)
    report = lm_solve(system, np.zeros(n), LmConfig(epsilon=1e-8))
    oracle = np.linalg.solve(A.T @ A, A.T @ c)
    assert report.converged
    assert report.iterations <= n + 50
    assert np.linalg.norm(report.final_params - oracle) < 1e-6


def test_accepted_steps_strictly_decrease_loss(rng):
    system = ResidualSystem(
        poisson_1d(nu=3), NetworkArch(8, 1, Activation("sigmoid"))
    )
    x0 = rng.uniform(-1, 1, system.n)
    report = lm_solve(system, x0, LmConfig(epsilon=1e-5, max_outer_iter=300))
    hist = np.asarray(report.loss_history)
    assert np.all(np.diff(hist) <= 0.0)  # rejected steps keep the value, accepted lower it
    drops = np.diff(hist) < 0.0
    assert drops.sum() == report.accepted_steps
    assert report.iterations == report.accepted_steps + report.rejected_steps


def test_report_flops_match_counter(rng):
    system = LinearLeastSquares(rng.normal(size=(8, 4)), rng.normal(size=8))
    counter = FlopCounter()
    report = lm_solve(system, np.zeros(4), LmConfig(epsilon=1e-10), counter)
    assert report.matvec_flops == counter.matvec_flops > 0


def test_determinism(rng):
    A = rng.normal(size=(12, 5))
    c = rng.normal(size=12)
    reports = [
        lm_solve(LinearLeastSquares(A, c), np.zeros(5), LmConfig(epsilon=1e-9))
        for _ in range(2)
    ]
    assert reports[0].matvec_flops == reports[1].matvec_flops
    assert reports[0].iterations == reports[1].iterations
    assert np.array_equal(reports[0].final_params, reports[1].final_params)


def test_non_finite_start_rejected():
    system = LinearLeastSquares(np.eye(2), np.zeros(2))
    with pytest.raises(NumericalError, match="not finite at the starting point"):
        lm_solve(system, np.array([np.nan, 0.0]))


def test_iteration_cap_reported_as_not_converged(rng):
    system = ResidualSystem(
        poisson_1d(nu=3), NetworkArch(6, 1, Activation("tanh"))
    )
    x0 = rng.uniform(-1, 1, system.n)
    report = lm_solve(system, x0, LmConfig(epsilon=1e-12, max_outer_iter=3))
    assert report.iterations == 3
    assert not report.converged


def test_trace_stream_format(rng):
    system = LinearLeastSquares(rng.normal(size=(10, 4)), rng.normal(size=10))
    stream = io.StringIO()
    report = lm_solve(system, np.zeros(4), LmConfig(epsilon=1e-9), trace=stream)
    lines = stream.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["iteration", "loss", "grad_norm", "lambda", "rho", "accepted",
                      "cum_matvec_flops"]
    assert len(lines) == 1 + report.iterations
    last = lines[-1].split(",")
    assert int(last[-1]) == report.matvec_flops or int(last[-1]) <= report.matvec_flops
