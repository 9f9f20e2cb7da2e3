import csv
import io

import numpy as np
import pytest
import scipy.linalg

from mlmnet.activations import Activation
from mlmnet.amg import apply_blockwise, build_interpolation, build_transfer_operators, ruge_stuben_split
from mlmnet import lm, mlm
from mlmnet.linsolve import FlopCounter, NumericalError, direct_solve
from mlmnet.lm import lm_solve, update_lambda
from mlmnet.mlm import (
    MlmConfig,
    build_coarse_model,
    coarse_cycle,
    effective_kappa,
    go_down,
    mlm_solve,
)
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem, poisson_1d

from test_lm import LinearLeastSquares


def identity_ops(r):
    A = np.eye(r)
    return build_interpolation(A, ruge_stuben_split(A, 0.5))


def random_ops(rng, r):
    X = rng.normal(size=(r, r))
    A = X @ X.T + 0.1 * np.eye(r)
    return build_interpolation(A, ruge_stuben_split(A, 0.9))


def network_system(nu=3, r=8):
    return ResidualSystem(poisson_1d(nu=nu), NetworkArch(r, 1, Activation("sigmoid")))


def coarse_model_at(system, x, ops):
    """The coarse model `mlm_solve` builds at x, from the restriction of the
    fine gradient and the coarse system."""
    grad = system.jacobian(x).T @ system.residual(x)
    restricted = apply_blockwise(ops, grad, "restrict")
    return build_coarse_model(system.coarsen(ops), x, ops, restricted, FlopCounter())


def test_config_validation():
    with pytest.raises(ValueError):
        MlmConfig(kappa_h=1.5)
    with pytest.raises(ValueError):
        MlmConfig(max_coarse_iter=0)
    cfg = MlmConfig(epsilon=1e-3)
    assert cfg.epsilon_h == 1e-3  # defaults to the fine tolerance


# -- go_down -----------------------------------------------------------------------


def test_go_down_zero_gradient_false(rng):
    ops = random_ops(rng, 6)
    grad = np.zeros(3 * 6 + 1)
    assert go_down(grad, ops, effective_kappa(MlmConfig(), ops), epsilon_h=1e-4) is None


def test_go_down_identity_true():
    ops = identity_ops(5)
    grad = np.zeros(16)
    grad[0] = 1.0
    counter = FlopCounter()
    restricted = go_down(grad, ops, effective_kappa(MlmConfig(), ops), 1e-4, counter)
    assert np.array_equal(restricted, grad)
    assert counter.matvec_flops == 3 * 2 * 5 * 5  # three blockwise restrictions


def test_go_down_null_space_false(rng):
    ops = random_ops(rng, 8)
    R = ops.restrict
    q, _ = np.linalg.qr(R.T, mode="complete")
    null_vec = q[:, ops.r_coarse]  # R @ null_vec == 0
    assert np.linalg.norm(R @ null_vec) < 1e-12
    grad = np.zeros(3 * 8 + 1)
    grad[:8] = null_vec  # output-weight block only, output-bias zero
    assert go_down(grad, ops, effective_kappa(MlmConfig(), ops), epsilon_h=1e-4) is None


# -- coarse model -------------------------------------------------------------------


def test_coherence_enforced_by_construction(rng):
    system = network_system(r=10)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    F = system.residual(x)
    grad = system.jacobian(x).T @ F
    restricted = apply_blockwise(ops, grad, "restrict")
    grad_model = model.system.jacobian(model.x0).T @ model.system.residual(model.x0)
    grad_model = grad_model + model.correction
    assert np.linalg.norm(grad_model - restricted) <= 1e-12 * (1.0 + np.linalg.norm(grad))
    assert model.coherence_residual <= 1e-10 * (1.0 + np.linalg.norm(grad))


def test_identity_operators_give_zero_correction(rng):
    system = network_system(r=6)
    x = rng.uniform(-1, 1, system.n)
    ops = identity_ops(6)
    model = coarse_model_at(system, x, ops)
    assert np.allclose(model.correction, 0.0, atol=1e-14)
    assert np.allclose(model.x0, x)
    # the coarse objective is the fine loss itself
    assert model.f0 == pytest.approx(0.5 * float(system.residual(x) @ system.residual(x)))


def test_first_order_coherence_along_prolongated_directions(rng):
    # grad_f . (P s) must equal (1/sigma) grad_m(x0) . s with sigma the
    # ratio of the recorded operator scales; the output-bias channel is
    # transferred by the identity, so test directions leave it at zero
    system = network_system(r=10)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    F = system.residual(x)
    grad = system.jacobian(x).T @ F
    grad_model0 = apply_blockwise(ops, grad, "restrict")  # == grad of the model at x0
    sigma = ops.prolong_scale / ops.restrict_scale
    for _ in range(10):
        s_coarse = rng.normal(size=model.x0.size)
        s_coarse[-1] = 0.0
        lhs = float(grad @ apply_blockwise(ops, s_coarse, "prolong"))
        rhs = float(grad_model0 @ s_coarse) / sigma
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_output_bias_restriction_is_exact(rng):
    ops = random_ops(rng, 7)
    x = rng.normal(size=3 * 7 + 1)
    assert apply_blockwise(ops, x, "restrict")[-1] == x[-1]


# -- coarse cycle -------------------------------------------------------------------


def test_critical_start_returns_zero_step(rng):
    # corr = 0 and x0 at the coarse minimum: nothing to do
    A = rng.normal(size=(12, 10))
    x_star = np.linalg.lstsq(A, rng.normal(size=12), rcond=None)[0]
    system = LinearLeastSquares(A, A @ x_star)
    ops = identity_ops(3)  # layout 3*3+1 = 10
    model = coarse_model_at(system, x_star, ops)
    step, pred, accepted = coarse_cycle(model, 0.05, MlmConfig(epsilon=1e-8), FlopCounter())
    assert not step.any()
    assert pred == 0.0
    assert accepted == 0


def replay_coarse_cycle(model, lam, cfg, solve):
    """Independent loop of damped Gauss-Newton steps on the corrected coarse
    objective, each from `solve(J, lam, rhs)`; returns what coarse_cycle does."""
    system, corr = model.system, model.correction
    y = model.x0.copy()
    F = system.residual(y)
    J = system.jacobian(y)
    value0 = value = 0.5 * float(F @ F)
    n_acc = 0
    for _ in range(cfg.max_coarse_iter):
        g = J.T @ F + corr
        if np.linalg.norm(g) <= cfg.epsilon:
            break
        s = solve(J, lam, -g)
        Js = J @ s
        pred = -(float(g @ s) + 0.5 * float(Js @ Js))
        rho = None
        if pred > 0 and s.any():
            F_t = system.residual(y + s)
            value_t = 0.5 * float(F_t @ F_t) + float(corr @ (y + s - model.x0))
            rho = (value - value_t) / pred
        if rho is not None and rho >= cfg.eta1:
            y, F, value = y + s, F_t, value_t
            J = system.jacobian(y)
            n_acc += 1
        lam = update_lambda(lam, rho, cfg)
    return y - model.x0, value0 - value, n_acc


def test_coarse_cycle_matches_reference_loop(rng):
    # identity transfers on a quadratic: the cycle must replay a plain
    # damped Gauss-Newton iteration with direct solves, bit for bit
    A = rng.normal(size=(14, 10))
    c = rng.normal(size=14)
    system = LinearLeastSquares(A, c)
    x0 = rng.normal(size=10)
    ops = identity_ops(3)
    cfg = MlmConfig(epsilon=1e-10, max_coarse_iter=10)
    model = coarse_model_at(system, x0, ops)
    step, pred, accepted = coarse_cycle(model, cfg.lambda0, cfg, FlopCounter())
    ref_step, ref_pred, n_acc = replay_coarse_cycle(model, cfg.lambda0, cfg, direct_solve)
    assert accepted == n_acc
    assert np.allclose(step, ref_step, rtol=0, atol=1e-14)
    assert pred == pytest.approx(ref_pred, rel=1e-12)


def test_coarse_cycle_kernel_solve_matches_dense_reference(rng):
    # a network system with fewer residuals than coarse unknowns takes the
    # kernel-space solve; replay the cycle with dense n_c-by-n_c solves
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    assert len(model._residual0) < model.x0.size
    cfg = MlmConfig(epsilon=1e-10, max_coarse_iter=10)
    step, pred, accepted = coarse_cycle(model, 0.05, cfg, FlopCounter())

    def dense_solve(J, lam, rhs):
        return scipy.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]), rhs, assume_a="pos")

    ref_step, ref_pred, n_acc = replay_coarse_cycle(model, 0.05, cfg, dense_solve)
    assert n_acc > 0
    assert accepted == n_acc
    assert np.allclose(step, ref_step, rtol=1e-10, atol=0)
    assert pred == pytest.approx(ref_pred, rel=1e-10)


def test_coarse_cycle_evaluates_each_coarse_point_once(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    points = []  # the arguments of every coarse residual evaluation
    real_residual = ResidualSystem.residual

    def recording_residual(self, p):
        if self is not system:
            points.append(np.asarray(p).tobytes())
        return real_residual(self, p)

    monkeypatch.setattr(ResidualSystem, "residual", recording_residual)
    model = coarse_model_at(system, x, ops)
    _, _, accepted = coarse_cycle(model, 0.05, MlmConfig(epsilon=1e-10), FlopCounter())
    assert accepted > 0 and len(points) > accepted
    assert len(points) == len(set(points))


def test_a_failed_coarse_solve_grows_lambda_and_uses_up_an_iteration(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    lams = []  # the lam of every coarse solve

    def failing_first(J, lam, rhs):
        lams.append(lam)
        if len(lams) == 1:
            raise NumericalError("injected coarse breakdown")
        return direct_solve(J, lam, rhs)

    monkeypatch.setattr(mlm, "direct_solve", failing_first)
    cfg = MlmConfig(epsilon=1e-10, max_coarse_iter=3)
    coarse_cycle(model, 0.05, cfg, FlopCounter())
    assert len(lams) == cfg.max_coarse_iter
    assert lams[1] == cfg.gamma3 * 0.05

    lams.clear()
    step, pred, accepted = coarse_cycle(model, 0.05, MlmConfig(max_coarse_iter=1), FlopCounter())
    assert lams == [0.05]
    assert accepted == 0 and pred == 0.0 and not step.any()


def test_pred_positive_when_step_accepted(rng):
    system = network_system(r=10)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    step, pred, accepted = coarse_cycle(model, 0.05, MlmConfig(epsilon=1e-6), FlopCounter())
    if accepted > 0:
        assert step.any()
        assert pred > 0


# -- full driver --------------------------------------------------------------------


def test_identity_ops_converge_on_linear_surrogate(rng):
    A = rng.normal(size=(20, 13))
    c = rng.normal(size=20)
    system = LinearLeastSquares(A, c)
    ops = identity_ops(4)  # 3*4+1 = 13
    report = mlm_solve(system, np.zeros(13), MlmConfig(epsilon=1e-8), ops)
    oracle = np.linalg.solve(A.T @ A, A.T @ c)
    assert report.converged
    assert np.linalg.norm(report.final_params - oracle) < 1e-6
    assert report.coarse_steps > 0


def test_coarse_system_is_built_once_per_run(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    built = []
    real_coarsen = ResidualSystem.coarsen

    def counting_coarsen(self, ops):
        built.append(ops)
        return real_coarsen(self, ops)

    monkeypatch.setattr(ResidualSystem, "coarsen", counting_coarsen)
    report = mlm_solve(system, x0, MlmConfig(epsilon=1e-5, max_outer_iter=200), ops)
    assert report.coarse_steps > 1
    assert len(built) == 1 and built[0] is ops


def test_fine_branch_when_go_down_impossible(rng):
    # epsilon_h above any gradient magnitude: every iteration must stay fine
    system = network_system(nu=3, r=8)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    stream = io.StringIO()
    cfg = MlmConfig(epsilon=1e-3, max_outer_iter=40, epsilon_h=1e12)
    report = mlm_solve(system, x0, cfg, ops, trace=stream)
    lines = stream.getvalue().strip().splitlines()[1:]
    levels = [line.split(",")[1] for line in lines]
    assert levels and all(level == "fine" for level in levels)
    assert report.coarse_steps == 0


def test_alternation_never_two_coarse_in_a_row(rng):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    stream = io.StringIO()
    report = mlm_solve(
        system, x0, MlmConfig(epsilon=1e-5, max_outer_iter=200), ops, trace=stream
    )
    lines = stream.getvalue().strip().splitlines()[1:]
    levels = [line.split(",")[1] for line in lines]
    for a, b in zip(levels, levels[1:]):
        assert not (a == "coarse" and b == "coarse")
    assert levels[0] == "fine"  # the first iteration works at the fine level


def test_coherence_residuals_collected(rng):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    report = mlm_solve(system, x0, MlmConfig(epsilon=1e-5, max_outer_iter=200), ops)
    assert len(report.coherence_residuals) == report.coarse_steps
    for coherence, grad_norm in report.coherence_residuals:
        assert coherence <= 1e-10 * (1.0 + grad_norm)


def test_accepted_steps_strictly_decrease_loss(rng):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    report = mlm_solve(system, x0, MlmConfig(epsilon=1e-5, max_outer_iter=300), ops)
    hist = np.asarray(report.loss_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert (np.diff(hist) < 0.0).sum() == report.accepted_steps
    assert report.iterations == report.accepted_steps + report.rejected_steps


@pytest.mark.parametrize("solver", ["lm", "mlm"])
def test_inner_solver_breakdowns_are_rejected_fine_steps(rng, monkeypatch, solver):
    # both solvers run the loop of lm.py, so one patch reaches both
    system = network_system(nu=3, r=8)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    real_cgls = lm.cgls_truncated
    calls = []

    def solve(fails, max_outer_iter, stream):
        calls.clear()

        def flaky_cgls(*args, **kwargs):
            calls.append(None)
            if fails(len(calls)):
                raise NumericalError("injected breakdown")
            return real_cgls(*args, **kwargs)

        monkeypatch.setattr(lm, "cgls_truncated", flaky_cgls)
        cfg = MlmConfig(epsilon=1e-3, max_outer_iter=max_outer_iter, epsilon_h=1e12)
        if solver == "lm":
            return lm_solve(system, x0, cfg, trace=stream), cfg
        return mlm_solve(system, x0, cfg, ops, trace=stream), cfg

    def rows_of(stream):
        return list(csv.DictReader(io.StringIO(stream.getvalue())))

    failing = 5
    stream = io.StringIO()
    report, cfg = solve(lambda call: call <= failing, 40, stream)
    rows = rows_of(stream)
    lam = cfg.lambda0
    for i, row in enumerate(rows[:failing], start=1):
        lam = cfg.gamma3 * lam
        assert row["iteration"] == str(i)
        assert row["rho"] == "" and row["accepted"] == "0"
        assert row["lambda"] == f"{lam:.12g}"
        assert row.get("level", "fine") == "fine"
    assert rows[failing]["rho"] != ""
    assert report.loss_history[: failing + 1] == [report.loss_history[0]] * (failing + 1)
    assert report.rejected_steps == sum(row["accepted"] == "0" for row in rows) >= failing
    assert report.iterations == report.accepted_steps + report.rejected_steps

    # a success in between resets the count of consecutive breakdowns
    limit = lm._MAX_INNER_FAILURES
    stream = io.StringIO()
    report, _ = solve(lambda call: call % limit != 0, 2 * limit + 10, stream)
    assert report.iterations == len(rows_of(stream)) == 2 * limit + 10

    # the limit-th consecutive breakdown propagates; the earlier ones are traced
    stream = io.StringIO()
    with pytest.raises(NumericalError, match="injected breakdown"):
        solve(lambda call: True, 2 * limit, stream)
    assert len(calls) == limit
    assert len(rows_of(stream)) == limit - 1
