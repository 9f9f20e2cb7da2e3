import csv
import io
import math

import numpy as np
import pytest
import scipy.linalg

from mlmnet.amg import apply_blockwise, build_interpolation, build_transfer_operators, ruge_stuben_split
from mlmnet import bench, lm, mlm
from mlmnet.linsolve import FlopCounter, NumericalError, direct_solve, gram_eigen
from mlmnet.lm import LmConfig, lm_solve, update_lambda
from mlmnet.mlm import (
    build_coarse_model,
    coarse_cycle,
    effective_kappa,
    go_down,
    mlm_solve,
)
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem, poisson_1d

from conftest import run_on_one_blas_thread
from test_lm import LinearLeastSquares


def identity_ops(r):
    A = np.eye(r)
    return build_interpolation(A, ruge_stuben_split(A, 0.5))


def random_ops(rng, r):
    X = rng.normal(size=(r, r))
    A = X @ X.T + 0.1 * np.eye(r)
    return build_interpolation(A, ruge_stuben_split(A, 0.9))


def network_system(nu=3, r=8):
    return ResidualSystem(poisson_1d(nu=nu), NetworkArch(r, 1))


def coarse_model_at(system, x, ops):
    """The coarse model `mlm_solve` builds at x, from the restriction of the
    fine gradient and the coarse system."""
    grad = system.jacobian(x).T @ system.residual(x)
    restricted = apply_blockwise(ops.restrict, grad, FlopCounter())
    return build_coarse_model(system.coarsen(ops), x, ops, restricted, FlopCounter())


# -- go_down -----------------------------------------------------------------------


def test_go_down_zero_gradient_false(rng):
    ops = random_ops(rng, 6)
    grad = np.zeros(3 * 6 + 1)
    kappa = effective_kappa(ops)
    assert go_down(grad, np.linalg.norm(grad), ops, kappa, 1e-4, FlopCounter()) is None


def test_go_down_identity_true():
    ops = identity_ops(5)
    grad = np.zeros(16)
    grad[0] = 1.0
    counter = FlopCounter()
    restricted = go_down(grad, np.linalg.norm(grad), ops, effective_kappa(ops), 1e-4, counter)
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
    kappa = effective_kappa(ops)
    assert go_down(grad, np.linalg.norm(grad), ops, kappa, 1e-4, FlopCounter()) is None


# -- effective_kappa ---------------------------------------------------------------


def svd_kappa(ops):
    """The descent threshold from the largest singular value of R, by a full SVD."""
    return mlm.KAPPA_H * min(1.0, float(np.linalg.norm(ops.restrict, 2)))


# the benchmark's workloads at their starting seeds: (problem, nu, r)
WORKLOAD_SIZES = [("poisson1d", 10, 256), ("poisson1d", 20, 512), ("helmholtz2d-two-layers", 2, 512)]


@pytest.mark.parametrize("problem, nu, r", WORKLOAD_SIZES)
def test_effective_kappa_is_the_svd_threshold_on_the_workloads_operators(problem, nu, r):
    entry = bench.PROBLEMS[problem]
    pde_problem = entry.factory(nu)
    system = ResidualSystem(pde_problem, NetworkArch(r, pde_problem.dim))
    for seed in (0, 1):
        J = system.jacobian(bench.initial_guess(seed, system.n))
        ops = build_transfer_operators(J, system.arch)
        assert effective_kappa(ops) == pytest.approx(svd_kappa(ops), rel=1e-14, abs=0)


def test_effective_kappa_is_the_svd_threshold_on_random_operators(rng):
    for r in (2, 3, 8, 17, 40, 64):
        ops = random_ops(rng, r)
        assert effective_kappa(ops) == pytest.approx(svd_kappa(ops), rel=1e-14, abs=0)


def test_effective_kappa_is_kappa_h_once_the_restriction_norm_reaches_one(rng):
    for r in (1, 4, 9):
        ops = identity_ops(r)
        assert effective_kappa(ops) == mlm.KAPPA_H
    # a restriction scaled past norm one: the threshold stays KAPPA_H
    ops = random_ops(rng, 12)
    ops.restrict = 3.0 * ops.restrict / np.linalg.norm(ops.restrict, 2)
    assert effective_kappa(ops) == mlm.KAPPA_H


# -- coarse model -------------------------------------------------------------------


def test_coherence_enforced_by_construction(rng):
    system = network_system(r=10)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    F = system.residual(x)
    grad = system.jacobian(x).T @ F
    restricted = apply_blockwise(ops.restrict, grad, FlopCounter())
    grad_model = model.system.jacobian(model.x0).T @ model.system.residual(model.x0)
    grad_model = grad_model + model.correction
    assert np.linalg.norm(grad_model - restricted) <= 1e-12 * (1.0 + np.linalg.norm(grad))
    assert model.coherence_residual <= 1e-10 * (1.0 + np.linalg.norm(grad))


INCOHERENT_MODEL = """
from test_mlm import FlopCounter, build_coarse_model, build_transfer_operators, network_system
system = network_system(r=6)
x = np.random.default_rng(0).uniform(-1, 1, system.n)
ops = build_transfer_operators(system.jacobian(x), system.arch)
coarse = system.coarsen(ops)
# an infinite restricted gradient leaves a NaN coherence residual, which no bound admits
with np.errstate(invalid="ignore"):
    build_coarse_model(coarse, x, ops, np.full(coarse.n, np.inf), FlopCounter())
"""

INCREASING_CG_MODEL = """
import math, types
from mlmnet import linsolve
# a NaN tolerance stands in for a recurrence whose model value grows
linsolve.math = types.SimpleNamespace(sqrt=lambda value: math.nan, isfinite=math.isfinite)
linsolve.cgls_truncated(np.eye(3), np.ones(3), 1.0, linsolve.FlopCounter())
"""


@pytest.mark.parametrize("violation, message", [
    (INCOHERENT_MODEL, "coarse model is not first-order coherent: residual nan"),
    (INCREASING_CG_MODEL, "conjugate gradient model value increased"),
], ids=["coherence", "cg-model-decrease"])
def test_invariant_checks_raise_under_python_O(violation, message):
    # the child's own `assert`s would vanish under -O, so it prints what it caught
    source = "\n".join([
        "import sys",
        "import numpy as np",
        "try:",
        *("    " + line for line in violation.strip().splitlines()),
        "except AssertionError as exc:",
        "    print(sys.flags.optimize, exc)",
    ])
    assert run_on_one_blas_thread(source, "-O") == f"1 {message}"


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
    grad_model0 = apply_blockwise(ops.restrict, grad, FlopCounter())  # == grad of the model at x0
    sigma = ops.prolong_scale / ops.restrict_scale
    for _ in range(10):
        s_coarse = rng.normal(size=model.x0.size)
        s_coarse[-1] = 0.0
        lhs = float(grad @ apply_blockwise(ops.prolong, s_coarse, FlopCounter()))
        rhs = float(grad_model0 @ s_coarse) / sigma
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_output_bias_restriction_is_exact(rng):
    ops = random_ops(rng, 7)
    x = rng.normal(size=3 * 7 + 1)
    assert apply_blockwise(ops.restrict, x, FlopCounter())[-1] == x[-1]


# -- coarse cycle -------------------------------------------------------------------


def test_critical_start_returns_zero_step(rng):
    # corr = 0 and x0 at the coarse minimum: nothing to do
    A = rng.normal(size=(12, 10))
    x_star = np.linalg.lstsq(A, rng.normal(size=12), rcond=None)[0]
    system = LinearLeastSquares(A, A @ x_star)
    ops = identity_ops(3)  # layout 3*3+1 = 10
    model = coarse_model_at(system, x_star, ops)
    step, pred = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-8), FlopCounter(), math.inf)
    assert not step.any()
    assert pred == 0.0


def replay_coarse_cycle(model, lam, cfg, solve):
    """Independent loop of damped Gauss-Newton steps on the corrected coarse
    objective, each from `solve(J, lam, rhs)`; returns what coarse_cycle does."""
    system, corr = model.system, model.correction
    y = model.x0.copy()
    F = system.residual(y)
    J = system.jacobian(y)
    value0 = value = 0.5 * float(F @ F)
    n_acc = 0
    for _ in range(mlm.MAX_COARSE_ITER):
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
        if rho is not None and rho >= lm.ETA1:
            y, F, value = y + s, F_t, value_t
            J = system.jacobian(y)
            n_acc += 1
        lam = update_lambda(lam, rho)
    return y - model.x0, value0 - value, n_acc


def test_coarse_cycle_matches_reference_loop(rng):
    # identity transfers on a quadratic: the cycle must replay a plain
    # damped Gauss-Newton iteration with direct solves, bit for bit
    A = rng.normal(size=(14, 10))
    c = rng.normal(size=14)
    system = LinearLeastSquares(A, c)
    x0 = rng.normal(size=10)
    ops = identity_ops(3)
    cfg = LmConfig(epsilon=1e-10)
    model = coarse_model_at(system, x0, ops)
    step, pred = coarse_cycle(model, lm.LAMBDA0, cfg, FlopCounter(), math.inf)
    def solve(J, lam, rhs):
        return direct_solve(J, lam, rhs, gram_eigen(J))[0]

    ref_step, ref_pred, n_acc = replay_coarse_cycle(model, lm.LAMBDA0, cfg, solve)
    assert n_acc > 0
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
    cfg = LmConfig(epsilon=1e-10)
    step, pred = coarse_cycle(model, 0.05, cfg, FlopCounter(), math.inf)

    def dense_solve(J, lam, rhs):
        return scipy.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]), rhs, assume_a="pos")

    ref_step, ref_pred, n_acc = replay_coarse_cycle(model, 0.05, cfg, dense_solve)
    assert n_acc > 0
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
    step, _ = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), FlopCounter(), math.inf)
    assert step.any() and len(points) > 1
    assert len(points) == len(set(points))


def test_a_failed_coarse_solve_grows_lambda_and_uses_up_an_iteration(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    lams = []  # the lam of every coarse solve

    def failing_first(J, lam, rhs, gram=None):
        lams.append(lam)
        if len(lams) == 1:
            raise NumericalError("injected coarse breakdown")
        return direct_solve(J, lam, rhs, gram)

    monkeypatch.setattr(mlm, "direct_solve", failing_first)
    monkeypatch.setattr(mlm, "MAX_COARSE_ITER", 3)
    coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), FlopCounter(), math.inf)
    assert len(lams) == 3
    assert lams[1] == lm.GAMMA3 * 0.05

    lams.clear()
    monkeypatch.setattr(mlm, "MAX_COARSE_ITER", 1)
    step, pred = coarse_cycle(model, 0.05, LmConfig(), FlopCounter(), math.inf)
    assert lams == [0.05]
    assert pred == 0.0 and not step.any()


@pytest.mark.parametrize("failing", [1, 2], ids=["first-jacobian", "second-jacobian"])
def test_a_coarse_jacobian_that_cannot_be_factored_ends_the_run(rng, monkeypatch, failing):
    # the factor of J does not depend on lam, so a J whose factor fails is tried once, and
    # the run returns the step and prediction of the coarse point that J was formed at
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    factored = []  # the bytes of the Jacobian of every gram_eigen call
    points = [model.x0]  # the coarse point of every coarse Jacobian
    real_jacobian = ResidualSystem.jacobian

    def recording_jacobian(self, p):
        if self is model.system:
            points.append(p.copy())
        return real_jacobian(self, p)

    def failing_gram_eigen(J):
        factored.append(J.tobytes())
        if len(set(factored)) == failing:
            raise NumericalError("injected factor breakdown")
        return gram_eigen(J)

    monkeypatch.setattr(ResidualSystem, "jacobian", recording_jacobian)
    monkeypatch.setattr(mlm, "gram_eigen", failing_gram_eigen)
    step, pred = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), FlopCounter(), math.inf)
    assert len(factored) == len(set(factored)) == failing == len(points)
    y = points[-1]
    _, value = lm.evaluate_loss(model.system, y)
    value += float(model.correction @ (y - model.x0))
    assert np.array_equal(step, y - model.x0) and pred == model.f0 - value
    assert step.any() == (failing > 1)


def test_coarse_cycle_factors_each_coarse_jacobian_once(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    factors = {}  # Jacobian bytes -> its factor, one entry per gram_eigen call
    built = []
    solved = []  # (Jacobian bytes, factor passed) of every coarse solve

    def recording_gram_eigen(J):
        built.append(J.tobytes())
        factors[J.tobytes()] = gram_eigen(J)
        return factors[J.tobytes()]

    def recording_solve(J, lam, rhs, gram=None):
        solved.append((J.tobytes(), gram))
        return direct_solve(J, lam, rhs, gram)

    monkeypatch.setattr(mlm, "gram_eigen", recording_gram_eigen)
    monkeypatch.setattr(mlm, "direct_solve", recording_solve)
    step, _ = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), FlopCounter(), math.inf)
    assert step.any() and len(solved) > len(built)  # some Jacobian served several lam
    assert len(built) == len(set(built)) == len({key for key, _ in solved})
    assert all(gram is factors[key] for key, gram in solved)


def test_a_shifted_gram_matrix_that_is_not_positive_grows_lambda(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    lams, errors = [], []

    def indefinite_at_lam0(J):
        # smallest eigenvalue moved to -0.05, so w + lam = 0 at the first lam
        gram = gram_eigen(J)
        return gram._replace(w=gram.w - gram.w[0] - 0.05)

    def recording_solve(J, lam, rhs, gram=None):
        lams.append(lam)
        try:
            return direct_solve(J, lam, rhs, gram)
        except NumericalError as exc:
            errors.append(str(exc))
            raise

    monkeypatch.setattr(mlm, "gram_eigen", indefinite_at_lam0)
    monkeypatch.setattr(mlm, "direct_solve", recording_solve)
    monkeypatch.setattr(mlm, "MAX_COARSE_ITER", 2)
    step, pred = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), FlopCounter(), math.inf)
    assert "not positive definite" in errors[0]
    assert lams == [0.05, lm.GAMMA3 * 0.05]
    assert pred == 0.0 and not step.any()


def test_a_coarse_run_that_can_no_longer_pass_ends_at_its_first_accepted_step(rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    # seven fine steps leave a fine loss below ETA1 times the first coarse prediction
    x = lm_solve(system, x0, LmConfig(max_outer_iter=7), FlopCounter(), None).final_params
    _, f_fine = lm.evaluate_loss(system, x)
    model = coarse_model_at(system, x, ops)
    solves = []

    def counting_solve(J, lam, rhs, gram):
        solves.append(lam)
        return direct_solve(J, lam, rhs, gram)

    monkeypatch.setattr(mlm, "direct_solve", counting_solve)
    cfg = LmConfig(epsilon=1e-10)
    step, pred = coarse_cycle(model, 0.05, cfg, FlopCounter(), f_fine)
    # one solve and a positive prediction: its step was accepted, and the run ended there
    assert len(solves) == 1 and pred > 0
    assert not step.any() and f_fine / pred < lm.ETA1

    solves.clear()
    step, full_pred = coarse_cycle(model, 0.05, cfg, FlopCounter(), math.inf)
    # a larger prediction: the full run accepted steps past its first
    assert len(solves) > 1 and full_pred > pred
    # the step of the full run fails the fine acceptance test, as the bound says it must
    _, f_trial = lm.evaluate_loss(system, x + apply_blockwise(ops.prolong, step, FlopCounter()))
    assert (f_fine - f_trial) / full_pred < lm.ETA1


def test_pred_positive_when_step_accepted(rng):
    # a nonzero coarse step is made of accepted inner steps, so its prediction is positive
    system = network_system(r=10)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    step, pred = coarse_cycle(model, 0.05, LmConfig(epsilon=1e-6), FlopCounter(), math.inf)
    assert step.any()
    assert pred > 0


def test_coarse_cycle_charges_the_gradient_at_each_coarse_jacobian_and_nothing_per_solve(
        rng, monkeypatch):
    system = network_system(nu=3, r=12)
    x = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x), system.arch)
    model = coarse_model_at(system, x, ops)
    shapes, solves = [], []  # the shape of every coarse Jacobian the cycle evaluates; its solves
    real_jacobian = ResidualSystem.jacobian

    def recording_jacobian(self, p):
        J = real_jacobian(self, p)
        shapes.append(J.shape)
        return J

    def counting_solve(*args):
        solves.append(None)
        return direct_solve(*args)

    monkeypatch.setattr(ResidualSystem, "jacobian", recording_jacobian)
    monkeypatch.setattr(mlm, "direct_solve", counting_solve)
    counter = FlopCounter()
    coarse_cycle(model, 0.05, LmConfig(epsilon=1e-10), counter, math.inf)
    assert shapes and len(solves) > len(shapes)  # more solves than Jacobians evaluated
    assert counter.matvec_flops == sum(2 * m * n_c for m, n_c in shapes)


# -- full driver --------------------------------------------------------------------


def test_identity_ops_converge_on_linear_surrogate(rng):
    A = rng.normal(size=(20, 13))
    c = rng.normal(size=20)
    system = LinearLeastSquares(A, c)
    ops = identity_ops(4)  # 3*4+1 = 13
    report = mlm_solve(system, np.zeros(13), LmConfig(epsilon=1e-8), ops, FlopCounter(), None)
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
    report = mlm_solve(
        system, x0, LmConfig(epsilon=1e-5, max_outer_iter=200), ops, FlopCounter(), None
    )
    assert report.coarse_steps > 1
    assert len(built) == 1 and built[0] is ops


def test_fine_branch_when_go_down_impossible(rng, no_coarse_descents):
    # no restricted gradient passes the descent test: every iteration must stay fine
    system = network_system(nu=3, r=8)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    stream = io.StringIO()
    cfg = LmConfig(epsilon=1e-3, max_outer_iter=40)
    report = mlm_solve(system, x0, cfg, ops, FlopCounter(), stream)
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
        system, x0, LmConfig(epsilon=1e-5, max_outer_iter=200), ops, FlopCounter(), stream
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
    cfg = LmConfig(epsilon=1e-5, max_outer_iter=200)
    report = mlm_solve(system, x0, cfg, ops, FlopCounter(), None)
    # coarse_steps is read off the log: one entry per coarse model, accepted or not
    assert report.coarse_steps == len(report.coherence_residuals) > 0
    with pytest.raises(AttributeError):
        report.coarse_steps = 0
    lm_report = lm_solve(system, x0, cfg, FlopCounter(), None)
    assert lm_report.coarse_steps == 0 and lm_report.coherence_residuals == []
    for coherence, grad_norm in report.coherence_residuals:
        assert coherence <= 1e-10 * (1.0 + grad_norm)


def test_accepted_steps_strictly_decrease_loss(rng):
    system = network_system(nu=3, r=12)
    x0 = rng.uniform(-1, 1, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    report = mlm_solve(
        system, x0, LmConfig(epsilon=1e-5, max_outer_iter=300), ops, FlopCounter(), None
    )
    hist = np.asarray(report.loss_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert (np.diff(hist) < 0.0).sum() == report.accepted_steps


@pytest.mark.parametrize("solver", ["lm", "mlm"])
def test_inner_solver_breakdowns_are_rejected_fine_steps(rng, monkeypatch, no_coarse_descents,
                                                         solver):
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
        cfg = LmConfig(epsilon=1e-3, max_outer_iter=max_outer_iter)
        if solver == "lm":
            return lm_solve(system, x0, cfg, FlopCounter(), stream)
        return mlm_solve(system, x0, cfg, ops, FlopCounter(), stream)

    def rows_of(stream):
        return list(csv.DictReader(io.StringIO(stream.getvalue())))

    failing = 5
    stream = io.StringIO()
    report = solve(lambda call: call <= failing, 40, stream)
    rows = rows_of(stream)
    lam = lm.LAMBDA0
    for i, row in enumerate(rows[:failing], start=1):
        lam = lm.GAMMA3 * lam
        assert row["iteration"] == str(i)
        assert row["rho"] == "" and row["accepted"] == "0"
        assert row["lambda"] == f"{lam:.12g}"
        assert row.get("level", "fine") == "fine"
    assert rows[failing]["rho"] != ""
    assert report.loss_history[: failing + 1] == [report.loss_history[0]] * (failing + 1)
    rejected = report.iterations - report.accepted_steps
    assert rejected == sum(row["accepted"] == "0" for row in rows) >= failing

    # a success in between resets the count of consecutive breakdowns
    limit = lm._MAX_INNER_FAILURES
    stream = io.StringIO()
    report = solve(lambda call: call % limit != 0, 2 * limit + 10, stream)
    assert report.iterations == len(rows_of(stream)) == 2 * limit + 10

    # the limit-th consecutive breakdown propagates; the earlier ones are traced
    stream = io.StringIO()
    with pytest.raises(NumericalError, match="injected breakdown"):
        solve(lambda call: True, 2 * limit, stream)
    assert len(calls) == limit
    assert len(rows_of(stream)) == limit - 1


# -- work done once per iterate ---------------------------------------------------------

# (problem, nu, r, seed, epsilon): runs with both repeated iterates and early-ended attempts
DESK_RUNS = [("poisson1d", 3, 24, 1, 1e-3), ("helmholtz1d", 5, 128, 1, 1e-4)]


def solve_without_reuse(system, x0, cfg, ops, counter, trace):
    """`mlm_solve` with a coarse step that runs the descent test, builds the model
    and runs the whole coarse cycle at every offer."""
    kappa = effective_kappa(ops)
    coarse = system.coarsen(ops)
    coherence_log = []

    def coarse_step(x, f, g, grad_norm, lam):
        restricted = go_down(g, grad_norm, ops, kappa, cfg.epsilon, counter)
        if restricted is None:
            return None
        model = build_coarse_model(coarse, x, ops, restricted, counter)
        coherence_log.append((model.coherence_residual, grad_norm))
        step, pred = coarse_cycle(model, lam, cfg, counter, math.inf)
        if step.any():
            return apply_blockwise(ops.prolong, step, counter), pred
        return None, pred

    report = lm.minimize(system, x0, cfg, counter, trace, coarse_step)
    report.coherence_residuals = coherence_log
    return report


def desk_run(solve, problem, nu, r, seed, epsilon):
    """The report and trace rows of `solve` from the seed's starting point."""
    system = bench.Campaign(name="desk", problem=problem, nu=nu, r=r, seeds=(seed,)).system
    x0 = bench.initial_guess(seed, system.n)
    ops = build_transfer_operators(system.jacobian(x0), system.arch)
    stream = io.StringIO()
    report = solve(system, x0, LmConfig(epsilon=epsilon), ops, FlopCounter(), stream)
    return report, list(csv.DictReader(io.StringIO(stream.getvalue())))


def iterates_offered(report, rows):
    """The distinct iterates offered a coarse step, and those a coarse model was
    built at, each named by its loss: only an accepted step, which lowers the
    loss, changes the iterate."""
    loss = report.loss_history  # loss[i - 1]: the loss at the iterate of iteration i
    offered = {loss[i - 1] for i in range(2, len(rows) + 1) if rows[i - 2]["level"] == "fine"}
    attempted = {loss[i - 1] for i in range(1, len(rows) + 1) if rows[i - 1]["level"] == "coarse"}
    return offered, attempted


@pytest.mark.parametrize("run", DESK_RUNS, ids=[f"{run[0]}-r{run[2]}" for run in DESK_RUNS])
def test_reuse_and_early_exit_keep_the_iterates_and_save_flops(run):
    old, old_rows = desk_run(solve_without_reuse, *run)
    new, new_rows = desk_run(mlm_solve, *run)
    assert new.iterations == old.iterations and new.accepted_steps == old.accepted_steps
    assert new.loss_history == old.loss_history
    assert new.coherence_residuals == old.coherence_residuals
    assert np.array_equal(new.final_params, old.final_params)
    assert new.matvec_flops < old.matvec_flops
    ended_early = 0
    for old_row, new_row in zip(old_rows, new_rows, strict=True):
        differ = {key for key in old_row if old_row[key] != new_row[key]}
        if "rho" in differ:
            # an early-ended attempt: no step, where the full run's step was rejected
            assert new_row["level"] == "coarse" and new_row["rho"] == ""
            assert float(old_row["rho"]) < lm.ETA1 and old_row["accepted"] == "0"
            ended_early += 1
        assert differ <= {"rho", "cum_matvec_flops"}
    _, attempted = iterates_offered(new, new_rows)
    assert ended_early > 0 and len(attempted) < new.coarse_steps  # both savings occur


@pytest.mark.parametrize("run", DESK_RUNS, ids=[f"{run[0]}-r{run[2]}" for run in DESK_RUNS])
def test_a_repeated_iterate_reuses_its_descent_test_model_and_factor(run, monkeypatch):
    descent_tests, models, factored = [], [], []
    real_go_down, real_build, real_gram_eigen = go_down, build_coarse_model, gram_eigen

    def counting_go_down(*args):
        descent_tests.append(None)
        return real_go_down(*args)

    def recording_build(*args):
        models.append(real_build(*args))
        return models[-1]

    def recording_gram_eigen(J):
        factored.append(J)
        return real_gram_eigen(J)

    monkeypatch.setattr(mlm, "go_down", counting_go_down)
    monkeypatch.setattr(mlm, "build_coarse_model", recording_build)
    monkeypatch.setattr(mlm, "gram_eigen", recording_gram_eigen)
    report, rows = desk_run(mlm_solve, *run)
    offered, attempted = iterates_offered(report, rows)
    assert len(attempted) < report.coarse_steps  # some iterate saw several attempts
    assert len(descent_tests) == len(offered)
    assert len(models) == len(attempted)
    # each model's own Jacobian is factored once, however many attempts it serves
    assert sum(any(J is model._jacobian0 for model in models) for J in factored) == len(models)
