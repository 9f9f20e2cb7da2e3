import numpy as np
import pytest
import scipy.linalg

from mlmnet.activations import Activation
from mlmnet.linsolve import (
    FlopCounter,
    InnerSolveResult,
    NumericalError,
    _shifted_gram_norm,
    cgls_truncated,
    direct_solve,
    predicted_reduction,
)
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem, poisson_1d

from conftest import call_on_one_blas_thread


def verify_stopping(J, F, lam, result, theta, corr=None):
    """Recompute the inner stopping inequality from scratch."""
    s = result.step
    lhs = J.T @ (J @ s) + lam * s + J.T @ F
    if corr is not None:
        lhs = lhs + corr
    return np.linalg.norm(lhs) <= theta * float(s @ s)


def test_identity_system():
    # (I + I) s = e1  =>  s = e1/2
    J = np.eye(4)
    F = -np.eye(4)[:, 0]
    res = cgls_truncated(J, F, lam=1.0, theta=1e-12)
    assert np.allclose(res.step, np.array([0.5, 0, 0, 0]), atol=1e-10)
    assert res.satisfied


def test_zero_rhs_returns_zero_without_iterating():
    res = cgls_truncated(np.eye(3), np.zeros(3), lam=0.5)
    assert res.iterations == 0
    assert res.satisfied
    assert np.all(res.step == 0.0)


def test_agrees_with_dense_normal_equations(rng):
    J = rng.normal(size=(20, 10))
    F = rng.normal(size=20)
    lam = 0.3
    theta = 1e-10  # tight tolerance: agreement should be near machine level
    res = cgls_truncated(J, F, lam, theta=theta, max_iter=200)
    exact = np.linalg.solve(J.T @ J + lam * np.eye(10), -J.T @ F)
    smallest_eig = np.linalg.eigvalsh(J.T @ J + lam * np.eye(10))[0]
    implied = theta * float(res.step @ res.step) / smallest_eig
    assert np.linalg.norm(res.step - exact) <= max(implied, 1e-8 * np.linalg.norm(exact))


def test_satisfied_flag_reverifies(rng):
    for trial in range(10):
        m, n = 15, 8
        J = rng.normal(size=(m, n))
        F = rng.normal(size=m)
        corr = rng.normal(size=n) if trial % 2 else None
        res = cgls_truncated(J, F, lam=0.05, corr=corr, theta=0.1, max_iter=n)
        if res.satisfied:
            assert verify_stopping(J, F, 0.05, res, 0.1, corr)


def test_correction_shifts_right_hand_side(rng):
    J = rng.normal(size=(12, 6))
    F = rng.normal(size=12)
    corr = rng.normal(size=6)
    res = cgls_truncated(J, F, lam=0.2, corr=corr, theta=1e-11, max_iter=100)
    exact = np.linalg.solve(J.T @ J + 0.2 * np.eye(6), -(J.T @ F + corr))
    assert np.allclose(res.step, exact, atol=1e-7)


def test_invalid_lambda_rejected():
    with pytest.raises(ValueError):
        cgls_truncated(np.eye(2), np.ones(2), lam=0.0)


def test_non_finite_inputs_raise():
    J = np.eye(3)
    F = np.array([1.0, np.nan, 0.0])
    with pytest.raises(NumericalError):
        cgls_truncated(J, F, lam=1.0)


def test_flop_count_deterministic_and_positive(rng):
    J = rng.normal(size=(9, 5))
    F = rng.normal(size=9)
    counts = []
    for _ in range(2):
        counter = FlopCounter()
        cgls_truncated(J, F, lam=0.1, theta=0.1, counter=counter)
        counts.append(counter.matvec_flops)
    assert counts[0] == counts[1] > 0


def test_flop_count_formula(rng):
    # one CG iteration costs two products with J plus the gradient build
    J = np.eye(4)
    F = -np.ones(4)
    counter = FlopCounter()
    res = cgls_truncated(J, F, lam=1.0, theta=1e-12, counter=counter)
    m, n = J.shape
    # gradient (2mn) + per-iteration operator (4mn) + one verification (4mn)
    assert counter.matvec_flops == 2 * m * n + res.iterations * 4 * m * n + 4 * m * n


def test_flop_charges_add_up_per_call(rng, monkeypatch):
    # record each call as perfbench/spans.py sees it: (counter, rows, cols), positionally
    calls = []
    add_matvec = FlopCounter.add_matvec

    def recording_add_matvec(counter, rows, cols):
        calls.append((rows, cols))
        add_matvec(counter, rows, cols)

    monkeypatch.setattr(FlopCounter, "add_matvec", recording_add_matvec)
    J = rng.normal(size=(9, 5))
    counter = FlopCounter()
    res = cgls_truncated(J, rng.normal(size=9), lam=0.1, theta=1e-12, counter=counter)
    assert res.iterations > 1
    assert sum(2 * rows * cols for rows, cols in calls) == counter.matvec_flops
    # gradient, all loop products in one charge, and the two of the verification
    assert len(calls) == 4


def breakdown_system(entry):
    """A system whose CG curvature overflows mid-solve.

    One column is scaled by 1e100 and its right-hand side entry set to
    `entry`; that direction's share of the residual grows each iteration
    until p^T (J^T J + lam I) p is no longer finite.
    """
    m, n = 7, 6
    J = np.zeros((m, n))
    J[np.arange(n - 1), np.arange(n - 1)] = np.arange(1.0, n)
    J[n - 1, n - 1] = 1e100
    F = -np.ones(m)
    F[n - 1] = -entry / 1e100
    F[n] = 0.0
    return J, F


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("with_grad", [False, True], ids=["grad-built", "grad-given"])
@pytest.mark.parametrize("entry, k", [(1e300, 1), (1e-100, 2), (1e-200, 10)])
def test_breakdown_charges_the_products_made_before_it(entry, k, with_grad):
    J, F = breakdown_system(entry)
    m, n = J.shape
    grad = J.T @ F if with_grad else None
    # k is the first iteration whose curvature is not finite
    cgls_truncated(J, F, lam=1e-3, theta=1e-300, max_iter=k - 1, grad=grad)
    counter = FlopCounter()
    with pytest.raises(NumericalError, match="positive definiteness"):
        cgls_truncated(J, F, lam=1e-3, theta=1e-300, max_iter=k, counter=counter, grad=grad)
    assert counter.matvec_flops == k * 4 * m * n + (0 if with_grad else 2 * m * n)


def test_predicted_reduction_positive(rng):
    for _ in range(10):
        J = rng.normal(size=(10, 6))
        F = rng.normal(size=10)
        g = J.T @ F
        res = cgls_truncated(J, F, lam=0.5, theta=0.1, grad=g)
        if res.step.any():
            pred = predicted_reduction(res.step, -g, res.linear_residual, 0.5)
            assert pred > 0
            # cross-check against the explicit Taylor-model decrease
            s = res.step
            explicit = -(g @ s + 0.5 * s @ (J.T @ (J @ s)))
            assert pred == pytest.approx(explicit, rel=1e-8, abs=1e-12)


def reference_cgls(J, F, lam, corr=None, theta=0.1, max_iter=None, counter=None, grad=None):
    """The conjugate-gradient loop before its per-iteration calls were trimmed: the reference."""
    m, n = J.shape
    if grad is None:
        grad = J.T @ F
        counter.add_matvec(m, n)
    rhs = -grad if corr is None else -(grad + corr)
    max_iter = n if max_iter is None else max_iter

    def apply_operator(x):
        y = J.T @ (J @ x) + lam * x
        counter.add_matvec(m, n)
        counter.add_matvec(n, m)
        return y

    s = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    for iteration in range(1, max_iter + 1):
        mp = apply_operator(p)
        alpha = rs / float(p @ mp)
        s += alpha * p
        r -= alpha * mp
        ss = float(s @ s)
        rs_new = float(r @ r)
        bound = theta * ss
        if rs_new == 0.0 or np.sqrt(rs_new) <= bound:
            true_residual = rhs - apply_operator(s)
            true_norm = float(np.linalg.norm(true_residual))
            if true_norm <= bound:
                return InnerSolveResult(s, true_norm, iteration, True, true_residual)
            if rs_new == 0.0:
                return InnerSolveResult(s, true_norm, iteration, False, true_residual)
        p = r + (rs_new / rs) * p
        rs = rs_new
    true_residual = rhs - apply_operator(s)
    true_norm = float(np.linalg.norm(true_residual))
    satisfied = true_norm <= theta * float(s @ s)
    return InnerSolveResult(s, true_norm, max_iter, satisfied, true_residual)


def cgls_mismatches():
    """Cases where cgls_truncated's result or flops differ from the reference loop."""
    rng = np.random.default_rng(11)
    system = ResidualSystem(poisson_1d(nu=10), NetworkArch(256, 1, Activation("sigmoid")))
    x = rng.uniform(-1, 1, system.n)
    systems = [
        ("network", system.jacobian(x), system.residual(x)),
        # graded columns: at theta = 1e-12 the iteration runs past m + 1 = 42 steps
        ("wide", rng.normal(size=(41, 300)) * np.logspace(0, -6, 300), rng.normal(size=41)),
        ("tall", rng.normal(size=(30, 12)), rng.normal(size=30)),
    ]
    mismatches = []
    for name, J, F in systems:
        n = J.shape[1]
        for lam in (1e-6, 0.1):
            for theta in (0.1, 1e-12):
                for corr in (None, rng.normal(size=n) * 1e-3):
                    for max_iter, with_grad in ((None, False), (5, True)):
                        grad = J.T @ F if with_grad else None
                        counters = FlopCounter(), FlopCounter()
                        got = cgls_truncated(J, F, lam, corr, theta, max_iter, counters[0], grad)
                        ref = reference_cgls(J, F, lam, corr, theta, max_iter, counters[1], grad)
                        same = (
                            np.array_equal(got.step, ref.step)
                            and np.array_equal(got.linear_residual, ref.linear_residual)
                            and (got.iterations, got.satisfied, got.model_gradient_norm)
                            == (ref.iterations, ref.satisfied, ref.model_gradient_norm)
                            and counters[0].matvec_flops == counters[1].matvec_flops
                        )
                        if not same:
                            mismatches.append((name, lam, theta, corr is None, max_iter))
    return mismatches


def test_cgls_is_bit_identical_to_the_reference_loop():
    assert call_on_one_blas_thread("test_linsolve", "cgls_mismatches") == "[]"


def test_direct_solve_identity():
    # (I^T I + 1 I) s = e1  =>  s = e1/2
    assert np.allclose(direct_solve(np.eye(3), 1.0, np.eye(3)[:, 0]), 0.5 * np.eye(3)[:, 0])


def test_direct_solve_diagonal():
    # J^T J + I = diag(2, 4)
    s = direct_solve(np.diag([1.0, np.sqrt(3.0)]), 1.0, np.array([2.0, 4.0]))
    assert np.allclose(s, [1.0, 1.0])


def test_direct_solve_agrees_with_cgls(rng):
    J = rng.normal(size=(5, 8))
    rhs = rng.normal(size=8)
    s_direct = direct_solve(J, 0.5, rhs)
    # same system through the iterative path, rhs entering as the correction
    res = cgls_truncated(J, np.zeros(5), 0.5, corr=-rhs, theta=1e-14, max_iter=400)
    B = J.T @ J + 0.5 * np.eye(8)
    assert np.linalg.norm(B @ s_direct - rhs) <= 1e-10 * (np.linalg.norm(B) * np.linalg.norm(s_direct) + np.linalg.norm(rhs))
    assert np.allclose(s_direct, res.step, atol=1e-8)


@pytest.mark.parametrize("lam", [1e-6, 0.05, 10.0])
@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_agrees_with_dense_solve(rng, shape, lam):
    J = rng.normal(size=shape)
    n = shape[1]
    rhs = rng.normal(size=n)
    s = direct_solve(J, lam, rhs)
    # spectral solution, accurate to a few ulps whatever the conditioning
    _, sv, Vt = np.linalg.svd(J)
    d = np.zeros(n)
    d[: sv.size] = sv**2
    exact = Vt.T @ ((Vt @ rhs) / (d + lam))
    assert np.linalg.norm(s - exact) <= 1e-10 * np.linalg.norm(exact)
    # the dense n-by-n solve is itself only accurate to about cond(B) * eps,
    # 2e-8 for the kernel shape at lam = 1e-6
    B = J.T @ J + lam * np.eye(n)
    tol = max(1e-10, 10 * np.linalg.cond(B) * np.finfo(float).eps)
    assert np.linalg.norm(s - scipy.linalg.solve(B, rhs)) <= tol * np.linalg.norm(exact)


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_shifted_gram_norm_is_the_frobenius_norm(rng, shape):
    J = rng.normal(size=shape)
    n = shape[1]
    for lam in (1e-6, 0.05, 10.0):
        dense = np.linalg.norm(J.T @ J + lam * np.eye(n))
        for G in (J @ J.T, J.T @ J):
            assert _shifted_gram_norm(G, lam, n) == pytest.approx(dense, rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["kernel", "primal"])
def test_direct_solve_rejects_non_finite_jacobian(shape, bad):
    J = np.ones(shape)
    J[1, 2] = bad
    with pytest.raises(NumericalError):
        direct_solve(J, 0.1, np.ones(shape[1]))


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_direct_solve_rejects_non_positive_lambda(lam):
    with pytest.raises(NumericalError):
        direct_solve(np.eye(2, 3), lam, np.ones(3))
