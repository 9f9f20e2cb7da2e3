import math

import numpy as np
import pytest
import scipy.linalg

from mlmnet import linsolve
from mlmnet.linsolve import (
    FlopCounter,
    GramEigen,
    InnerSolveResult,
    NumericalError,
    _shifted_gram_norm,
    cgls_truncated,
    direct_solve,
    gram_eigen,
    predicted_reduction,
)
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem, poisson_1d

from conftest import call_on_one_blas_thread


def verify_stopping(J, g, lam, result, theta):
    """Recompute the inner stopping inequality from scratch."""
    s = result.step
    return np.linalg.norm(J.T @ (J @ s) + lam * s + g) <= theta * float(s @ s)


def test_identity_system(monkeypatch):
    # (I + I) s = e1  =>  s = e1/2
    monkeypatch.setattr(linsolve, "THETA", 1e-12)
    J = np.eye(4)
    g = -np.eye(4)[:, 0]
    res = cgls_truncated(J, g, 1.0, FlopCounter())
    assert np.allclose(res.step, np.array([0.5, 0, 0, 0]), atol=1e-10)
    assert res.satisfied


def test_zero_rhs_returns_zero_without_iterating():
    res = cgls_truncated(np.eye(3), np.zeros(3), 0.5, FlopCounter())
    assert res.iterations == 0
    assert res.satisfied
    assert np.all(res.step == 0.0)


def test_agrees_with_dense_normal_equations(rng, monkeypatch):
    J = rng.normal(size=(20, 10))
    F = rng.normal(size=20)
    lam = 0.3
    theta = 1e-10  # tight tolerance: agreement should be near machine level
    monkeypatch.setattr(linsolve, "THETA", theta)
    res = cgls_truncated(J, J.T @ F, lam, FlopCounter())
    exact = np.linalg.solve(J.T @ J + lam * np.eye(10), -J.T @ F)
    smallest_eig = np.linalg.eigvalsh(J.T @ J + lam * np.eye(10))[0]
    implied = theta * float(res.step @ res.step) / smallest_eig
    assert np.linalg.norm(res.step - exact) <= max(implied, 1e-8 * np.linalg.norm(exact))


def test_satisfied_flag_reverifies(rng):
    for trial in range(10):
        m, n = 15, 8
        J = rng.normal(size=(m, n))
        g = J.T @ rng.normal(size=m)
        if trial % 2:
            g = g + rng.normal(size=n)  # a linear correction
        res = cgls_truncated(J, g, 0.05, FlopCounter())
        if res.satisfied:
            assert verify_stopping(J, g, 0.05, res, 0.1)


def test_correction_shifts_right_hand_side(rng, monkeypatch):
    monkeypatch.setattr(linsolve, "THETA", 1e-11)
    J = rng.normal(size=(12, 6))
    F = rng.normal(size=12)
    corr = rng.normal(size=6)
    res = cgls_truncated(J, J.T @ F + corr, 0.2, FlopCounter())
    exact = np.linalg.solve(J.T @ J + 0.2 * np.eye(6), -(J.T @ F + corr))
    assert np.allclose(res.step, exact, atol=1e-7)


def test_invalid_lambda_rejected():
    with pytest.raises(ValueError):
        cgls_truncated(np.eye(2), np.ones(2), 0.0, FlopCounter())


def test_non_finite_inputs_raise():
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="non-finite right-hand side"):
            cgls_truncated(np.eye(3), np.array([1.0, bad, 0.0]), 1.0, FlopCounter())


def test_flop_count_deterministic_and_positive(rng):
    J = rng.normal(size=(9, 5))
    g = J.T @ rng.normal(size=9)
    counts = []
    for _ in range(2):
        counter = FlopCounter()
        cgls_truncated(J, g, 0.1, counter)
        counts.append(counter.matvec_flops)
    assert counts[0] == counts[1] > 0


def test_flop_count_formula(rng, monkeypatch):
    # one CG iteration costs two products with J; the caller charged the gradient
    monkeypatch.setattr(linsolve, "THETA", 1e-12)
    J = np.eye(4)
    counter = FlopCounter()
    res = cgls_truncated(J, -np.ones(4), 1.0, counter)
    m, n = J.shape
    # per-iteration operator (4mn) + one verification (4mn)
    assert counter.matvec_flops == res.iterations * 4 * m * n + 4 * m * n


def test_flop_charges_add_up_per_call(rng, monkeypatch):
    # record each call as perfbench/spans.py sees it: (counter, rows, cols), positionally
    calls = []
    add_matvec = FlopCounter.add_matvec

    def recording_add_matvec(counter, rows, cols):
        calls.append((rows, cols))
        add_matvec(counter, rows, cols)

    monkeypatch.setattr(FlopCounter, "add_matvec", recording_add_matvec)
    monkeypatch.setattr(linsolve, "THETA", 1e-12)
    J = rng.normal(size=(9, 5))
    counter = FlopCounter()
    res = cgls_truncated(J, J.T @ rng.normal(size=9), 0.1, counter)
    assert res.iterations > 1
    assert sum(2 * rows * cols for rows, cols in calls) == counter.matvec_flops
    # the loop's and the verification's products in one charge
    assert len(calls) == 1


def breakdown_system(entry):
    """A system whose CG curvature overflows mid-solve.

    Five columns carry the diagonal 1..5; a sixth is scaled by 1e100 and
    its right-hand side entry set to `entry`; that direction's share of
    the residual grows each iteration until p^T (J^T J + lam I) p is no
    longer finite.  Zero rows and columns, which CG never enters, pad J to
    11 x 10, so the cap min(n, m + 1) = 10 lets the solve reach iteration 10.
    """
    J = np.zeros((11, 10))
    J[np.arange(5), np.arange(5)] = np.arange(1.0, 6)
    J[5, 5] = 1e100
    F = np.zeros(11)
    F[:5] = -1.0
    F[5] = -entry / 1e100
    return J, F


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("entry, k", [
    pytest.param(1e300, 1, id="1e+300-1-grad-given"),
    pytest.param(1e-100, 2, id="1e-100-2-grad-given"),
    pytest.param(1e-200, 10, id="1e-200-10-grad-given"),
])
def test_breakdown_charges_the_products_made_before_it(entry, k, monkeypatch):
    monkeypatch.setattr(linsolve, "THETA", 1e-300)
    J, F = breakdown_system(entry)
    m, n = J.shape
    counter = FlopCounter()
    with pytest.raises(NumericalError, match="positive definiteness"):
        cgls_truncated(J, J.T @ F, 1e-3, counter)
    # k iterations charged: k is the first iteration whose curvature is not finite
    assert counter.matvec_flops == k * 4 * m * n


def test_predicted_reduction_positive(rng):
    for _ in range(10):
        J = rng.normal(size=(10, 6))
        F = rng.normal(size=10)
        g = J.T @ F
        res = cgls_truncated(J, g, 0.5, FlopCounter())
        if res.step.any():
            pred = predicted_reduction(res.step, -g, res.linear_residual, 0.5)
            assert pred > 0
            # cross-check against the explicit Taylor-model decrease
            s = res.step
            explicit = -(g @ s + 0.5 * s @ (J.T @ (J @ s)))
            assert pred == pytest.approx(explicit, rel=1e-8, abs=1e-12)


def graded_wide_system(rng):
    """Graded columns: at THETA = 1e-12, CG stops at its cap m + 1 = 42, short of the bound."""
    return rng.normal(size=(41, 300)) * np.logspace(0, -6, 300), rng.normal(size=41)


def same_result(a, b):
    return (
        np.array_equal(a.step, b.step)
        and np.array_equal(a.linear_residual, b.linear_residual)
        and (a.iterations, a.satisfied) == (b.iterations, b.satisfied)
    )


def reference_cgls(J, g, lam, theta, counter, max_iter=None):
    """The conjugate-gradient loop before its per-iteration calls were trimmed: the reference."""
    m, n = J.shape
    rhs = -g
    max_iter = min(n, m + 1) if max_iter is None else max_iter

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
                return InnerSolveResult(s, iteration, True, true_residual)
            if rs_new == 0.0:
                return InnerSolveResult(s, iteration, False, true_residual)
        p = r + (rs_new / rs) * p
        rs = rs_new
    true_residual = rhs - apply_operator(s)
    satisfied = float(np.linalg.norm(true_residual)) <= theta * float(s @ s)
    return InnerSolveResult(s, max_iter, satisfied, true_residual)


def cgls_mismatches():
    """Cases where cgls_truncated's result or flops differ from the reference loop."""
    rng = np.random.default_rng(11)
    system = ResidualSystem(poisson_1d(nu=10), NetworkArch(256, 1))
    x = rng.uniform(-1, 1, system.n)
    systems = [
        ("network", system.jacobian(x), system.residual(x)),
        ("wide", *graded_wide_system(rng)),
        ("tall", rng.normal(size=(30, 12)), rng.normal(size=30)),
    ]
    mismatches = []
    default_theta = linsolve.THETA
    try:
        for name, J, F in systems:
            n = J.shape[1]
            for lam in (1e-6, 0.1):
                for theta in (0.1, 1e-12):
                    linsolve.THETA = theta
                    for corr in (None, rng.normal(size=n) * 1e-3):
                        g = J.T @ F if corr is None else J.T @ F + corr
                        counters = FlopCounter(), FlopCounter()
                        got = cgls_truncated(J, g, lam, counters[0])
                        ref = reference_cgls(J, g, lam, theta, counters[1])
                        same_flops = counters[0].matvec_flops == counters[1].matvec_flops
                        if not (same_result(got, ref) and same_flops):
                            mismatches.append((name, lam, theta, corr is None))
    finally:
        linsolve.THETA = default_theta
    return mismatches


def test_cgls_is_bit_identical_to_the_reference_loop():
    assert call_on_one_blas_thread("test_linsolve", "cgls_mismatches") == "[]"


@pytest.mark.parametrize("lam", [1e-6, 0.1])
def test_default_cap_stops_a_wide_solve_at_m_plus_one(rng, lam, monkeypatch):
    monkeypatch.setattr(linsolve, "THETA", 1e-12)
    J, F = graded_wide_system(rng)
    m, n = J.shape
    counter = FlopCounter()
    res = cgls_truncated(J, J.T @ F, lam, counter)
    assert res.iterations == m + 1 < n
    assert not res.satisfied
    # per-iteration operator (4mn) + one verification (4mn)
    assert counter.matvec_flops == (m + 1) * 4 * m * n + 4 * m * n


def test_default_cap_of_a_tall_solve_is_n(rng, monkeypatch):
    monkeypatch.setattr(linsolve, "THETA", 1e-300)
    J = rng.normal(size=(30, 12))
    g = J.T @ rng.normal(size=30)
    # a bound no iterate meets: the solve runs to its cap
    res = cgls_truncated(J, g, 0.1, FlopCounter())
    assert res.iterations == 12
    assert not res.satisfied


def test_default_cap_leaves_an_early_stop_unchanged(rng):
    J = rng.normal(size=(20, 60))
    g = J.T @ rng.normal(size=20)
    res = cgls_truncated(J, g, 1.0, FlopCounter())
    assert res.satisfied and res.iterations < 21
    # the reference loop run to n = 60 iterations stops at the same step
    assert same_result(res, reference_cgls(J, g, 1.0, 0.1, FlopCounter(), max_iter=60))


def test_theta_is_read_at_call_time(rng, monkeypatch):
    J = rng.normal(size=(20, 60))
    g = J.T @ rng.normal(size=20)
    loose = cgls_truncated(J, g, 1.0, FlopCounter())
    monkeypatch.setattr(linsolve, "THETA", 1e-12)
    tight = cgls_truncated(J, g, 1.0, FlopCounter())
    assert loose.satisfied and tight.iterations > loose.iterations
    assert np.linalg.norm(tight.linear_residual) < np.linalg.norm(loose.linear_residual)


def test_direct_solve_identity():
    # (I^T I + 1 I) s = e1  =>  s = e1/2
    J = np.eye(3)
    s, residual = direct_solve(J, 1.0, J[:, 0], gram_eigen(J))
    assert np.allclose(s, 0.5 * J[:, 0])
    assert np.allclose(residual, 0.0, rtol=0, atol=1e-15)


def test_direct_solve_diagonal():
    # J^T J + I = diag(2, 4)
    J = np.diag([1.0, np.sqrt(3.0)])
    s, residual = direct_solve(J, 1.0, np.array([2.0, 4.0]), gram_eigen(J))
    assert np.allclose(s, [1.0, 1.0])
    assert np.allclose(residual, 0.0, rtol=0, atol=1e-14)


def test_direct_solve_agrees_with_cgls(rng, monkeypatch):
    J = rng.normal(size=(5, 8))
    rhs = rng.normal(size=8)
    s_direct, _ = direct_solve(J, 0.5, rhs, gram_eigen(J))
    # same system through the iterative path, rhs entering as a pure correction
    monkeypatch.setattr(linsolve, "THETA", 1e-14)
    res = cgls_truncated(J, -rhs, 0.5, FlopCounter())
    B = J.T @ J + 0.5 * np.eye(8)
    assert np.linalg.norm(B @ s_direct - rhs) <= 1e-10 * (np.linalg.norm(B) * np.linalg.norm(s_direct) + np.linalg.norm(rhs))
    assert np.allclose(s_direct, res.step, atol=1e-8)


@pytest.mark.parametrize("lam", [1e-6, 0.05, 10.0])
@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_agrees_with_dense_solve(rng, shape, lam):
    J = rng.normal(size=shape)
    n = shape[1]
    rhs = rng.normal(size=n)
    s, _ = direct_solve(J, lam, rhs, gram_eigen(J))
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


@pytest.mark.parametrize("lam", [1e-6, 0.05, 10.0])
@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_returns_its_linear_residual(rng, shape, lam):
    J = rng.normal(size=shape)
    n = shape[1]
    rhs = rng.normal(size=n)
    B = J.T @ J + lam * np.eye(n)
    # the factor of J itself, and of a J off by 1e-11, whose step leaves a residual far
    # above rounding yet within the bound, so that its sign and size are tested too
    for gram in (gram_eigen(J), gram_eigen(J * (1 + 1e-11))):
        s, residual = direct_solve(J, lam, rhs, gram)
        exact = rhs - B @ s
        bound = 1e-10 * (np.linalg.norm(B) * np.linalg.norm(s) + np.linalg.norm(rhs))
        assert np.linalg.norm(residual - exact) <= bound
        # the model decrease -(g.s + 0.5 ||J s||^2), g = -rhs, from the residual, no product
        Js = J @ s
        direct = -(float(-rhs @ s) + 0.5 * float(Js @ Js))
        assert predicted_reduction(s, rhs, residual, lam) == pytest.approx(direct, rel=1e-12)
    assert np.linalg.norm(residual - exact) <= 1e-3 * np.linalg.norm(residual)


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_shifted_gram_norm_is_the_frobenius_norm(rng, shape):
    J = rng.normal(size=shape)
    n = shape[1]
    for lam in (1e-6, 0.05, 10.0):
        dense = np.linalg.norm(J.T @ J + lam * np.eye(n))
        for G in (J @ J.T, J.T @ J):
            gram = GramEigen(None, None, np.linalg.norm(G) ** 2, np.trace(G))
            assert _shifted_gram_norm(gram, lam, n) == pytest.approx(dense, rel=1e-13)


def _formed_gram_norm(G, lam, n):
    # the bound's matrix norm as formed from G at every solve
    return float(np.sqrt(np.linalg.norm(G) ** 2 + 2.0 * lam * np.trace(G) + n * lam**2))


@pytest.mark.parametrize("shape", [(12, 30), (30, 12), (25, 2049)], ids=["kernel", "primal", "wide"])
def test_the_factor_keeps_the_bound_of_its_gram_matrix_bit_for_bit(rng, shape):
    J = rng.normal(size=shape)
    G = J @ J.T if shape[0] < shape[1] else J.T @ J
    gram = gram_eigen(J)
    for lam in (1e-12, 1e-6, 0.05, 10.0, 1e8):
        assert _shifted_gram_norm(gram, lam, shape[1]) == _formed_gram_norm(G, lam, shape[1])


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_bound_uses_the_vector_norms_of_numpy(rng, shape):
    # the bound's vector norms are sqrt(x . x), the very bits of np.linalg.norm on 1-D floats
    J = rng.normal(size=shape)
    rhs = rng.normal(size=shape[1])
    s, residual = direct_solve(J, 0.05, rhs, gram_eigen(J))
    for x in (s, rhs, residual, rng.normal(size=2049) * 1e150, np.zeros(3)):
        assert math.sqrt(x.dot(x)) == float(np.linalg.norm(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["kernel", "primal"])
def test_direct_solve_rejects_non_finite_jacobian(shape, bad):
    J = np.ones(shape)
    J[1, 2] = bad
    with pytest.raises(NumericalError):  # raised by the factor the solve needs
        direct_solve(J, 0.1, np.ones(shape[1]), gram_eigen(J))


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_direct_solve_rejects_non_positive_lambda(lam):
    with pytest.raises(NumericalError):
        direct_solve(np.eye(2, 3), lam, np.ones(3), gram_eigen(np.eye(2, 3)))


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_rejects_a_solution_past_the_backward_error_bound(rng, shape):
    J = rng.normal(size=shape)
    rhs = rng.normal(size=shape[1])
    direct_solve(J, 0.05, rhs, gram_eigen(J))  # the unperturbed solve meets the bound
    with pytest.raises(NumericalError, match="backward-error bound"):
        direct_solve(J, 0.05, rhs, gram_eigen(J * (1 + 1e-6)))


@pytest.mark.parametrize("shift", [1.0, 2.0])
@pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["kernel", "primal"])
def test_direct_solve_rejects_a_shifted_gram_matrix_that_is_not_positive(rng, shape, shift):
    J = rng.normal(size=shape)
    gram = gram_eigen(J)
    # the smallest shifted eigenvalue w + lam becomes 0 (shift 1) or -lam (shift 2)
    gram = gram._replace(w=gram.w - gram.w[0] - shift * 0.05)
    with pytest.raises(NumericalError, match="not positive definite"):
        direct_solve(J, 0.05, rng.normal(size=shape[1]), gram)
