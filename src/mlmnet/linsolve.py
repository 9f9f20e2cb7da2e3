"""Inner solvers for the regularized model minimization.

The fine-level systems (J^T J + lam I) s = -(J^T F + corr) are solved by a
truncated conjugate-gradient iteration on these shifted normal equations,
which applies the operator through two products with J per step and stops
once the model gradient is small against the squared step norm.
Coarse-level systems are solved exactly by a Cholesky factorization of the
smaller Gram matrix of J: the m-by-m J J^T + lam I (kernel form) when J
has fewer rows than columns.

Only genuine matrix-vector products are charged to the flop counter, at
2*rows*cols apiece; the direct solve, J products of its kernel form
included, is not matrix-vector work and is left out of the tally.  The
conjugate-gradient loop charges its products, 2mn + 2nm flops per
iteration, in one call when the solve ends (returns or raises); the
gradient J^T F and each re-verification of the true residual are charged
as they are made.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class NumericalError(RuntimeError):
    """Raised when a solve breaks down numerically (caller may raise lam)."""


@dataclass
class FlopCounter:
    """Accumulates flops spent in dense matrix-vector products."""

    matvec_flops: int = 0

    def add_matvec(self, rows, cols):
        self.matvec_flops += 2 * int(rows) * int(cols)


@dataclass
class InnerSolveResult:
    """Outcome of one inner model minimization."""

    step: np.ndarray
    model_gradient_norm: float
    iterations: int
    satisfied: bool
    # residual of the linear system at the returned step, rhs - (B+lam I)s;
    # lets the caller form the predicted model decrease without extra products
    linear_residual: np.ndarray = field(repr=False, default=None)


def predicted_reduction(step, rhs, linear_residual, lam):
    """Decrease of the (corrected) Taylor model along `step`.

    For the model g^T s + 0.5 s^T B s (with any linear correction folded
    into g, and rhs = -g for the inner system with matrix B + lam*I), the
    predicted reduction evaluates to

        0.5 * (s^T rhs + s^T residual + lam * ||s||^2)

    which is strictly positive for a nonzero conjugate-gradient or exact
    step.
    """
    return 0.5 * (step @ rhs + step @ linear_residual + lam * (step @ step))


def cgls_truncated(J, F, lam, corr=None, theta=0.1, max_iter=None, counter=None, grad=None):
    """Approximately solve (J^T J + lam I) s = -(J^T F + corr).

    Plain conjugate gradients on the shifted normal equations (not CGLS:
    the residual is kept in n-space), the operator applied via one product
    with J and one with J^T per iteration, written into preallocated
    vectors.  Iterations stop at the first step whose true system residual
    satisfies

        ||(J^T J + lam I) s + J^T F + corr|| <= theta * ||s||^2

    (the stopping bound is re-verified against a freshly recomputed
    residual before the result is flagged satisfied).  `grad` may carry a
    precomputed J^T F whose cost was already charged by the caller.
    """
    if lam <= 0:
        raise ValueError("regularization weight lam must be positive")
    J = np.asarray(J, dtype=float)
    F = np.asarray(F, dtype=float)
    m, n = J.shape
    if counter is None:
        counter = FlopCounter()
    if grad is None:
        if not np.all(np.isfinite(J)) or not np.all(np.isfinite(F)):
            raise NumericalError("non-finite entries in the inner linear system")
        grad = J.T @ F
        counter.add_matvec(m, n)
    rhs = -grad if corr is None else -(grad + corr)
    if not np.all(np.isfinite(rhs)):
        raise NumericalError("non-finite right-hand side in the inner linear system")
    if max_iter is None:
        max_iter = n

    JT = J.T

    def apply_operator(x):
        y = JT @ (J @ x)
        y += lam * x
        counter.add_matvec(m, n)
        counter.add_matvec(n, m)
        return y

    s = np.zeros(n)
    if not rhs.any():
        return InnerSolveResult(s, 0.0, 0, True, linear_residual=rhs.copy())

    r = rhs.copy()
    p = r.copy()
    Jp, mp, scratch = np.empty(m), np.empty(n), np.empty(n)
    rs = r.dot(r)
    rhs_norm = math.sqrt(rs)
    model_value = 0.0  # 0.5 s^T (B+lam I) s - rhs^T s, decreases monotonically
    iteration = 0
    try:
        for iteration in range(1, max_iter + 1):
            # mp = (J^T J + lam I) p, the same bits as apply_operator(p)
            J.dot(p, out=Jp)
            JT.dot(Jp, out=mp)
            mp += np.multiply(p, lam, out=scratch)
            curvature = p.dot(mp)
            if not math.isfinite(curvature) or curvature <= 0:
                raise NumericalError("conjugate gradient lost positive definiteness")
            alpha = rs / curvature
            s += np.multiply(p, alpha, out=scratch)
            r -= np.multiply(mp, alpha, out=scratch)
            ss = s.dot(s)
            # 0.5 s^T (B+lam I) s - rhs^T s with (B+lam I) s = rhs - r
            new_model_value = -0.5 * (s.dot(rhs) + s.dot(r))
            # monotone up to rounding of magnitude ~eps * ||s|| * ||rhs||
            assert new_model_value <= model_value + 1e-9 * (1.0 + rhs_norm * math.sqrt(ss))
            model_value = new_model_value
            rs_new = r.dot(r)
            bound = theta * ss
            if rs_new == 0.0 or math.sqrt(rs_new) <= bound:
                true_residual = rhs - apply_operator(s)
                true_norm = float(np.linalg.norm(true_residual))
                if true_norm <= bound:
                    return InnerSolveResult(s, true_norm, iteration, True, true_residual)
                if rs_new == 0.0:  # recurrence exhausted, nothing more to gain
                    return InnerSolveResult(s, true_norm, iteration, False, true_residual)
            p *= rs_new / rs
            p += r
            rs = rs_new
    finally:
        # the loop's products with J and J^T, 2mn + 2nm flops per iteration, in one charge
        counter.add_matvec(2 * m * iteration, n)
    true_residual = rhs - apply_operator(s)
    true_norm = float(np.linalg.norm(true_residual))
    satisfied = true_norm <= theta * float(s @ s)
    return InnerSolveResult(s, true_norm, max_iter, satisfied, true_residual)


def _shifted_gram_norm(G, lam, n):
    """||J^T J + lam I||_F (order n) from G = J J^T or J^T J, which share norm and trace."""
    return float(np.sqrt(np.linalg.norm(G) ** 2 + 2.0 * lam * np.trace(G) + n * lam**2))


def direct_solve(J, lam, rhs):
    """Solve (J^T J + lam I) s = rhs for J of shape (m, n) by Cholesky factorization.

    With m < n the Woodbury identity reduces it to the m-by-m kernel system
    (J J^T + lam I) y = J rhs, s = (rhs - J^T y) / lam; otherwise the n-by-n
    matrix is factored.  The solution is verified against the backward-error
    bound ||B s - rhs|| <= 1e-10 * (||B||_F * ||s|| + ||rhs||), B = J^T J + lam I,
    evaluated without forming B; a non-positive lam, a factorization failure
    or a violated bound raises NumericalError so the caller can grow the
    regularization weight and retry.  Products with J inside the solve are
    direct-solve work, like the factorization, and are not charged.
    """
    if not lam > 0:
        raise NumericalError(f"regularization weight lam must be positive, got {lam!r}")
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m, n = J.shape
    G = J @ J.T if m < n else J.T @ J
    try:
        factor = scipy.linalg.cho_factor(G + lam * np.eye(len(G)), check_finite=True)
        if m < n:
            s = (rhs - J.T @ scipy.linalg.cho_solve(factor, J @ rhs)) / lam
        else:
            s = scipy.linalg.cho_solve(factor, rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"dense Cholesky solve failed: {exc}") from exc
    residual = J.T @ (J @ s) + lam * s - rhs
    scale = _shifted_gram_norm(G, lam, n) * float(np.linalg.norm(s)) + float(np.linalg.norm(rhs))
    if not np.all(np.isfinite(s)) or float(np.linalg.norm(residual)) > 1e-10 * scale:
        raise NumericalError("dense solve residual exceeds the backward-error bound")
    return s
