"""Inner solvers for the regularized model minimization.

The fine-level systems (J^T J + lam I) s = -g, g the gradient of the
model at s = 0, are solved by a truncated conjugate-gradient iteration on
these shifted normal equations, which applies the operator through two
products with J per step and stops once the model gradient is small
against the squared step norm, or at min(n, m + 1) iterations: in exact
arithmetic CG ends within rank(J) <= m steps there, so every further step
is driven by rounding alone.
Coarse-level systems are solved exactly through an eigendecomposition of
the smaller Gram matrix G of J: the m-by-m J J^T (kernel form) when J has
fewer rows than columns, J^T J otherwise.  G + lam I shares G's
eigenvectors, so one decomposition per Jacobian serves every lam tried
with it (the idea of MINPACK's lmpar, More 1978), and each retry costs
two small products and a division.  The factor also keeps G's Frobenius
norm and trace, so a solve's backward-error check does no work on G.
Both solvers return the residual of the linear system at their step, for
`predicted_reduction`.

Only genuine matrix-vector products are charged to the flop counter, at
2*rows*cols apiece; the direct solve, J products of its kernel form
included, is not matrix-vector work and is left out of the tally.  The
conjugate-gradient loop charges its products, 2mn + 2nm flops per
application of the operator (one per iteration, and one per
re-verification of the true residual), in one call when the solve ends
(returns or raises).  The gradient g is formed and charged by the caller.

The module uses numpy alone: scipy would load a second BLAS library into
every `mlm` process for these small dense solves.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The paper's fine CG stopping constant (see cgls_truncated).  Read at call
# time, so a side script may patch it.
THETA = 0.1


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
    """Outcome of one inner model minimization.

    `satisfied` reports whether the step met the solver's stopping test.
    It is a report, not an acceptance condition: lm.minimize judges every
    step by rho, and only tests and the benchmark's trace notes read it.
    """

    step: np.ndarray
    iterations: int
    satisfied: bool
    # residual of the linear system at the returned step, rhs - (B+lam I)s;
    # lets the caller form the predicted model decrease without extra products
    linear_residual: np.ndarray


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


def cgls_truncated(J, g, lam, counter):
    """Approximately solve (J^T J + lam I) s = -g.

    `g` is the gradient of the model at s = 0: J^T F, plus any linear
    correction, formed and charged by the caller.  Plain conjugate
    gradients on the shifted normal equations (not CGLS: the residual is
    kept in n-space), the operator applied via one product with J and one
    with J^T per application, written into preallocated vectors.
    Iterations stop at the first step whose true system residual satisfies

        ||(J^T J + lam I) s + g|| <= THETA * ||s||^2,

    at an exhausted recurrence, or at min(n, m + 1) iterations, the
    exact-arithmetic bound: a gradient J^T F lies in range(J^T), of
    dimension rank(J) <= m, which the Krylov space exhausts within rank(J)
    steps; the `+ 1` covers a correction with a component outside it.
    The bound is re-verified against a freshly recomputed residual at each
    step whose recurrence residual meets it, and at the last step; the
    result is flagged satisfied only if that residual meets it.  Products
    are charged to `counter`.

    The THETA test is a stopping rule, not an acceptance condition: the
    iterate is returned either way, and lm.minimize judges every step by
    rho.

    The check that the CG model value decreases (up to rounding) guards an
    invariant of the recurrence; a violation is a programming error, not a
    solver failure, and raises AssertionError, under `python -O` too.
    """
    if lam <= 0:
        raise ValueError("regularization weight lam must be positive")
    J = np.asarray(J, dtype=float)
    m, n = J.shape
    rhs = -np.asarray(g, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise NumericalError("non-finite right-hand side in the inner linear system")
    theta, max_iter = THETA, min(n, m + 1)

    s = np.zeros(n)
    if not rhs.any():
        return InnerSolveResult(s, 0, True, rhs.copy())

    JT = J.T
    Jx, mp, scratch = np.empty(m), np.empty(n), np.empty(n)
    products = 0  # applications of the operator, two products with J each

    def apply_operator(x):
        """mp = (J^T J + lam I) x, written into the preallocated vectors."""
        nonlocal products
        products += 1
        J.dot(x, out=Jx)
        JT.dot(Jx, out=mp)
        np.add(mp, np.multiply(x, lam, out=scratch), out=mp)
        return mp

    r = rhs.copy()
    p = r.copy()
    rs = r.dot(r)
    rhs_norm = math.sqrt(rs)
    model_value = 0.0  # 0.5 s^T (B+lam I) s - rhs^T s, decreases monotonically
    try:
        for iteration in range(1, max_iter + 1):
            curvature = p.dot(apply_operator(p))
            if not math.isfinite(curvature) or curvature <= 0:
                raise NumericalError("conjugate gradient lost positive definiteness")
            alpha = rs / curvature
            s += np.multiply(p, alpha, out=scratch)
            r -= np.multiply(mp, alpha, out=scratch)
            ss = s.dot(s)
            # 0.5 s^T (B+lam I) s - rhs^T s with (B+lam I) s = rhs - r
            new_model_value = -0.5 * (s.dot(rhs) + s.dot(r))
            # monotone up to rounding of magnitude ~eps * ||s|| * ||rhs||
            if not new_model_value <= model_value + 1e-9 * (1.0 + rhs_norm * math.sqrt(ss)):
                raise AssertionError("conjugate gradient model value increased")
            model_value = new_model_value
            rs_new = r.dot(r)
            bound = theta * ss
            # the recurrence is exhausted at rs_new == 0, and the solve ends at the cap
            final = rs_new == 0.0 or iteration == max_iter
            if final or math.sqrt(rs_new) <= bound:
                true_residual = rhs - apply_operator(s)
                satisfied = float(np.linalg.norm(true_residual)) <= bound
                if satisfied or final:
                    return InnerSolveResult(s, iteration, satisfied, true_residual)
            p *= rs_new / rs
            p += r
            rs = rs_new
    finally:
        # every product with J and J^T, 2mn + 2nm flops per application, in one charge
        counter.add_matvec(2 * m * products, n)


class GramEigen(NamedTuple):
    """The eigendecomposition G = V diag(w) V^T of a Jacobian's Gram matrix G.

    `norm_sq` is ||G||_F^2 and `trace` is tr G, the two terms of the
    backward-error bound of `direct_solve` that do not depend on lam.
    """

    w: np.ndarray
    V: np.ndarray
    norm_sq: float
    trace: float


def _shifted_gram_norm(gram, lam, n):
    """||J^T J + lam I||_F (order n) from G = J J^T or J^T J, which share norm and trace."""
    return float(np.sqrt(gram.norm_sq + 2.0 * lam * gram.trace + n * lam**2))


def gram_eigen(J):
    """Factor the smaller Gram matrix of J once, for `direct_solve` at any lam.

    G is J J^T when J has fewer rows than columns, J^T J otherwise; a
    non-finite G, or an eigensolver that does not converge, raises
    NumericalError.  G's norm and trace are taken here, once per factor.
    """
    J = np.asarray(J, dtype=float)
    m, n = J.shape
    G = J @ J.T if m < n else J.T @ J
    if not np.all(np.isfinite(G)):
        raise NumericalError("non-finite entries in the Gram matrix")
    try:
        w, V = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed: {exc}") from exc
    return GramEigen(w, V, np.linalg.norm(G) ** 2, np.trace(G))


def direct_solve(J, lam, rhs, gram):
    """Solve (J^T J + lam I) s = rhs for J of shape (m, n) through `gram = gram_eigen(J)`.

    With m < n the Woodbury identity reduces it to the m-by-m kernel system
    (J J^T + lam I) y = J rhs, s = (rhs - J^T y) / lam; otherwise the n-by-n
    system is solved.  Either way the shifted Gram matrix is inverted
    through its eigenvalues w + lam, so a caller trying several lam with
    one J factors it once.  The solution is verified against the
    backward-error bound
    ||B s - rhs|| <= 1e-10 * (||B||_F * ||s|| + ||rhs||), B = J^T J + lam I,
    evaluated without forming B; a non-positive lam, a shifted eigenvalue
    w + lam <= 0 or a violated bound raises NumericalError (as `gram_eigen`
    does on a non-finite J) so the caller can grow the regularization
    weight and retry.  Returns s and the residual rhs - B s of that check.
    Products with J inside the solve are direct-solve work, like the
    factorization, and are not charged.
    """
    if not lam > 0:
        raise NumericalError(f"regularization weight lam must be positive, got {lam!r}")
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m, n = J.shape
    w, V = gram.w, gram.V
    d = w + lam
    if not np.all(d > 0):
        raise NumericalError("shifted Gram matrix is not positive definite")
    if m < n:
        s = (rhs - J.T @ (V @ ((V.T @ (J @ rhs)) / d))) / lam
    else:
        s = V @ ((V.T @ rhs) / d)
    residual = rhs - (J.T @ (J @ s) + lam * s)
    scale = _shifted_gram_norm(gram, lam, n) * math.sqrt(s.dot(s)) + math.sqrt(rhs.dot(rhs))
    if not np.all(np.isfinite(s)) or math.sqrt(residual.dot(residual)) > 1e-10 * scale:
        raise NumericalError("dense solve residual exceeds the backward-error bound")
    return s, residual
