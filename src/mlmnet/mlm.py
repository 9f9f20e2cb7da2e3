"""Two-level Levenberg-Marquardt driver.

Runs the Levenberg-Marquardt loop of `lm` with a coarse correction
offered after every fine iteration.  The coarse objective is the same
loss over the sub-network spanned by the coarse hidden nodes, shifted by
a linear term so its gradient at the restricted iterate equals the
restricted fine gradient; a bounded run of damped Gauss-Newton
iterations minimizes it, each step an exact direct solve, in the
m-dimensional kernel space of the coarse Jacobian when that has fewer
rows than columns.  Each coarse Jacobian is factored once, and every lam
tried with it reuses that factor.  Each inner step is judged by actual
over predicted decrease (`predicted_reduction` of its solve's residual,
as in the fine loop), and the prolongated coarse step on the fine loss.

The transfer operators, the coarse system they define and the descent
threshold are built once per run, and each coarse point is evaluated
once.  A coarse model, and the factor of its Jacobian, are built once per
iterate: a fine step rejected between two attempts leaves the iterate
unchanged, and the next attempt reuses them.  A coarse run stops as a failed attempt once its
predicted decrease is so large that no prolongated step could pass the
fine acceptance test.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lm
from .amg import apply_blockwise
from .linsolve import NumericalError, direct_solve, gram_eigen, predicted_reduction
from .lm import evaluate_loss, minimize, update_lambda


# The paper's coarse-level controls: the descent test's relative threshold
# (read through `effective_kappa`) and the cap on coarse iterations per
# attempt.  Read at call time, so a side script may patch one.
KAPPA_H = 0.1
MAX_COARSE_ITER = 10


@dataclass
class CoarseModel:
    """Corrected coarse objective anchored at the restricted iterate.

    The model value at a coarse point y is

        0.5*||F_coarse(y)||^2 + correction @ (y - x0)

    whose gradient at x0 equals the restricted fine gradient by
    construction (first-order coherence).  `_gram0`, the factor of the
    Jacobian at x0, is kept once a coarse run has made it.
    """

    system: object
    x0: np.ndarray
    correction: np.ndarray
    f0: float
    coherence_residual: float
    _residual0: np.ndarray
    _jacobian0: np.ndarray
    _grad0: np.ndarray
    _gram0: object = None


def go_down(grad_fine, grad_norm, ops, kappa, epsilon_h, counter):
    """Descent test: the restricted gradient if it justifies a coarse step, else None.

    `grad_norm` is the loop's norm of `grad_fine`, `kappa` the relative
    threshold (`effective_kappa(ops)`) and `epsilon_h` the absolute one
    (the fine tolerance); the restriction is charged to `counter`.
    """
    restricted = apply_blockwise(ops.restrict, grad_fine, counter)
    rnorm = float(np.linalg.norm(restricted))
    if rnorm >= kappa * grad_norm and rnorm > epsilon_h:
        return restricted
    return None


def effective_kappa(ops):
    """Descent threshold calibrated to the restriction operator.

    No restricted gradient can exceed ||R|| times the fine gradient, so a
    meaningful relative threshold must stay below the norm of R (the
    infinity-norm scaling of the operators makes that norm well below one
    on dense coupling matrices).  KAPPA_H in (0,1) is therefore read as a
    fraction of the achievable ratio.  ||R||_2 is the square root of the
    largest eigenvalue of the r_c-by-r_c Gram matrix R R^T, which costs a
    fraction of a full SVD of R and agrees with it to rounding.
    """
    R = ops.restrict
    spectral = math.sqrt(np.linalg.eigvalsh(R @ R.T)[-1])
    return KAPPA_H * min(1.0, spectral)


def build_coarse_model(coarse, x, ops, restricted_grad, counter):
    """Anchor the coarse model at the restricted iterate.

    `coarse` is the coarse system (`system.coarsen(ops)`) and
    `restricted_grad` the restriction of the fine gradient at `x`; the
    correction makes the model gradient at the restricted iterate equal
    `restricted_grad`.  Restriction and products are charged to `counter`.
    The coherence check bounds rounding on the scale of its operands; a
    violation is a programming error, not a solver failure, and raises
    AssertionError, under `python -O` too.
    """
    x0 = apply_blockwise(ops.restrict, x, counter)
    F0, f0 = evaluate_loss(coarse, x0)
    J0 = coarse.jacobian(x0)
    g0 = J0.T @ F0
    counter.add_matvec(*J0.shape)
    correction = restricted_grad - g0
    coherence = float(np.linalg.norm((g0 + correction) - restricted_grad))
    if not coherence <= 1e-10 * (1.0 + np.linalg.norm(g0) + np.linalg.norm(restricted_grad)):
        raise AssertionError(f"coarse model is not first-order coherent: residual {coherence:.3e}")
    return CoarseModel(
        system=coarse,
        x0=x0,
        correction=correction,
        f0=f0,
        coherence_residual=coherence,
        _residual0=F0,
        _jacobian0=J0,
        _grad0=g0,
    )


def coarse_cycle(model, lam, cfg, counter, f_fine):
    """Bounded damped Gauss-Newton run on the corrected coarse objective.

    The run stops after MAX_COARSE_ITER iterations, or earlier once the
    model gradient is within the fine tolerance `cfg.epsilon`.  Returns
    (step, predicted_reduction): the step from the restricted iterate,
    zero for a failed attempt, and the model decrease the run achieved,
    positive whenever the step is nonzero (it is made of accepted inner
    steps).  `gram`, the factor of the current J, is built at its first
    solve and serves every lam until J is refreshed; a J it cannot factor
    ends the run, and a failed solve grows lam.  Only each new J's
    gradient J^T F is charged to `counter`.

    `f_fine` is the fine loss at the attempt.  The fine loss at a trial
    point is nonnegative, so the fine ratio rho of the prolongated step
    is at most f_fine over the prediction, which only grows with each
    accepted step: once an accepted step leaves that bound below
    `lm.ETA1`, no step of the run could pass, and it stops with a zero
    step.  `math.inf` runs it in full.
    """
    system, corr = model.system, model.correction
    y = model.x0.copy()
    F, J, g = model._residual0, model._jacobian0, model._grad0
    gram = model._gram0
    model_value = model.f0
    stale = False
    for _ in range(MAX_COARSE_ITER):
        if stale:
            J = system.jacobian(y)
            g = J.T @ F
            counter.add_matvec(*J.shape)
            gram = None
            stale = False
        grad_model = g + corr
        if np.linalg.norm(grad_model) <= cfg.epsilon:
            break
        try:
            if gram is None:
                gram = gram_eigen(J)
                if J is model._jacobian0:
                    model._gram0 = gram
            s, linear_residual = direct_solve(J, lam, -grad_model, gram)
        except NumericalError:
            if gram is None:
                break  # J has no factor, and a factor does not depend on lam
            lam = update_lambda(lam, None)
            continue
        pred = predicted_reduction(s, -grad_model, linear_residual, lam)
        rho = None
        if pred > 0 and s.any():
            y_trial = y + s
            F_trial, trial_value = evaluate_loss(system, y_trial)
            trial_value += float(corr @ (y_trial - model.x0))
            if np.isfinite(trial_value):
                rho = (model_value - trial_value) / pred
        if rho is not None and rho >= lm.ETA1:
            y, F = y_trial, F_trial
            model_value = trial_value
            stale = True
            if f_fine / (model.f0 - model_value) < lm.ETA1:
                return np.zeros_like(y), model.f0 - model_value
        lam = update_lambda(lam, rho)
    return y - model.x0, model.f0 - model_value


def mlm_solve(system, x0, cfg, ops, counter, trace):
    """Two-level minimization of 0.5*||F(x)||^2 from x0 under `cfg`.

    `ops` are the transfer operators built once beforehand (from the
    Gauss-Newton matrix at the starting point); the coarse system they
    define is built once per run.  This is the LM loop of `lm_solve`, with
    the same `counter` and `trace` (None, or a stream that also gets the
    `level` column): the first iteration works at the fine level;
    afterwards a coarse correction is attempted whenever the previous
    iteration was fine and the restricted gradient passes the descent test.
    The descent test and the coarse model are functions of the iterate
    alone, so an offer at the iterate of the previous one reuses them.
    """
    kappa = effective_kappa(ops)
    coarse = system.coarsen(ops)
    coherence_log = []
    latest = (None, None)  # the latest offer's iterate and its model (None: no descent)

    def coarse_step(x, f, g, grad_norm, lam):
        nonlocal latest
        if latest[0] is not x:
            restricted = go_down(g, grad_norm, ops, kappa, cfg.epsilon, counter)
            model = None if restricted is None else build_coarse_model(
                coarse, x, ops, restricted, counter)
            latest = (x, model)
        model = latest[1]
        if model is None:
            return None
        coherence_log.append((model.coherence_residual, grad_norm))
        step_coarse, pred = coarse_cycle(model, lam, cfg, counter, f)
        if step_coarse.any():
            return apply_blockwise(ops.prolong, step_coarse, counter), pred
        return None, pred

    report = minimize(system, x0, cfg, counter, trace, coarse_step)
    report.coherence_residuals = coherence_log
    return report
