"""Two-level Levenberg-Marquardt driver.

Runs the Levenberg-Marquardt loop of `lm` with a coarse correction
offered after every fine iteration.  The coarse objective is the same
loss over the sub-network spanned by the coarse hidden nodes, shifted by
a linear term so its gradient at the restricted iterate equals the
restricted fine gradient; a bounded run of damped Gauss-Newton
iterations minimizes it, each step an exact direct solve, in the
m-dimensional kernel space of the coarse Jacobian when that has fewer
rows than columns.  The resulting coarse step is prolongated back and
judged by the usual actual-over-predicted ratio on the fine loss.

The transfer operators and the coarse system they define are built once
per run; each coarse attempt builds only its model, and each coarse
point is evaluated once.
"""

from dataclasses import dataclass

import numpy as np

from .amg import apply_blockwise
from .linsolve import FlopCounter, NumericalError, direct_solve
from .lm import LmConfig, evaluate_loss, minimize, update_lambda


@dataclass
class MlmConfig(LmConfig):
    """LmConfig plus the coarse-level controls.

    kappa_h and epsilon_h gate the descent to the coarse level (relative
    and absolute size of the restricted gradient), tested after every
    fine iteration; the coarse run itself stops at the fine gradient
    tolerance or after max_coarse_iter iterations.  The transfer
    operators are the ones passed to `mlm_solve`, built once at the
    starting point.  A campaign hands one MlmConfig to both solvers;
    `lm_solve` reads only its LmConfig fields.
    """

    kappa_h: float = 0.1
    epsilon_h: float = None  # default: the fine gradient tolerance
    max_coarse_iter: int = 10

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.kappa_h < 1):
            raise ValueError("kappa_h must lie in (0, 1)")
        if self.epsilon_h is None:
            self.epsilon_h = self.epsilon
        if self.epsilon_h <= 0:
            raise ValueError("epsilon_h must be positive")
        if self.max_coarse_iter < 1:
            raise ValueError("max_coarse_iter must be at least 1")


@dataclass
class CoarseModel:
    """Corrected coarse objective anchored at the restricted iterate.

    The model value at a coarse point y is

        0.5*||F_coarse(y)||^2 + correction @ (y - x0)

    whose gradient at x0 equals the restricted fine gradient by
    construction (first-order coherence).
    """

    system: object
    x0: np.ndarray
    correction: np.ndarray
    f0: float
    coherence_residual: float
    _residual0: np.ndarray
    _jacobian0: np.ndarray
    _grad0: np.ndarray


def go_down(grad_fine, ops, kappa, epsilon_h, counter=None):
    """Descent test: the restricted gradient if it justifies a coarse step, else None.

    `kappa` is the relative threshold, `effective_kappa(cfg, ops)` in the
    solver; the restriction is charged to `counter`.
    """
    restricted = apply_blockwise(ops, grad_fine, "restrict", counter)
    rnorm = float(np.linalg.norm(restricted))
    if rnorm >= kappa * float(np.linalg.norm(grad_fine)) and rnorm > epsilon_h:
        return restricted
    return None


def effective_kappa(cfg, ops):
    """Descent threshold calibrated to the restriction operator.

    No restricted gradient can exceed ||R|| times the fine gradient, so a
    meaningful relative threshold must stay below the norm of R (the
    infinity-norm scaling of the operators makes that norm well below one
    on dense coupling matrices).  The configured kappa_h in (0,1) is
    therefore read as a fraction of the achievable ratio.
    """
    spectral = float(np.linalg.norm(ops.restrict, 2))
    return cfg.kappa_h * min(1.0, spectral)


def build_coarse_model(coarse, x, ops, restricted_grad, counter):
    """Anchor the coarse model at the restricted iterate.

    `coarse` is the coarse system (`system.coarsen(ops)`) and
    `restricted_grad` the restriction of the fine gradient at `x`; the
    correction makes the model gradient at the restricted iterate equal
    `restricted_grad`.  Restriction and products are charged to `counter`.
    The coherence assert bounds rounding on the scale of its operands; a
    violation is a programming error, not a solver failure, and propagates.
    """
    x0 = apply_blockwise(ops, x, "restrict", counter)
    F0 = coarse.residual(x0)
    J0 = coarse.jacobian(x0)
    g0 = J0.T @ F0
    counter.add_matvec(*J0.shape)
    correction = restricted_grad - g0
    coherence = float(np.linalg.norm((g0 + correction) - restricted_grad))
    assert coherence <= 1e-10 * (1.0 + np.linalg.norm(g0) + np.linalg.norm(restricted_grad))
    return CoarseModel(
        system=coarse,
        x0=x0,
        correction=correction,
        f0=0.5 * float(F0 @ F0),
        coherence_residual=coherence,
        _residual0=F0,
        _jacobian0=J0,
        _grad0=g0,
    )


def coarse_cycle(model, lam, cfg, counter):
    """Bounded damped Gauss-Newton run on the corrected coarse objective.

    Returns (step, predicted_reduction, accepted_count) where the step is
    measured from the restricted iterate and the prediction is the model
    decrease achieved by the run; a zero step or zero prediction marks a
    failed coarse attempt.
    """
    system, corr = model.system, model.correction
    y = model.x0.copy()
    F, J, g = model._residual0, model._jacobian0, model._grad0
    model_value = model.f0
    accepted = 0
    stale = False
    for _ in range(cfg.max_coarse_iter):
        if stale:
            J = system.jacobian(y)
            g = J.T @ F
            counter.add_matvec(*J.shape)
            stale = False
        grad_model = g + corr
        if np.linalg.norm(grad_model) <= cfg.epsilon:
            break
        try:
            s = direct_solve(J, lam, -grad_model)
        except NumericalError:
            lam = cfg.gamma3 * lam
            continue
        Js = J @ s
        counter.add_matvec(*J.shape)
        pred = -(float(grad_model @ s) + 0.5 * float(Js @ Js))
        rho = None
        if pred > 0 and s.any():
            y_trial = y + s
            F_trial, trial_value = evaluate_loss(system, y_trial)
            trial_value += float(corr @ (y_trial - model.x0))
            if np.isfinite(trial_value):
                rho = (model_value - trial_value) / pred
        if rho is not None and rho >= cfg.eta1:
            y, F = y_trial, F_trial
            model_value = trial_value
            accepted += 1
            stale = True
        lam = update_lambda(lam, rho, cfg)
    return y - model.x0, model.f0 - model_value, accepted


def mlm_solve(system, x0, cfg, ops, counter=None, trace=None):
    """Two-level minimization of 0.5*||F(x)||^2 from x0.

    `ops` are the transfer operators built once beforehand (from the
    Gauss-Newton matrix at the starting point); the coarse system they
    define is built once per run.  This is the LM loop of `lm_solve`: the
    first iteration works at the fine level; afterwards a coarse
    correction is attempted whenever the previous iteration was fine and
    the restricted gradient passes the descent test.
    """
    counter = counter if counter is not None else FlopCounter()
    kappa = effective_kappa(cfg, ops)
    coarse = system.coarsen(ops)
    coherence_log = []

    def coarse_step(x, g, grad_norm, lam):
        restricted = go_down(g, ops, kappa, cfg.epsilon_h, counter)
        if restricted is None:
            return None
        model = build_coarse_model(coarse, x, ops, restricted, counter)
        coherence_log.append((model.coherence_residual, grad_norm))
        step_coarse, pred, n_accepted = coarse_cycle(model, lam, cfg, counter)
        if n_accepted > 0 and pred > 0 and step_coarse.any():
            return apply_blockwise(ops, step_coarse, "prolong", counter), pred
        return None, pred

    report = minimize(system, x0, cfg, counter, trace, coarse_step)
    report.coarse_steps = len(coherence_log)
    report.coherence_residuals = coherence_log
    return report
