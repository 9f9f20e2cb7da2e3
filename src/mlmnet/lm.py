"""One-level Levenberg-Marquardt driver and the loop both solvers run.

Works on any least-squares system exposing residual(x) and jacobian(x);
the loss is 0.5*||residual||^2.  Each iteration builds the regularized
Gauss-Newton model, obtains a step from the truncated CG solver, accepts
or rejects it on the actual-over-predicted reduction ratio and updates
the regularization weight on the usual three-branch schedule.  The
two-level driver (`mlm`) runs the same loop with a coarse step offered
after every fine iteration.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .linsolve import FlopCounter, NumericalError, cgls_truncated, predicted_reduction

# consecutive inner-solver breakdowns tolerated before giving up
_MAX_INNER_FAILURES = 50


@dataclass
class LmConfig:
    """Parameters of the acceptance test and regularization schedule."""

    eta1: float = 0.1
    eta2: float = 0.75
    gamma1: float = 0.85
    gamma2: float = 0.5
    gamma3: float = 1.5
    lambda0: float = 0.05
    lambda_min: float = 1e-6
    epsilon: float = 1e-4
    theta: float = 0.1
    max_outer_iter: int = 2000
    cg_max_iter: int = None  # default: min(n, m + 1), CG's exact-arithmetic bound

    def __post_init__(self):
        if not (0 < self.eta1 <= self.eta2 < 1):
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not (0 < self.gamma2 <= self.gamma1 < 1 < self.gamma3):
            raise ValueError("need 0 < gamma2 <= gamma1 < 1 < gamma3")
        if self.lambda_min <= 0 or self.lambda0 <= self.lambda_min:
            raise ValueError("need lambda0 > lambda_min > 0")
        if self.epsilon <= 0 or self.theta <= 0:
            raise ValueError("epsilon and theta must be positive")
        if self.max_outer_iter < 0:
            raise ValueError("max_outer_iter must be nonnegative")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one optimization run."""

    iterations: int
    accepted_steps: int
    rejected_steps: int
    final_gradient_norm: float
    loss_history: list
    matvec_flops: int
    converged: bool
    final_params: np.ndarray
    coarse_steps: int = 0
    coherence_residuals: list = field(default_factory=list)


class TraceWriter:
    """Per-iteration CSV trace of a solver run."""

    def __init__(self, stream, with_level=False):
        self._writer = csv.writer(stream, lineterminator="\n")
        self.with_level = with_level
        header = ["iteration", "loss", "grad_norm", "lambda", "rho", "accepted", "cum_matvec_flops"]
        if with_level:
            header.insert(1, "level")
        self._writer.writerow(header)

    def row(self, iteration, loss, grad_norm, lam, rho, accepted, flops, level=None):
        rec = [
            iteration,
            f"{loss:.12g}",
            f"{grad_norm:.12g}",
            f"{lam:.12g}",
            "" if rho is None else f"{rho:.12g}",
            int(accepted),
            flops,
        ]
        if self.with_level:
            rec.insert(1, level)
        self._writer.writerow(rec)


def update_lambda(lam, rho, cfg):
    """Three-branch regularization update driven by the acceptance ratio."""
    if rho is not None and rho >= cfg.eta1:
        gamma = cfg.gamma2 if rho >= cfg.eta2 else cfg.gamma1
        return max(cfg.lambda_min, gamma * lam)
    return cfg.gamma3 * lam


def lm_solve(system, x0, cfg=None, counter=None, trace=None):
    """Minimize 0.5*||F(x)||^2 from x0; stops on the gradient norm.

    `trace`, when given, is a text stream receiving one CSV row per
    iteration.  Returns a SolveReport.
    """
    cfg = cfg if cfg is not None else LmConfig()
    counter = counter if counter is not None else FlopCounter()
    return minimize(system, x0, cfg, counter, trace)


def evaluate_loss(system, x):
    """(F(x), 0.5*||F(x)||^2) at a start or trial point.

    Overflow yields a non-finite loss without a RuntimeWarning: a trial
    point's is a rejected step, a start point's a NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        F = system.residual(x)
        return F, 0.5 * float(F @ F)


def minimize(system, x0, cfg, counter, trace, coarse_step=None):
    """The LM iteration loop of both solvers.

    `coarse_step(x, g, grad_norm, lam)`, when given, is offered every
    iteration that follows a fine one.  It returns None to take a fine
    step instead, or `(step, predicted_reduction)`: a fine-space step, or
    None for a failed attempt.  Fine steps, coarse steps and inner-solver
    breakdowns share one acceptance test and lambda update; the trace gets
    a `level` column when a coarse step is supplied.
    """
    writer = TraceWriter(trace, with_level=coarse_step is not None) if trace is not None else None

    x = np.array(x0, dtype=float)
    F, f = evaluate_loss(system, x)
    if not np.isfinite(f):
        raise NumericalError("loss is not finite at the starting point")

    lam = cfg.lambda0
    history = [f]
    accepted = 0
    inner_failures = 0
    prev_step_fine = False
    stale = True  # J and g need a refresh (start, or after an accepted step)

    iteration = 0
    while True:
        if stale:
            J = system.jacobian(x)
            g = J.T @ F
            counter.add_matvec(*J.shape)
            grad_norm = float(np.linalg.norm(g))
            stale = False
        converged = grad_norm <= cfg.epsilon
        if converged or iteration >= cfg.max_outer_iter:
            break

        iteration += 1
        offer = coarse_step(x, g, grad_norm, lam) if coarse_step and prev_step_fine else None
        prev_step_fine = offer is None
        if offer is not None:
            s, pred = offer
        else:
            try:
                inner = cgls_truncated(
                    J, F, lam, theta=cfg.theta, max_iter=cfg.cg_max_iter, counter=counter, grad=g
                )
            except NumericalError:
                inner_failures += 1
                if inner_failures >= _MAX_INNER_FAILURES:
                    raise
                s = None  # rejected like a failed step: lam grows by gamma3
            else:
                inner_failures = 0
                s = inner.step
                pred = predicted_reduction(s, -g, inner.linear_residual, lam)

        rho = None
        if s is not None and pred > 0 and s.any():
            F_trial, f_trial = evaluate_loss(system, x + s)
            if np.isfinite(f_trial):
                rho = (f - f_trial) / pred
        took_step = rho is not None and rho >= cfg.eta1
        if took_step:
            x = x + s
            F, f = F_trial, f_trial
            accepted += 1
            stale = True
        lam = update_lambda(lam, rho, cfg)
        history.append(f)
        if writer:
            writer.row(iteration, f, grad_norm, lam, rho, took_step, counter.matvec_flops,
                       level="fine" if prev_step_fine else "coarse")

    return SolveReport(
        iterations=iteration,
        accepted_steps=accepted,
        rejected_steps=iteration - accepted,
        final_gradient_norm=grad_norm,
        loss_history=history,
        matvec_flops=counter.matvec_flops,
        converged=converged,
        final_params=x,
    )
