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

from .linsolve import NumericalError, cgls_truncated, predicted_reduction

# consecutive inner-solver breakdowns tolerated before giving up
_MAX_INNER_FAILURES = 50

# The paper's acceptance test and regularization schedule: a step is taken
# when rho >= ETA1; lam falls by GAMMA2 when rho >= ETA2, by GAMMA1 otherwise,
# never below LAMBDA_MIN, and grows by GAMMA3 after a rejection.  Read at
# call time, so a side script may patch one.
ETA1, ETA2 = 0.1, 0.75
GAMMA1, GAMMA2, GAMMA3 = 0.85, 0.5, 1.5
LAMBDA0, LAMBDA_MIN = 0.05, 1e-6


@dataclass
class LmConfig:
    """The two solver settings: gradient tolerance and iteration cap."""

    epsilon: float = 1e-4
    max_outer_iter: int = 2000

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.max_outer_iter < 0:
            raise ValueError("max_outer_iter must be nonnegative")


@dataclass
class SolveReport:
    """Outcome of one optimization run."""

    iterations: int
    accepted_steps: int
    final_gradient_norm: float
    loss_history: list
    matvec_flops: int
    converged: bool
    final_params: np.ndarray
    coherence_residuals: list = field(default_factory=list)

    @property
    def coarse_steps(self):
        """Coarse corrections attempted, accepted or not: 0 for `lm`, one per `mlm` coarse model."""
        return len(self.coherence_residuals)


def update_lambda(lam, rho):
    """Three-branch regularization update driven by the acceptance ratio."""
    if rho is not None and rho >= ETA1:
        gamma = GAMMA2 if rho >= ETA2 else GAMMA1
        return max(LAMBDA_MIN, gamma * lam)
    return GAMMA3 * lam


def lm_solve(system, x0, cfg, counter, trace):
    """Minimize 0.5*||F(x)||^2 from x0 under `cfg`; stops on the gradient norm.

    Matvec flops are charged to `counter`.  `trace` is None or a text
    stream receiving a CSV header and one row per iteration.  Returns a
    SolveReport.
    """
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

    `coarse_step(x, f, g, grad_norm, lam)`, when given, is offered every
    iteration that follows a fine one, with the loss f at x.  It returns
    None to take a fine step instead, or `(step, predicted_reduction)`: a
    fine-space step, or None for a failed attempt.  x is rebound only by
    an accepted step, so an offer at the same x object is at the same
    iterate.  Fine steps, coarse steps and inner-solver breakdowns share
    one acceptance test and lambda update; the trace gets a `level`
    column when a coarse step is supplied.
    """
    writer = None
    if trace is not None:
        writer = csv.writer(trace, lineterminator="\n")
        header = ["iteration", "loss", "grad_norm", "lambda", "rho", "accepted", "cum_matvec_flops"]
        if coarse_step is not None:
            header.insert(1, "level")
        writer.writerow(header)

    x = np.array(x0, dtype=float)
    F, f = evaluate_loss(system, x)
    if not np.isfinite(f):
        raise NumericalError("loss is not finite at the starting point")

    lam = LAMBDA0
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
        offer = coarse_step(x, f, g, grad_norm, lam) if coarse_step and prev_step_fine else None
        prev_step_fine = offer is None
        if offer is not None:
            s, pred = offer
        else:
            try:
                inner = cgls_truncated(J, g, lam, counter)
            except NumericalError:
                inner_failures += 1
                if inner_failures >= _MAX_INNER_FAILURES:
                    raise
                s = None  # rejected like a failed step: lam grows by GAMMA3
            else:
                inner_failures = 0
                s = inner.step
                pred = predicted_reduction(s, -g, inner.linear_residual, lam)

        rho = None
        if s is not None and pred > 0 and s.any():
            x_trial = x + s
            F_trial, f_trial = evaluate_loss(system, x_trial)
            if np.isfinite(f_trial):
                rho = (f - f_trial) / pred
        took_step = rho is not None and rho >= ETA1
        if took_step:
            x, F, f = x_trial, F_trial, f_trial
            accepted += 1
            stale = True
        lam = update_lambda(lam, rho)
        history.append(f)
        if writer is not None:
            row = [iteration, f"{f:.12g}", f"{grad_norm:.12g}", f"{lam:.12g}",
                   "" if rho is None else f"{rho:.12g}", int(took_step), counter.matvec_flops]
            if coarse_step is not None:
                row.insert(1, "fine" if prev_step_fine else "coarse")
            writer.writerow(row)

    return SolveReport(
        iterations=iteration,
        accepted_steps=accepted,
        final_gradient_norm=grad_norm,
        loss_history=history,
        matvec_flops=counter.matvec_flops,
        converged=converged,
        final_params=x,
    )
