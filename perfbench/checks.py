"""Checks on the program's outputs, computed apart from the program.

Each check raises `CheckFailed` naming itself.  The network evaluation,
the closed-form solutions, the node-coupling matrix, the strong-coupling
sets and the five-point Helmholtz stencil are all written out here again
from their definitions; only the program's outputs (reports, operators,
the cached finite-difference field) are read.
"""

import numpy as np


class CheckFailed(Exception):
    """An output of the program failed a named check."""

    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check


def network_values(params, r, points):
    """One-hidden-layer network with sigmoid(x) = tanh(x/2) at rows of `points`.

    Parameter layout: output weights (r), input weights grouped by input
    coordinate (dim*r), hidden biases (r), output bias (1).
    """
    params = np.asarray(params, dtype=float)
    dim = points.shape[1]
    if params.shape != ((dim + 2) * r + 1,):
        raise CheckFailed("parameter_layout", f"{params.size} parameters for r={r}, dim={dim}")
    out_w = params[:r]
    in_w = params[r : (dim + 1) * r].reshape(dim, r)
    bias = params[(dim + 1) * r : (dim + 2) * r]
    # in blocks of rows, so the check adds little to the process's peak memory
    return np.concatenate([
        np.tanh(0.5 * (block @ in_w + bias)) @ out_w + params[-1]
        for block in np.array_split(points, max(1, points.shape[0] // 1024))
    ])


def closed_form(problem, nu):
    """The exact solution of a manufactured-solution problem, by problem id."""
    if problem == "poisson1d":
        return lambda z: np.cos(nu * z[:, 0])
    raise ValueError(f"no closed-form solution recorded for {problem!r}")


def rmse_closed_form(problem, nu, params, r):
    """RMSE of the network against the closed-form solution on 1001 uniform points of [0, 1]."""
    z = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    err = network_values(params, r, z) - closed_form(problem, nu)(z)
    return float(np.sqrt(np.mean(err**2)))


def check_rmse(rmse, bound):
    if not (np.isfinite(rmse) and rmse <= bound):
        raise CheckFailed("rmse_closed_form", f"RMSE {rmse:.3e} exceeds {bound:.0e}")


def check_stop(report, epsilon, to_tolerance, cap):
    """Converged to `epsilon` where required; otherwise converged or at the cap."""
    if to_tolerance:
        if not report.converged or not report.final_gradient_norm <= epsilon:
            raise CheckFailed(
                "converged",
                f"converged={report.converged}, gradient norm "
                f"{report.final_gradient_norm:.3e} against epsilon {epsilon:.0e}",
            )
    elif not (report.converged or report.iterations == cap):
        raise CheckFailed(
            "stopped_at_cap",
            f"{report.iterations} iterations, cap {cap}, converged={report.converged}",
        )


def check_loss_history(report):
    """LM accepts only decreasing steps, so the loss never grows."""
    history = np.asarray(report.loss_history, dtype=float)
    if history.size < 2 or not np.all(np.isfinite(history)):
        raise CheckFailed("loss_monotone", f"history of {history.size} entries, or non-finite")
    rises = np.flatnonzero(np.diff(history) > 0)
    if rises.size:
        raise CheckFailed("loss_monotone", f"loss rises at iteration {rises[0] + 1}")
    if not history[-1] < history[0]:
        raise CheckFailed("loss_monotone", f"final loss {history[-1]:.6e} not below initial")


def check_coherence(report):
    """First-order coherence of every coarse model: residual <= 1e-10 (1 + ||g||)."""
    for k, (residual, grad_norm) in enumerate(report.coherence_residuals):
        if not residual <= 1e-10 * (1.0 + grad_norm):
            raise CheckFailed(
                "coherence",
                f"coarse model {k}: residual {residual:.3e} with gradient norm {grad_norm:.3e}",
            )


def coupling_matrix(J, r, dim):
    """Sum over the per-kind Jacobian column blocks of Gram / (its infinity norm)."""
    A = np.zeros((r, r))
    for block in range(dim + 2):
        X = J[:, block * r : (block + 1) * r]
        G = X.T @ X
        scale = np.abs(G).sum(axis=1).max()
        if scale > 0:
            A += G / scale
    return A


def strength(A, eps_amg):
    """Boolean strong-coupling matrix: strong negative or strong positive couplings.

    j is a strong negative neighbour of i when -a_ij >= eps * max_k(-a_ik),
    and a strong positive one when a_ij > 0 and a_ij >= eps * max_k |a_ik|
    (off-diagonal k).  The thresholds are lowered by a relative 1e-9 to
    forgive rounding.
    """
    threshold = (1.0 - 1e-9) * eps_amg
    off = A - np.diag(np.diag(A))
    neg = np.maximum(-off, 0.0)
    neg_max = neg.max(axis=1, keepdims=True)
    strong_neg = (neg > 0) & (neg >= threshold * neg_max)
    abs_max = np.abs(off).max(axis=1, keepdims=True)
    strong_pos = (off > 0) & (off >= threshold * abs_max)
    strong = strong_neg | strong_pos
    np.fill_diagonal(strong, False)
    return strong


def check_amg(J, dim, eps_amg, ops):
    """Invariants of the transfer operators built from the Jacobian J.

    Every fine node has a strong coarse neighbour and interpolates from
    strong coarse neighbours only; coarse rows of P_raw are unit rows; the
    working pair is P_raw and P_raw^T, each divided by its infinity norm;
    P has full column rank.
    """
    P_raw = np.asarray(ops.prolong_raw, dtype=float)
    r, rc = P_raw.shape
    coarse = np.asarray(ops.coarse_idx, dtype=int)
    if coarse.size != rc or np.unique(coarse).size != rc:
        raise CheckFailed("amg_coarse_set", f"{coarse.size} coarse indices for {rc} columns")
    fine = np.setdiff1d(np.arange(r), coarse)
    if not np.array_equal(P_raw[coarse], np.eye(rc)):
        raise CheckFailed("amg_coarse_rows", "coarse rows of P_raw are not unit rows")
    strong = strength(coupling_matrix(np.asarray(J, dtype=float), r, dim), eps_amg)
    strong_coarse = strong[np.ix_(fine, coarse)]
    lonely = fine[~strong_coarse.any(axis=1)]
    if lonely.size:
        raise CheckFailed(
            "amg_strong_coarse_neighbour",
            f"{lonely.size} fine nodes without a strong coarse neighbour, first {lonely[0]}",
        )
    stray = (P_raw[fine] != 0) & ~strong_coarse
    if stray.any():
        raise CheckFailed("amg_interpolation_support", "a fine row interpolates from a weak node")
    rank = np.linalg.matrix_rank(ops.prolong)
    if rank != rc:
        raise CheckFailed("amg_full_rank", f"rank {rank} for {rc} coarse nodes")
    r_scale = np.abs(P_raw.T).sum(axis=1).max()
    p_scale = np.abs(P_raw).sum(axis=1).max()
    if not np.allclose(ops.restrict, P_raw.T / r_scale, rtol=1e-14, atol=0.0):
        raise CheckFailed("amg_restriction_transpose", "R differs from P_raw^T / ||P_raw^T||_inf")
    if not np.allclose(ops.prolong, P_raw / p_scale, rtol=1e-14, atol=0.0):
        raise CheckFailed("amg_prolongation_scale", "P differs from P_raw / ||P_raw||_inf")


def two_layer_velocity(z):
    return np.where(z[:, 0] < 0.5, 20.0, 40.0)


def box_source(z):
    inside = (z > 0.25) & (z < 0.75)
    return (inside[:, 0] & inside[:, 1]).astype(float)


def check_fd_field(axis, values, nu):
    """The field solves -Lap_h u - (2 pi nu / c)^2 u = g with zero walls, where c is
    the two-layer velocity and g the box source of `helmholtz2d-two-layers`.

    Backward-error test of the five-point residual on the interior nodes:
    ||res|| <= 1e-10 (||A||_F ||u|| + ||g||), with ||A||_F of the discrete
    operator computed from its entries.
    """
    axis = np.asarray(axis, dtype=float)
    u = np.asarray(values, dtype=float)
    M = axis.size
    if u.shape != (M, M) or M < 3:
        raise CheckFailed("fd_stencil", f"field of shape {u.shape} on {M} nodes per axis")
    walls = np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]])
    if np.any(walls != 0):
        raise CheckFailed("fd_stencil", "field is not zero on the walls")
    h = axis[1] - axis[0]
    xs, ys = np.meshgrid(axis[1:-1], axis[1:-1], indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ksq = ((2.0 * np.pi * nu / two_layer_velocity(pts)) ** 2).reshape(M - 2, M - 2)
    g = box_source(pts).reshape(M - 2, M - 2)
    c = u[1:-1, 1:-1]
    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * c) / h**2
    res = -lap - ksq * c - g
    # interior neighbours per interior node: 4 minus the walls it touches
    neighbours = np.full((M - 2, M - 2), 4.0)
    for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        neighbours[edge] -= 1.0
    a_fro = np.sqrt(np.sum((4.0 / h**2 - ksq) ** 2 + neighbours / h**4))
    scale = a_fro * np.linalg.norm(c) + np.linalg.norm(g)
    if not (np.all(np.isfinite(res)) and np.linalg.norm(res) <= 1e-10 * scale):
        raise CheckFailed(
            "fd_stencil",
            f"five-point residual {np.linalg.norm(res):.3e} against 1e-10 * {scale:.3e}",
        )


def rmse_fd_nodes(params, r, axis, values):
    """RMSE of the network against the FD field at the grid nodes, no interpolation."""
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    err = network_values(params, r, pts) - np.asarray(values, dtype=float).ravel()
    return float(np.sqrt(np.mean(err**2)))


def check_fd_rmse(own, reported, agreement):
    """The program's interpolated RMSE agrees with the RMSE at the FD nodes."""
    if not (np.isfinite(own) and abs(reported - own) <= agreement * own):
        raise CheckFailed(
            "rmse_fd_nodes",
            f"reported RMSE {reported:.4e} against {own:.4e} at the FD nodes",
        )


def check_no_error(errors, solver):
    """`bench.run_seed` records a solver exception as a message; any is a failure."""
    if solver in errors:
        raise CheckFailed("solver_error", errors[solver])
