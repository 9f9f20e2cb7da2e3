"""Second-order finite-difference reference for the 2D Helmholtz benchmarks.

Solves -Lap(u) - (2*pi*nu/c(z))^2 u = g1 on the unit square with
homogeneous Dirichlet walls using the 5-point stencil, and exposes the
solution as a bilinear-interpolation field usable as the error-metric
reference where no closed-form solution exists; its nodes are a
`pde.tensor_grid`.

Two solvers, picked by the input: a velocity whose grid values do not
vary along z2 (constant, or layered in z1) gives a separable operator,
solved exactly by diagonalising its two 1D factors in numpy; any other
velocity is solved by scipy's sparse LU.  scipy is imported only in
that second path, so importing mlmnet, or building the reference for a
layered velocity, never loads it.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pde import tensor_grid


class FdSolveError(RuntimeError):
    """The discrete Helmholtz operator could not be solved reliably."""


@dataclass
class FdGrid:
    """Uniform tensor grid on [0,1]^2 with the solved field at the nodes."""

    axis: np.ndarray
    values: np.ndarray  # values[i, j] = u(axis[i], axis[j]); boundary rows are zero

    @property
    def points_per_axis(self):
        return self.axis.size

    @property
    def spacing(self):
        return self.axis[1] - self.axis[0]

    def sample(self, points):
        """Bilinear interpolation of the field at rows of `points`."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2:
            raise ValueError("sample expects points in the unit square")
        if (pts < 0).any() or (pts > 1).any():
            raise ValueError("points outside the unit square")
        h = self.spacing
        cell = np.minimum((pts // h).astype(int), self.points_per_axis - 2)
        frac = pts / h - cell
        i, j = cell[:, 0], cell[:, 1]
        tx, ty = frac[:, 0], frac[:, 1]
        v = self.values
        return (
            (1 - tx) * (1 - ty) * v[i, j]
            + tx * (1 - ty) * v[i + 1, j]
            + (1 - tx) * ty * v[i, j + 1]
            + tx * ty * v[i + 1, j + 1]
        )


def solve_helmholtz_fd(nu, velocity, rhs, points_per_axis=201):
    """Solve the discrete Helmholtz problem on a points_per_axis^2 grid.

    `velocity` and `rhs` take rows of points; the zero-order coefficient
    is k^2 = (2*pi*nu/velocity)^2.  Where k^2 is equal along z2 on every
    grid row (a velocity layered in z1, or constant) the system is solved
    by separation of variables; otherwise by a sparse direct solve.  Either
    way the five-point residual is verified, and a singular or unreliable
    solve (resonance of the discrete operator) raises FdSolveError.
    """
    if points_per_axis < 3:
        raise ValueError("need at least 3 points per axis")
    M = points_per_axis
    axis = np.linspace(0.0, 1.0, M)
    h = axis[1] - axis[0]
    inner = M - 2
    pts = tensor_grid(axis[1:-1], 2)
    ksq = ((2.0 * np.pi * nu / np.asarray(velocity(pts), dtype=float)) ** 2).reshape(inner, inner)
    b = np.asarray(rhs(pts), dtype=float).reshape(inner, inner)
    if np.all(ksq == ksq[:, :1]):
        u = _solve_layered(ksq, b, h)
    else:
        u = _solve_sparse(ksq, b, h)

    field = np.zeros((M, M))
    field[1:-1, 1:-1] = u
    residual = (
        4.0 * u - field[2:, 1:-1] - field[:-2, 1:-1] - field[1:-1, 2:] - field[1:-1, :-2]
    ) / h**2 - ksq * u - b
    # ||A||_F from the stencil entries: each node has 4 neighbours, less the walls it touches
    neighbours = np.full((inner, inner), 4.0)
    for wall in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        neighbours[wall] -= 1.0
    a_fro = float(np.sqrt(np.sum((4.0 / h**2 - ksq) ** 2 + neighbours / h**4)))
    u_norm, b_norm = float(np.linalg.norm(u)), float(np.linalg.norm(b))
    # a direct solve of a near-singular system is backward stable yet useless:
    # the solution blows up even though the residual stays small
    amplified = u_norm > 1e8 * max(b_norm, 1e-300)
    if (
        not np.all(np.isfinite(u))
        or amplified
        or float(np.linalg.norm(residual)) > 1e-10 * max(b_norm + u_norm * a_fro, 1.0)
    ):
        raise FdSolveError(
            f"discrete Helmholtz solve unreliable (near-resonant wavenumber, "
            f"max (2*pi*nu/c)^2 = {ksq.max():.6g})"
        )
    return FdGrid(axis=axis, values=field)


def _singular(ksq):
    return FdSolveError(
        f"discrete Helmholtz operator is singular (resonant wavenumber, "
        f"max (2*pi*nu/c)^2 = {ksq.max():.6g})"
    )


def _solve_layered(ksq, b, h):
    """Fast diagonalisation (Lynch, Rice & Thomas 1964) of A = Tx (x) I + I (x) Ty.

    With k^2 depending on the row i only, Tx = L - diag(k^2) and Ty = L for
    the 1D second difference L.  From Tx = Q diag(mu) Q^T and
    Ty = S diag(lam) S^T, the solution of Tx U + U Ty = B is
    U = Q ((Q^T B S) / (mu_i + lam_j)) S^T.
    """
    inner = b.shape[0]
    second = (2.0 * np.eye(inner) - np.eye(inner, k=1) - np.eye(inner, k=-1)) / h**2
    mu, Q = np.linalg.eigh(second - np.diag(ksq[:, 0]))
    lam, S = np.linalg.eigh(second)
    D = mu[:, None] + lam[None, :]  # the eigenvalues of A
    if np.abs(D).min() <= D.size * np.finfo(float).eps * np.abs(D).max():
        raise _singular(ksq)
    return Q @ ((Q.T @ b @ S) / D) @ S.T


def _solve_sparse(ksq, b, h):
    """Sparse LU (SuperLU) of the five-point matrix, for k^2 that varies along z2."""
    # here, not at module level: only this solve needs scipy
    import scipy.sparse.linalg

    inner = b.shape[0]
    n = inner * inner
    ew = np.full(n - 1, -1.0 / h**2)
    ew[inner - 1 :: inner] = 0.0  # no coupling across the y-boundary seam
    ns = np.full(n - inner, -1.0 / h**2)
    A = scipy.sparse.diags(
        [4.0 / h**2 - ksq.ravel(), ew, ew, ns, ns], [0, 1, -1, inner, -inner], format="csc"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.sparse.linalg.MatrixRankWarning)
        try:
            return scipy.sparse.linalg.spsolve(A, b.ravel()).reshape(inner, inner)
        except scipy.sparse.linalg.MatrixRankWarning as exc:
            raise _singular(ksq) from exc


def cache_path(cache_dir, nu, velocity_name, points_per_axis):
    """File path holding the cached reference keyed by its parameters."""
    return Path(cache_dir) / f"helmholtz2d_nu{nu:g}_c-{velocity_name}_n{points_per_axis}.npz"


def save_reference(path, grid):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, axis=grid.axis, values=grid.values)


def load_reference(path):
    data = np.load(path)
    return FdGrid(axis=data["axis"], values=data["values"])


def cached_reference(cache_dir, nu, velocity, velocity_name, rhs, points_per_axis=201):
    """Load the reference field from cache, solving and storing on a miss."""
    path = cache_path(cache_dir, nu, velocity_name, points_per_axis)
    if path.exists():
        return load_reference(path)
    grid = solve_helmholtz_fd(nu, velocity, rhs, points_per_axis)
    save_reference(path, grid)
    return grid
