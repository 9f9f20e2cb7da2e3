"""Second-order finite-difference reference for the 2D Helmholtz benchmarks.

Solves -Lap(u) - (2*pi*nu/c(z))^2 u = g1 on the unit square with
homogeneous Dirichlet walls using the 5-point stencil, and exposes the
solution as a bilinear-interpolation field usable as the error-metric
reference where no closed-form solution exists.

scipy's sparse solver is imported inside `solve_helmholtz_fd`, not at
module level, so that importing mlmnet, or running a problem with a
closed-form solution, never loads scipy.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np


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
    is (2*pi*nu/velocity)^2.  The sparse system is solved directly and
    the discrete residual verified; an unreliable solve (resonance of the
    discrete operator) raises FdSolveError.
    """
    if points_per_axis < 3:
        raise ValueError("need at least 3 points per axis")
    M = points_per_axis
    axis = np.linspace(0.0, 1.0, M)
    h = axis[1] - axis[0]
    inner = M - 2
    xs, ys = np.meshgrid(axis[1:-1], axis[1:-1], indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ksq = (2.0 * np.pi * nu / np.asarray(velocity(pts), dtype=float)) ** 2

    n = inner * inner
    main = 4.0 / h**2 - ksq
    ew = np.full(n - 1, -1.0 / h**2)
    ew[inner - 1 :: inner] = 0.0  # no coupling across the y-boundary seam
    ns = np.full(n - inner, -1.0 / h**2)
    import scipy.sparse.linalg  # here, not at module level: only this solve needs scipy

    A = scipy.sparse.diags(
        [main, ew, ew, ns, ns], [0, 1, -1, inner, -inner], format="csc"
    )
    b = np.asarray(rhs(pts), dtype=float)

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.sparse.linalg.MatrixRankWarning)
        try:
            u = scipy.sparse.linalg.spsolve(A, b)
        except scipy.sparse.linalg.MatrixRankWarning as exc:
            raise FdSolveError(
                f"discrete Helmholtz operator is singular (resonant wavenumber, "
                f"max (2*pi*nu/c)^2 = {ksq.max():.6g})"
            ) from exc
    residual = A @ u - b
    scale = float(np.linalg.norm(b)) + float(np.linalg.norm(u)) * scipy.sparse.linalg.norm(A)
    # a direct solve of a near-singular system is backward stable yet useless:
    # the solution blows up even though the residual stays small
    amplified = float(np.linalg.norm(u)) > 1e8 * max(float(np.linalg.norm(b)), 1e-300)
    if (
        not np.all(np.isfinite(u))
        or amplified
        or float(np.linalg.norm(residual)) > 1e-10 * max(scale, 1.0)
    ):
        raise FdSolveError(
            f"discrete Helmholtz solve unreliable (near-resonant wavenumber, "
            f"max (2*pi*nu/c)^2 = {ksq.max():.6g})"
        )

    field = np.zeros((M, M))
    field[1:-1, 1:-1] = u.reshape(inner, inner)
    return FdGrid(axis=axis, values=field)


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
