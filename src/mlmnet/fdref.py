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

import os
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pde

# The points per axis of a campaign's reference field, unless `fd_resolution` is set.
RESOLUTION = 201

# The peak memory of a solve, as a count of (M-2) x (M-2) arrays of doubles,
# with headroom over the larger of the two solvers: the sparse LU peaked at
# 201, 227 and 242 arrays at M = 201, 401 and 670, the layered solve at 20
# or fewer (growth of the peak resident set in a fresh process per solve).
PEAK_ARRAYS = 300


class FdSolveError(RuntimeError):
    """The discrete Helmholtz operator could not be solved reliably."""


@dataclass
class FdGrid:
    """Uniform tensor grid on [0,1]^2 with the solved field at the nodes."""

    axis: np.ndarray
    values: np.ndarray  # values[i, j] = u(axis[i], axis[j]); boundary rows are zero

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
        cell = np.minimum((pts // h).astype(int), self.axis.size - 2)
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


def check_resolution(points_per_axis, name):
    """Raise ValueError naming the setting `name` unless M = points_per_axis is solvable.

    The grid needs 3 points per axis for one interior node, and the peak
    of either solver, PEAK_ARRAYS arrays of (M-2) x (M-2) doubles, must fit
    the Jacobian's limit pde.MAX_JACOBIAN_BYTES: at 2**30 bytes the largest
    M is 670.  The count is taken in integers, before any array is built.
    """
    if points_per_axis < 3:
        raise ValueError(f"{name} must be at least 3 points per axis, got {points_per_axis}")
    inner = points_per_axis - 2
    if PEAK_ARRAYS * 8 * inner**2 > pde.MAX_JACOBIAN_BYTES:
        raise ValueError(
            f"{name}={points_per_axis} asks for a peak of {PEAK_ARRAYS} arrays of "
            f"{inner} x {inner} doubles, above MAX_JACOBIAN_BYTES = {pde.MAX_JACOBIAN_BYTES}"
        )


def solve_helmholtz_fd(nu, velocity, rhs, points_per_axis):
    """Solve the discrete Helmholtz problem on a points_per_axis^2 grid.

    `velocity` and `rhs` take rows of points; the zero-order coefficient
    is k^2 = (2*pi*nu/velocity)^2.  `points_per_axis` must pass
    `check_resolution`, checked first.  Where k^2 is equal along z2 on
    every grid row (a velocity layered in z1, or constant) the system is
    solved by separation of variables; otherwise by a sparse direct solve.
    Either way the five-point residual is verified, and a singular or
    unreliable solve (resonance of the discrete operator) raises
    FdSolveError.
    """
    check_resolution(points_per_axis, "points_per_axis")
    M = points_per_axis
    axis = np.linspace(0.0, 1.0, M)
    h = axis[1] - axis[0]
    inner = M - 2
    pts = pde.tensor_grid(axis[1:-1], 2)
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


def cache_path(cache_dir, name, nu, points_per_axis):
    """`<name>_nu<nu>_n<M>.npz` in cache_dir, `name` a registry id: helmholtz2d-sine_nu2_n201.npz

    nu is written to 17 significant digits, so distinct floats get distinct
    files, and an integer or half-integer nu reads as before (2, 2.5).
    """
    return Path(cache_dir) / f"{name}_nu{nu:.17g}_n{points_per_axis}.npz"


def save_reference(path, grid):
    """Store `grid` at `path` whole or not at all.

    The field is written under a temporary name beside `path`, one that
    does not end in `.npz` (so a listing of the cache's fields skips it),
    and renamed over `path` once complete, so an interrupted save, or a
    reader that races it, never meets a partial file; a failed save
    removes its temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.part")
    try:
        with open(partial, "wb") as stream:
            np.savez(stream, axis=grid.axis, values=grid.values)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_reference(path):
    """The field stored at `path` by `save_reference`.

    Raises ValueError when the file holds no .npz archive (or pickled
    data), KeyError when the archive lacks `axis` or `values`, and EOFError
    or zipfile.BadZipFile when the file is cut short or damaged.
    """
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} holds no .npz archive")
    with data:
        return FdGrid(axis=data["axis"], values=data["values"])


# what load_reference raises on a file damaged other than by its own save
DAMAGED_FILE_ERRORS = (EOFError, KeyError, ValueError, zipfile.BadZipFile)


def cached_reference(cache_dir, name, problem, points_per_axis):
    """The FD field of `problem`, id `name`: read from `cache_path`, or solved and saved there.

    A file that does not load as a field of points_per_axis points per
    axis (cut short, damaged, or of another size) is solved again and
    replaced; any other error of the read propagates.
    """
    M = points_per_axis
    path = cache_path(cache_dir, name, problem.nu, M)
    if path.exists():
        try:
            grid = load_reference(path)
        except DAMAGED_FILE_ERRORS:
            pass
        else:
            if grid.axis.shape == (M,) and grid.values.shape == (M, M):
                return grid
    grid = solve_helmholtz_fd(problem.nu, problem.velocity, problem.rhs_interior, M)
    save_reference(path, grid)
    return grid
