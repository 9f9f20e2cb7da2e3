"""PDE benchmark problems and their nonlinear least-squares formulation.

A problem couples a differential operator on the unit hypercube (0,1)^dim
with Dirichlet boundary data.  Training minimizes

    loss(p) = 1/(2t) * ( ||D(z, u(p,z)) - g1(z)||^2  over interior points
                         + penalty * ||u(p,z) - g2(z)||^2  over boundary points )

which is expressed here as 0.5*||F(p)||^2 for a stacked residual vector F:
interior entries are scaled by 1/sqrt(t) and boundary entries by
sqrt(penalty/t), so the least-squares machinery never needs to know the
loss coefficients.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import network
from .network import NetworkArch, NetworkParams

OPERATORS = ("poisson", "helmholtz1d", "helmholtz2d_velocity", "sine_nonlinear", "exp_nonlinear")

# operators whose linearization depends on u itself
_NONLINEAR = ("sine_nonlinear", "exp_nonlinear")

# operator -> admissible spatial dimensions
_OPERATOR_DIMS = {
    "poisson": (1, 2),
    "helmholtz1d": (1,),
    "helmholtz2d_velocity": (2,),
    "sine_nonlinear": (1,),
    "exp_nonlinear": (2,),
}


@dataclass
class PdeProblem:
    """A stationary PDE with Dirichlet boundary conditions on (0,1)^dim."""

    name: str
    dim: int
    operator: str
    nu: float
    rhs_interior: Callable[[np.ndarray], np.ndarray]   # g1, rows -> values
    rhs_boundary: Callable[[np.ndarray], np.ndarray]   # g2
    penalty: float
    velocity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    true_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.dim not in _OPERATOR_DIMS[self.operator]:
            raise ValueError(f"operator {self.operator!r} is not defined for dim={self.dim}")
        if self.penalty <= 0:
            raise ValueError("boundary penalty must be positive")
        if self.operator == "helmholtz2d_velocity" and self.velocity is None:
            raise ValueError("helmholtz2d_velocity requires a velocity field")


@dataclass
class TrainingSet:
    """Interior and boundary collocation points, rows of shape (., dim)."""

    interior: np.ndarray
    boundary: np.ndarray

    @property
    def total(self):
        return self.interior.shape[0] + self.boundary.shape[0]


def default_penalty(nu, dim):
    """Boundary penalty weight used when none is given: 0.1 * t."""
    return 0.1 * training_set_size(nu, dim)


def training_set_size(nu, dim):
    return (2 * int(round(nu)) + 1) ** dim


def build_training_set(problem):
    """Cartesian grid with per-axis spacing 1/(2*nu); perimeter = boundary.

    The per-axis node count 2*nu+1 matches the Nyquist rate of the target
    frequency, so nu must make 2*nu an integer.
    """
    nu = problem.nu
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if abs(2 * nu - round(2 * nu)) > 1e-9:
        raise ValueError("2*nu must be an integer to build the uniform grid")
    axis = np.linspace(0.0, 1.0, int(round(2 * nu)) + 1)
    if problem.dim == 1:
        interior = axis[1:-1].reshape(-1, 1)
        boundary = np.array([[axis[0]], [axis[-1]]])
    else:
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        on_edge = (
            np.isin(pts[:, 0], (axis[0], axis[-1]))
            | np.isin(pts[:, 1], (axis[0], axis[-1]))
        )
        interior = pts[~on_edge]
        boundary = pts[on_edge]
    return TrainingSet(interior=interior, boundary=boundary)


class ResidualSystem:
    """The map p -> F(p) with Jacobian J(p) such that loss = 0.5*||F||^2."""

    def __init__(self, problem, arch, training=None):
        if problem.dim != arch.dim:
            raise ValueError("problem and architecture disagree on the spatial dimension")
        self.problem = problem
        self.arch = arch
        self.training = training if training is not None else build_training_set(problem)
        self._g1 = np.asarray(problem.rhs_interior(self.training.interior), dtype=float)
        self._g2 = np.asarray(problem.rhs_boundary(self.training.boundary), dtype=float)
        t = self.training.total
        self._int_scale = 1.0 / np.sqrt(t)
        self._bnd_scale = np.sqrt(problem.penalty / t)
        if problem.operator == "helmholtz2d_velocity":
            c = np.asarray(problem.velocity(self.training.interior), dtype=float)
            self._wavenumber_sq = (2.0 * np.pi * problem.nu / c) ** 2
        else:
            self._wavenumber_sq = None

    @property
    def m(self):
        return self.training.total

    @property
    def n(self):
        return self.arch.n_params

    def params_from(self, p):
        if isinstance(p, NetworkParams):
            return p
        return NetworkParams.from_vector(p, self.arch.n_hidden, self.arch.dim)

    # -- operator evaluation -------------------------------------------------

    def _operator_terms(self, values, laplacians):
        """D(z,u) on the interior points, given u and Lap(u) there."""
        op = self.problem.operator
        if op == "poisson":
            return -laplacians
        if op == "helmholtz1d":
            return -laplacians - self.problem.nu**2 * values
        if op == "helmholtz2d_velocity":
            return -laplacians - self._wavenumber_sq * values
        if op == "sine_nonlinear":
            return laplacians + np.sin(values)
        return laplacians + np.exp(values)

    def _operator_linearization(self, values):
        """(a, b) with dD = a*d(Lap u) + b*d(u).

        a is +-1; b is a scalar, a column over the interior points, or None
        when zero.
        """
        op = self.problem.operator
        if op == "poisson":
            return -1.0, None
        if op == "helmholtz1d":
            return -1.0, -self.problem.nu**2
        if op == "helmholtz2d_velocity":
            return -1.0, -self._wavenumber_sq[:, None]
        if op == "sine_nonlinear":
            return 1.0, np.cos(values)[:, None]
        return 1.0, np.exp(values)[:, None]

    # -- residual / Jacobian / loss -------------------------------------------
    #
    # Each evaluates the pre-activations and the activation base of a point
    # set once, and only the derivative orders its operator uses.

    def residual(self, p):
        """Stacked residual vector F(p), interior entries first."""
        params = self.params_from(p)
        zi, zb = self.training.interior, self.training.boundary
        with_values = self.problem.operator != "poisson"
        acts = network.hidden_activations(self.arch, params, zi, (2, 0) if with_values else (2,))
        laplacians = network.laplacian(params, acts[0])
        values = network.output(params, acts[1]) if with_values else None
        r_int = self._int_scale * (self._operator_terms(values, laplacians) - self._g1)
        (s0,) = network.hidden_activations(self.arch, params, zb, (0,))
        r_bnd = self._bnd_scale * (network.output(params, s0) - self._g2)
        return np.concatenate([r_int, r_bnd])

    def jacobian(self, p):
        """J(p), one row per residual entry, columns in parameter layout.

        Interior rows are (a * d(Lap u) + b * d(u)) * interior scale, element
        by element, written into one preallocated array.
        """
        params = self.params_from(p)
        zi, zb = self.training.interior, self.training.boundary
        op = self.problem.operator
        jac = np.empty((self.m, self.n))
        j_int, j_bnd = jac[: len(zi)], jac[len(zi) :]
        acts = network.hidden_activations(
            self.arch, params, zi, (2, 3) if op == "poisson" else (2, 3, 0, 1)
        )
        network.fill_laplacian_param_jacobian(params, zi, acts[0], acts[1], j_int)
        values = network.output(params, acts[2]) if op in _NONLINEAR else None
        a, b = self._operator_linearization(values)
        if b is None:
            j_int *= a * self._int_scale  # a is +-1: exactly (a * d(Lap u)) * scale
        else:
            j_int *= a
            j_val = np.empty_like(j_int)
            network.fill_value_param_jacobian(params, zi, acts[2], acts[3], j_val)
            j_val *= b
            j_int += j_val
            j_int *= self._int_scale
        s0, s1 = network.hidden_activations(self.arch, params, zb, (0, 1))
        network.fill_value_param_jacobian(params, zb, s0, s1, j_bnd)
        j_bnd *= self._bnd_scale
        return jac

    def loss(self, p):
        r = self.residual(p)
        return 0.5 * float(r @ r)

    # -- error metric ----------------------------------------------------------

    def test_grid(self, points_per_axis=100):
        """Uniform interior test grid, excluding any training points."""
        axis = np.linspace(0.0, 1.0, points_per_axis + 2)[1:-1]
        if self.problem.dim == 1:
            pts = axis.reshape(-1, 1)
        else:
            xs, ys = np.meshgrid(axis, axis, indexing="ij")
            pts = np.column_stack([xs.ravel(), ys.ravel()])
        train = np.vstack([self.training.interior, self.training.boundary])
        coincide = np.empty(pts.shape[0], dtype=bool)
        for rows in network.row_blocks(pts.shape[0], train.shape[0]):
            # close[k, i]: test point i is within 1e-12 of training row k on every axis
            close = np.abs(train[:, 0, None] - pts[rows, 0]) < 1e-12
            for j in range(1, pts.shape[1]):
                close &= np.abs(train[:, j, None] - pts[rows, j]) < 1e-12
            coincide[rows] = close.any(axis=0)
        return pts[~coincide]

    def rmse(self, p, points_per_axis=100, reference=None):
        """Root mean squared error of the network against the reference field.

        The reference is the problem's true solution unless an explicit
        `reference` is given (a callable on point rows, or an object with a
        .sample(points) method such as a finite-difference grid).
        """
        if reference is None:
            reference = self.problem.true_solution
        if reference is None:
            raise RuntimeError(
                f"problem {self.problem.name!r} has no true solution; "
                "supply a reference field for the error metric"
            )
        sample = reference.sample if hasattr(reference, "sample") else reference
        params = self.params_from(p)
        pts = self.test_grid(points_per_axis)
        if not len(pts):
            raise ValueError(
                f"the test grid of points_per_axis={points_per_axis} lies entirely on "
                "training points; choose another points_per_axis"
            )
        err = network.eval_batch(self.arch, params, pts) - np.asarray(sample(pts), dtype=float)
        return float(np.sqrt(np.mean(err**2)))


# -- problem catalogue (manufactured solutions on (0,1)^dim) -------------------


def poisson_1d(nu=20, penalty=None):
    """-u'' = g1 with true solution cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"poisson1d(nu={nu:g})",
        dim=1,
        operator="poisson",
        nu=nu,
        rhs_interior=lambda z: nu**2 * np.cos(nu * z[:, 0]),
        rhs_boundary=u,
        penalty=default_penalty(nu, 1) if penalty is None else penalty,
        true_solution=u,
    )


def poisson_2d(nu=5, penalty=None):
    """-Lap(u) = g1 with true solution cos(nu*(z1+z2))."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * (z[:, 0] + z[:, 1]))

    return PdeProblem(
        name=f"poisson2d(nu={nu:g})",
        dim=2,
        operator="poisson",
        nu=nu,
        rhs_interior=lambda z: 2.0 * nu**2 * np.cos(nu * (z[:, 0] + z[:, 1])),
        rhs_boundary=u,
        penalty=default_penalty(nu, 2) if penalty is None else penalty,
        true_solution=u,
    )


def helmholtz_1d(nu=5, penalty=None):
    """-u'' - nu^2 u = 0 with true solution sin(nu*z) + cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.sin(nu * z[:, 0]) + np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"helmholtz1d(nu={nu:g})",
        dim=1,
        operator="helmholtz1d",
        nu=nu,
        rhs_interior=lambda z: np.zeros(z.shape[0]),
        rhs_boundary=u,
        penalty=default_penalty(nu, 1) if penalty is None else penalty,
        true_solution=u,
    )


def box_source(z):
    """Unit source on the open box (0.25,0.75)^2, zero elsewhere."""
    return ((z[:, 0] > 0.25) & (z[:, 0] < 0.75) & (z[:, 1] > 0.25) & (z[:, 1] < 0.75)).astype(
        float
    )


def velocity_constant(z):
    return np.full(z.shape[0], 40.0)


def velocity_two_layers(z):
    return np.where(z[:, 0] < 0.5, 20.0, 40.0)


def velocity_four_layers(z):
    # 4 bands in z1 of width 0.25 with speeds 20/40/60/80
    band = np.clip((z[:, 0] // 0.25).astype(int), 0, 3)
    return 20.0 * (band + 1)


def velocity_sine(z):
    # deliberately extreme: c is tiny, so the zero-order coefficient
    # (2*pi*nu/c)^2 is huge; kept verbatim from the benchmark definition
    return 0.1 * np.sin(z[:, 0] + z[:, 1])


VELOCITY_FIELDS = {
    "constant": velocity_constant,
    "two-layers": velocity_two_layers,
    "four-layers": velocity_four_layers,
    "sine": velocity_sine,
}


def helmholtz_2d(nu=1, velocity="constant", penalty=None):
    """-Lap(u) - (2*pi*nu/c)^2 u = box source, homogeneous Dirichlet walls.

    No closed-form solution; the error metric needs a finite-difference
    reference field (see the fdref module).
    """
    nu = float(nu)
    if callable(velocity):
        c, vname = velocity, getattr(velocity, "__name__", "custom")
    else:
        c, vname = VELOCITY_FIELDS[velocity], velocity
    return PdeProblem(
        name=f"helmholtz2d(nu={nu:g}, c={vname})",
        dim=2,
        operator="helmholtz2d_velocity",
        nu=nu,
        rhs_interior=box_source,
        rhs_boundary=lambda z: np.zeros(z.shape[0]),
        penalty=default_penalty(nu, 2) if penalty is None else penalty,
        velocity=c,
    )


def sine_nonlinear_1d(nu=20, penalty=None):
    """u'' + sin(u) = g1 with true solution 0.1*cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return 0.1 * np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"sine-nonlinear1d(nu={nu:g})",
        dim=1,
        operator="sine_nonlinear",
        nu=nu,
        rhs_interior=lambda z: -0.1 * nu**2 * np.cos(nu * z[:, 0]) + np.sin(u(z)),
        rhs_boundary=u,
        penalty=default_penalty(nu, 1) if penalty is None else penalty,
        true_solution=u,
    )


def exp_nonlinear_2d(nu=1, penalty=None):
    """Lap(u) + e^u = g1 with true solution log(nu/(z1+z2+10))."""
    nu = float(nu)

    def u(z):
        return np.log(nu / (z[:, 0] + z[:, 1] + 10.0))

    def g1(z):
        s = z[:, 0] + z[:, 1] + 10.0
        return 2.0 / s**2 + nu / s

    return PdeProblem(
        name=f"exp-nonlinear2d(nu={nu:g})",
        dim=2,
        operator="exp_nonlinear",
        nu=nu,
        rhs_interior=g1,
        rhs_boundary=u,
        penalty=default_penalty(nu, 2) if penalty is None else penalty,
        true_solution=u,
    )
