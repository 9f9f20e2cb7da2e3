"""PDE benchmark problems and their nonlinear least-squares formulation.

A problem couples a differential operator
D(z, u) = lap_sign * Lap(u) + reaction(z, u) on the unit hypercube
(0,1)^dim with Dirichlet boundary data.  Training minimizes

    loss(p) = 1/(2t) * ( ||D(z, u(p,z)) - g1(z)||^2  over interior points
                         + penalty * ||u(p,z) - g2(z)||^2  over boundary points )

which is expressed here as 0.5*||F(p)||^2 for a stacked residual vector F:
interior entries are scaled by 1/sqrt(t) and boundary entries by
sqrt(penalty/t), so the least-squares machinery never needs to know the
loss coefficients.  The training set and the RMSE test grid are each a
`tensor_grid` of one axis.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import network
from .network import NetworkArch, NetworkParams


@dataclass
class PdeProblem:
    """A stationary PDE with Dirichlet boundary conditions on (0,1)^dim.

    The operator is D(z, u) = lap_sign * Lap(u) + reaction(z, u).  The
    reaction, None for Poisson, and its derivative reaction_du(z, u) in u
    take the interior points and the values of u there, and return a
    scalar or one value per point.  `velocity` is the wave speed of the
    Helmholtz problems, which the finite-difference reference reads.
    The boundary `penalty` defaults to 0.1 * t, t the training-set size.
    """

    name: str
    dim: int
    nu: float
    rhs_interior: Callable[[np.ndarray], np.ndarray]   # g1, rows -> values
    rhs_boundary: Callable[[np.ndarray], np.ndarray]   # g2
    penalty: Optional[float] = None
    lap_sign: int = -1
    reaction: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    reaction_du: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    velocity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    true_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.lap_sign not in (1, -1):
            raise ValueError(f"lap_sign must be +1 or -1, got {self.lap_sign!r}")
        if (self.reaction is None) != (self.reaction_du is None):
            raise ValueError("reaction and reaction_du must be given together")
        if self.penalty is None:
            self.penalty = 0.1 * training_points_per_axis(self.nu) ** self.dim
        if not self.penalty > 0:
            raise ValueError(f"boundary penalty must be positive, got {self.penalty!r}")


@dataclass
class TrainingSet:
    """Interior and boundary collocation points, rows of shape (., dim)."""

    interior: np.ndarray
    boundary: np.ndarray

    @property
    def total(self):
        return self.interior.shape[0] + self.boundary.shape[0]


def training_points_per_axis(nu):
    """Training points per axis: spacing 1/(2*nu) on [0, 1], ends included."""
    return int(round(2 * nu)) + 1


def tensor_grid(axis, dim):
    """Rows of the dim-fold tensor product of `axis`, the last coordinate varying fastest."""
    return np.column_stack([c.ravel() for c in np.meshgrid(*[axis] * dim, indexing="ij")])


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
    axis = np.linspace(0.0, 1.0, training_points_per_axis(nu))
    pts = tensor_grid(axis, problem.dim)
    on_edge = np.isin(pts, (axis[0], axis[-1])).any(axis=1)
    return TrainingSet(interior=pts[~on_edge], boundary=pts[on_edge])


class ResidualSystem:
    """The map p -> F(p) with Jacobian J(p) such that loss = 0.5*||F||^2."""

    def __init__(self, problem, arch):
        if problem.dim != arch.dim:
            raise ValueError("problem and architecture disagree on the spatial dimension")
        self.problem = problem
        self.arch = arch
        self.training = build_training_set(problem)
        self._g1 = np.asarray(problem.rhs_interior(self.training.interior), dtype=float)
        self._g2 = np.asarray(problem.rhs_boundary(self.training.boundary), dtype=float)
        t = self.training.total
        self._int_scale = 1.0 / np.sqrt(t)
        self._bnd_scale = np.sqrt(problem.penalty / t)

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

    def coarsen(self, ops):
        """The same problem and training set on the sub-network of ops.r_coarse hidden nodes."""
        arch = NetworkArch(ops.r_coarse, self.arch.dim, self.arch.activation)
        return ResidualSystem(self.problem, arch)

    # -- residual / Jacobian ---------------------------------------------------
    #
    # Each evaluates the pre-activations and the activation base of a point
    # set once, and only the derivative orders its operator uses: the
    # values of u and their parameter derivatives only with a reaction term.

    def residual(self, p):
        """Stacked residual vector F(p), interior entries first."""
        params = self.params_from(p)
        problem = self.problem
        zi, zb = self.training.interior, self.training.boundary
        with_values = problem.reaction is not None
        acts = network.hidden_activations(self.arch, params, zi, (2, 0) if with_values else (2,))
        d_int = problem.lap_sign * network.laplacian(params, acts[0])
        if with_values:
            d_int = d_int + problem.reaction(zi, network.output(params, acts[1]))
        r_int = self._int_scale * (d_int - self._g1)
        (s0,) = network.hidden_activations(self.arch, params, zb, (0,))
        r_bnd = self._bnd_scale * (network.output(params, s0) - self._g2)
        return np.concatenate([r_int, r_bnd])

    def jacobian(self, p):
        """J(p), one row per residual entry, columns in parameter layout.

        Interior rows are (lap_sign * d(Lap u) + reaction_du * d(u)) * interior
        scale, element by element, written into one preallocated array.
        """
        params = self.params_from(p)
        problem = self.problem
        zi, zb = self.training.interior, self.training.boundary
        jac = np.empty((self.m, self.n))
        j_int, j_bnd = jac[: len(zi)], jac[len(zi) :]
        with_values = problem.reaction is not None
        acts = network.hidden_activations(
            self.arch, params, zi, (2, 3, 0, 1) if with_values else (2, 3)
        )
        network.fill_laplacian_param_jacobian(params, zi, acts[0], acts[1], j_int)
        if not with_values:
            j_int *= problem.lap_sign * self._int_scale  # exactly (lap_sign * d(Lap u)) * scale
        else:
            j_int *= problem.lap_sign
            j_val = np.empty_like(j_int)
            network.fill_value_param_jacobian(params, zi, acts[2], acts[3], j_val)
            du = problem.reaction_du(zi, network.output(params, acts[2]))
            j_val *= np.reshape(du, (-1, 1))
            j_int += j_val
            j_int *= self._int_scale
        s0, s1 = network.hidden_activations(self.arch, params, zb, (0, 1))
        network.fill_value_param_jacobian(params, zb, s0, s1, j_bnd)
        j_bnd *= self._bnd_scale
        return jac

    # -- error metric ----------------------------------------------------------

    def test_grid(self, points_per_axis=100):
        """Uniform interior test grid, excluding any training points."""
        axis = np.linspace(0.0, 1.0, points_per_axis + 2)[1:-1]
        train_axis = np.linspace(0.0, 1.0, training_points_per_axis(self.problem.nu))
        # both are tensor grids: a test point is a training point when every coordinate is shared
        shared = (np.abs(axis[:, None] - train_axis) < 1e-12).any(axis=1)
        dim = self.problem.dim
        return tensor_grid(axis, dim)[~tensor_grid(shared, dim).all(axis=1)]

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


def poisson_1d(nu=20):
    """-u'' = g1 with true solution cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"poisson1d(nu={nu:g})",
        dim=1,
        nu=nu,
        rhs_interior=lambda z: nu**2 * np.cos(nu * z[:, 0]),
        rhs_boundary=u,
        true_solution=u,
    )


def poisson_2d(nu=5):
    """-Lap(u) = g1 with true solution cos(nu*(z1+z2))."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * (z[:, 0] + z[:, 1]))

    return PdeProblem(
        name=f"poisson2d(nu={nu:g})",
        dim=2,
        nu=nu,
        rhs_interior=lambda z: 2.0 * nu**2 * np.cos(nu * (z[:, 0] + z[:, 1])),
        rhs_boundary=u,
        true_solution=u,
    )


def helmholtz_1d(nu=5):
    """-u'' - nu^2 u = 0 with true solution sin(nu*z) + cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.sin(nu * z[:, 0]) + np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"helmholtz1d(nu={nu:g})",
        dim=1,
        nu=nu,
        rhs_interior=lambda z: np.zeros(z.shape[0]),
        rhs_boundary=u,
        reaction=lambda z, u: -nu**2 * u,
        reaction_du=lambda z, u: -nu**2,
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


def helmholtz_2d(nu=1, velocity="constant"):
    """-Lap(u) - (2*pi*nu/c)^2 u = box source, homogeneous Dirichlet walls.

    `velocity` names an entry of VELOCITY_FIELDS.  No closed-form
    solution; the error metric needs a finite-difference reference field
    (see the fdref module).
    """
    nu = float(nu)
    c = VELOCITY_FIELDS[velocity]

    def wavenumber_sq(z):
        return (2.0 * np.pi * nu / np.asarray(c(z), dtype=float)) ** 2

    return PdeProblem(
        name=f"helmholtz2d(nu={nu:g}, c={velocity})",
        dim=2,
        nu=nu,
        rhs_interior=box_source,
        rhs_boundary=lambda z: np.zeros(z.shape[0]),
        reaction=lambda z, u: -wavenumber_sq(z) * u,
        reaction_du=lambda z, u: -wavenumber_sq(z),
        velocity=c,
    )


def sine_nonlinear_1d(nu=20):
    """u'' + sin(u) = g1 with true solution 0.1*cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return 0.1 * np.cos(nu * z[:, 0])

    return PdeProblem(
        name=f"sine-nonlinear1d(nu={nu:g})",
        dim=1,
        nu=nu,
        rhs_interior=lambda z: -0.1 * nu**2 * np.cos(nu * z[:, 0]) + np.sin(u(z)),
        rhs_boundary=u,
        lap_sign=1,
        reaction=lambda z, u: np.sin(u),
        reaction_du=lambda z, u: np.cos(u),
        true_solution=u,
    )


def exp_nonlinear_2d(nu=1):
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
        nu=nu,
        rhs_interior=g1,
        rhs_boundary=u,
        lap_sign=1,
        reaction=lambda z, u: np.exp(u),
        reaction_du=lambda z, u: np.exp(u),
        true_solution=u,
    )
