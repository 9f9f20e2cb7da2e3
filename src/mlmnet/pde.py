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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import network
from .activations import ladder
from .network import NetworkArch

# The largest Jacobian, in bytes, a ResidualSystem may ask for: its m x n
# doubles, m training points by n network parameters.
MAX_JACOBIAN_BYTES = 2**30

# The paper's boundary penalty, PENALTY_FACTOR times the training-set size,
# and the points per axis of the RMSE test grid.  Read at call time, so a
# side script may patch one.
PENALTY_FACTOR = 0.1
TEST_POINTS_PER_AXIS = 100


@dataclass
class PdeProblem:
    """A stationary PDE with Dirichlet boundary conditions on (0,1)^dim.

    The operator is D(z, u) = lap_sign * Lap(u) + reaction(z, u).  The
    reaction, None for Poisson, and its derivative reaction_du(z, u) in u
    take the interior points and the values of u there, and return a
    scalar or one value per point.  `velocity` is the wave speed of the
    Helmholtz problems, which the finite-difference reference reads.
    The boundary `penalty` is set on construction to PENALTY_FACTOR * t,
    t the training-set size.
    """

    dim: int
    nu: float
    rhs_interior: Callable[[np.ndarray], np.ndarray]   # g1, rows -> values
    rhs_boundary: Callable[[np.ndarray], np.ndarray]   # g2
    lap_sign: int = -1
    reaction: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    reaction_du: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    velocity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    true_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None
    penalty: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if self.nu < 0:
            raise ValueError(f"nu must be non-negative, got {self.nu!r}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.lap_sign not in (1, -1):
            raise ValueError(f"lap_sign must be +1 or -1, got {self.lap_sign!r}")
        if (self.reaction is None) != (self.reaction_du is None):
            raise ValueError("reaction and reaction_du must be given together")
        # t = (2 nu + 1)^dim in integers, as one Jacobian column must fit the
        # limit; nu is bounded first so that 2 nu stays a finite float
        if (
            self.nu > MAX_JACOBIAN_BYTES
            or 8 * training_points_per_axis(self.nu) ** self.dim > MAX_JACOBIAN_BYTES
        ):
            raise ValueError(
                f"nu={self.nu:g} asks for more than {MAX_JACOBIAN_BYTES // 8} training points, "
                f"so one Jacobian column alone exceeds MAX_JACOBIAN_BYTES = {MAX_JACOBIAN_BYTES}"
            )
        self.penalty = PENALTY_FACTOR * training_points_per_axis(self.nu) ** self.dim


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
        t = training_points_per_axis(problem.nu) ** problem.dim
        if 8 * t * arch.n_params > MAX_JACOBIAN_BYTES:
            raise ValueError(
                f"the Jacobian of nu={problem.nu:g} and r={arch.n_hidden}, {t} rows by "
                f"{arch.n_params} columns, exceeds MAX_JACOBIAN_BYTES = {MAX_JACOBIAN_BYTES}"
            )
        self.problem = problem
        self.arch = arch
        self.training = build_training_set(problem)
        self._g1 = np.asarray(problem.rhs_interior(self.training.interior), dtype=float)
        self._g2 = np.asarray(problem.rhs_boundary(self.training.boundary), dtype=float)
        t = self.training.total
        self._int_scale = 1.0 / np.sqrt(t)
        self._bnd_scale = np.sqrt(problem.penalty / t)
        self._base_key, self._bases = None, None

    @property
    def m(self):
        return self.training.total

    @property
    def n(self):
        return self.arch.n_params

    def coarsen(self, ops):
        """The same problem and training set on the sub-network of ops.r_coarse hidden nodes."""
        arch = NetworkArch(ops.r_coarse, self.arch.dim)
        return ResidualSystem(self.problem, arch)

    # -- residual / Jacobian ---------------------------------------------------
    #
    # Both read the activation base tanh(pre/2) of the interior and the
    # boundary points from `_activation_bases`, which keeps the bases of the
    # last parameter vector evaluated: the Jacobian at an accepted trial
    # point reuses what the trial's residual formed.  Each derives only the
    # derivative orders its operator uses: the values of u and their
    # parameter derivatives only with a reaction term.

    def _activation_bases(self, params, p):
        """The activation bases (interior, boundary) at p, read-only (t, n_hidden) arrays.

        They are kept for the last vector evaluated, keyed by the dtype and
        bytes of its values (a private copy, so a caller that writes to its
        vector in place gets fresh bases, and -0.0 is not taken for 0.0).
        """
        key = (p.dtype.str, p.tobytes())
        if key != self._base_key:
            bases = tuple(
                network.activation_base(params, z)
                for z in (self.training.interior, self.training.boundary)
            )
            for base in bases:
                base.flags.writeable = False
            self._base_key, self._bases = key, bases
        return self._bases

    def release_bases(self):
        """Drop the kept activation bases; the next evaluation forms them again."""
        self._base_key, self._bases = None, None

    def residual(self, p):
        """Stacked residual vector F(p), interior entries first."""
        params = network.unpack(self.arch, p)
        problem = self.problem
        base_int, base_bnd = self._activation_bases(params, p)
        (s2,) = ladder(base_int, (2,))
        d_int = problem.lap_sign * network.laplacian(params, s2)
        if problem.reaction is not None:
            d_int = d_int + problem.reaction(
                self.training.interior, network.output(params, base_int)
            )
        r_int = self._int_scale * (d_int - self._g1)
        r_bnd = self._bnd_scale * (network.output(params, base_bnd) - self._g2)
        return np.concatenate([r_int, r_bnd])

    def jacobian(self, p):
        """J(p), one row per residual entry, columns in parameter layout, a new array.

        Interior rows are (lap_sign * d(Lap u) + reaction_du * d(u)) * interior
        scale, element by element, written into one preallocated array.
        """
        params = network.unpack(self.arch, p)
        problem = self.problem
        zi, zb = self.training.interior, self.training.boundary
        base_int, base_bnd = self._activation_bases(params, p)
        jac = np.empty((self.m, self.n))
        j_int, j_bnd = jac[: len(zi)], jac[len(zi) :]
        with_values = problem.reaction is not None
        acts = ladder(base_int, (2, 3, 1) if with_values else (2, 3))
        network.fill_laplacian_param_jacobian(params, zi, acts[0], acts[1], j_int)
        if not with_values:
            j_int *= problem.lap_sign * self._int_scale  # exactly (lap_sign * d(Lap u)) * scale
        else:
            j_int *= problem.lap_sign
            j_val = np.empty_like(j_int)
            network.fill_value_param_jacobian(params, zi, base_int, acts[2], j_val)
            du = problem.reaction_du(zi, network.output(params, base_int))
            j_val *= np.reshape(du, (-1, 1))
            j_int += j_val
            j_int *= self._int_scale
        (s1,) = ladder(base_bnd, (1,))
        network.fill_value_param_jacobian(params, zb, base_bnd, s1, j_bnd)
        j_bnd *= self._bnd_scale
        return jac

    # -- error metric ----------------------------------------------------------

    def test_grid(self):
        """Uniform interior test grid, excluding any training points.

        It has TEST_POINTS_PER_AXIS points per axis before the exclusion.
        Raises ValueError when no point is left, so no error metric is
        taken over an empty grid.
        """
        points_per_axis = TEST_POINTS_PER_AXIS
        axis = np.linspace(0.0, 1.0, points_per_axis + 2)[1:-1]
        train_axis = np.linspace(0.0, 1.0, training_points_per_axis(self.problem.nu))
        # both are tensor grids: a test point is a training point when every coordinate is shared
        shared = (np.abs(axis[:, None] - train_axis) < 1e-12).any(axis=1)
        dim = self.problem.dim
        pts = tensor_grid(axis, dim)[~tensor_grid(shared, dim).all(axis=1)]
        if not len(pts):
            raise ValueError(
                f"the test grid of TEST_POINTS_PER_AXIS={points_per_axis} lies entirely on "
                f"training points when nu={self.problem.nu:g}"
            )
        return pts

    def rmse(self, p, reference):
        """Root mean squared error of the network against `reference`.

        `reference` is a callable on point rows, such as the problem's
        true solution or a finite-difference grid's `sample`
        (`bench.reference_for` picks one).  The error is taken over
        `test_grid()`, TEST_POINTS_PER_AXIS per axis.
        """
        pts = self.test_grid()
        err = network.eval_batch(self.arch, p, pts) - np.asarray(reference(pts), dtype=float)
        return float(np.sqrt(np.mean(err**2)))


# -- problem catalogue (manufactured solutions on (0,1)^dim) -------------------


def poisson_1d(nu):
    """-u'' = g1 with true solution cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * z[:, 0])

    return PdeProblem(
        dim=1,
        nu=nu,
        rhs_interior=lambda z: nu**2 * np.cos(nu * z[:, 0]),
        rhs_boundary=u,
        true_solution=u,
    )


def poisson_2d(nu):
    """-Lap(u) = g1 with true solution cos(nu*(z1+z2))."""
    nu = float(nu)

    def u(z):
        return np.cos(nu * (z[:, 0] + z[:, 1]))

    return PdeProblem(
        dim=2,
        nu=nu,
        rhs_interior=lambda z: 2.0 * nu**2 * np.cos(nu * (z[:, 0] + z[:, 1])),
        rhs_boundary=u,
        true_solution=u,
    )


def helmholtz_1d(nu):
    """-u'' - nu^2 u = 0 with true solution sin(nu*z) + cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return np.sin(nu * z[:, 0]) + np.cos(nu * z[:, 0])

    return PdeProblem(
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


def helmholtz_2d(nu, velocity):
    """-Lap(u) - (2*pi*nu/c)^2 u = box source, homogeneous Dirichlet walls.

    `velocity` is the wave speed c, a function of point rows such as
    `velocity_two_layers`.  No closed-form solution; the error metric
    needs a finite-difference reference field (see the fdref module).
    """
    nu = float(nu)

    def wavenumber_sq(z):
        return (2.0 * np.pi * nu / np.asarray(velocity(z), dtype=float)) ** 2

    return PdeProblem(
        dim=2,
        nu=nu,
        rhs_interior=box_source,
        rhs_boundary=lambda z: np.zeros(z.shape[0]),
        reaction=lambda z, u: -wavenumber_sq(z) * u,
        reaction_du=lambda z, u: -wavenumber_sq(z),
        velocity=velocity,
    )


def sine_nonlinear_1d(nu):
    """u'' + sin(u) = g1 with true solution 0.1*cos(nu*z)."""
    nu = float(nu)

    def u(z):
        return 0.1 * np.cos(nu * z[:, 0])

    return PdeProblem(
        dim=1,
        nu=nu,
        rhs_interior=lambda z: -0.1 * nu**2 * np.cos(nu * z[:, 0]) + np.sin(u(z)),
        rhs_boundary=u,
        lap_sign=1,
        reaction=lambda z, u: np.sin(u),
        reaction_du=lambda z, u: np.cos(u),
        true_solution=u,
    )


def exp_nonlinear_2d(nu):
    """Lap(u) + e^u = g1 with true solution log(nu/(z1+z2+10))."""
    nu = float(nu)

    def u(z):
        return np.log(nu / (z[:, 0] + z[:, 1] + 10.0))

    def g1(z):
        s = z[:, 0] + z[:, 1] + 10.0
        return 2.0 / s**2 + nu / s

    return PdeProblem(
        dim=2,
        nu=nu,
        rhs_interior=g1,
        rhs_boundary=u,
        lap_sign=1,
        reaction=lambda z, u: np.exp(u),
        reaction_du=lambda z, u: np.exp(u),
        true_solution=u,
    )
