import numpy as np
import pytest

from mlmnet import network, pde
from mlmnet.amg import build_transfer_operators
from mlmnet.bench import PROBLEMS
from mlmnet.network import NetworkArch
from mlmnet.pde import (
    PdeProblem,
    ResidualSystem,
    build_training_set,
    exp_nonlinear_2d,
    helmholtz_1d,
    helmholtz_2d,
    poisson_1d,
    poisson_2d,
    sine_nonlinear_1d,
    tensor_grid,
    velocity_constant,
    velocity_four_layers,
    velocity_sine,
    velocity_two_layers,
)

from conftest import call_on_one_blas_thread, fd_gradient, fd_jacobian, rel_err

# constant-solution problem kind -> (lap_sign, reaction, reaction_du)
CONSTANT_SOLUTION_KINDS = {
    "poisson": (-1, None, None),
    "sine_nonlinear": (1, lambda z, u: np.sin(u), lambda z, u: np.cos(u)),
    "exp_nonlinear": (1, lambda z, u: np.exp(u), lambda z, u: np.exp(u)),
}


def constant_solution_problem(kind, dim, value):
    """A problem whose exact solution is the constant `value`, so g1 = reaction(value)."""
    lap_sign, reaction, reaction_du = CONSTANT_SOLUTION_KINDS[kind]
    g1 = 0.0 if reaction is None else reaction(None, value)
    return PdeProblem(
        dim=dim,
        nu=2,
        rhs_interior=lambda z: np.full(z.shape[0], g1),
        rhs_boundary=lambda z: np.full(z.shape[0], value),
        lap_sign=lap_sign,
        reaction=reaction,
        reaction_du=reaction_du,
        true_solution=lambda z: np.full(z.shape[0], value),
    )


# test id -> problem
ALL_PROBLEMS = {
    "poisson1d(nu=3)": poisson_1d(nu=3),
    "poisson2d(nu=2)": poisson_2d(nu=2),
    "helmholtz1d(nu=3)": helmholtz_1d(nu=3),
    "helmholtz2d(nu=2, c=constant)": helmholtz_2d(nu=2, velocity=velocity_constant),
    "helmholtz2d(nu=2, c=two-layers)": helmholtz_2d(nu=2, velocity=velocity_two_layers),
    "helmholtz2d(nu=2, c=four-layers)": helmholtz_2d(nu=2, velocity=velocity_four_layers),
    "helmholtz2d(nu=2, c=sine)": helmholtz_2d(nu=2, velocity=velocity_sine),
    "sine-nonlinear1d(nu=3)": sine_nonlinear_1d(nu=3),
    "exp-nonlinear2d(nu=1)": exp_nonlinear_2d(nu=1),
    "const-sine_nonlinear-2d": constant_solution_problem("sine_nonlinear", 2, 0.3),
}


def small_system(problem, r=8):
    return ResidualSystem(problem, NetworkArch(r, problem.dim))


def constant_network(system, value):
    """Parameter vector of the constant network `value`: zero output weights, output bias `value`."""
    r, dim = system.arch.n_hidden, system.arch.dim
    return np.concatenate([np.zeros(r), np.ones(dim * r), np.zeros(r), [value]])


# -- training grids -------------------------------------------------------------


def test_training_grid_1d_nu20():
    ts = build_training_set(poisson_1d(nu=20))
    assert ts.total == 41
    assert ts.boundary.shape == (2, 1)
    spacing = np.diff(np.sort(np.vstack([ts.interior, ts.boundary])[:, 0]))
    assert np.allclose(spacing, 0.025)


def test_training_grid_1d_nu1():
    prob = poisson_1d(nu=1)
    ts = build_training_set(prob)
    pts = np.sort(np.vstack([ts.interior, ts.boundary])[:, 0])
    assert np.allclose(pts, [0.0, 0.5, 1.0])


def test_training_grid_2d_nu5():
    ts = build_training_set(poisson_2d(nu=5))
    assert ts.total == 121
    assert ts.boundary.shape[0] == 40
    assert ts.interior.shape[0] == 81


def test_default_penalty_is_tenth_of_grid_size():
    assert poisson_1d(nu=20).penalty == pytest.approx(0.1 * 41)
    assert poisson_2d(nu=5).penalty == pytest.approx(0.1 * 121)


@pytest.mark.parametrize("factory", [poisson_1d, poisson_2d])
@pytest.mark.parametrize("nu", [1.5, 2.5, 3, 3.5])
def test_default_penalty_counts_the_training_grid_it_weighs(factory, nu):
    # a half-integer nu lays round(2 nu) + 1 points per axis, not 2 round(nu) + 1
    problem = factory(nu=nu)
    assert problem.penalty == 0.1 * build_training_set(problem).total


# -- residual vector ------------------------------------------------------------


def half_squared_norm(system, p):
    """The loss 0.5*||F||^2 at p."""
    F = system.residual(p)
    return 0.5 * float(F @ F)


def loss_and_gradient(system, p):
    """(0.5*||F||^2, J^T F) at p."""
    return half_squared_norm(system, p), system.jacobian(p).T @ system.residual(p)


@pytest.mark.parametrize(
    "kind,dim,value",
    [("poisson", 1, 0.8), ("poisson", 2, -0.4), ("sine_nonlinear", 1, 0.3), ("exp_nonlinear", 2, 0.6),
     ("sine_nonlinear", 2, 0.3)],
)
def test_exact_constant_solution_has_zero_residual(kind, dim, value):
    system = small_system(constant_solution_problem(kind, dim, value))
    p = constant_network(system, value)
    assert np.allclose(system.residual(p), 0.0, atol=1e-14)
    loss, grad = loss_and_gradient(system, p)
    assert loss == pytest.approx(0.0, abs=1e-25)
    assert np.allclose(grad, 0.0, atol=1e-13)


def test_loss_identity_against_direct_formula(rng):
    # 0.5*||F||^2 recomputed from the loss definition with its coefficients
    for problem in (
        poisson_1d(nu=3), sine_nonlinear_1d(nu=3), helmholtz_2d(nu=2, velocity=velocity_constant)
    ):
        system = small_system(problem)
        for _ in range(17):
            x = rng.uniform(-1, 1, system.n)
            half_norm = 0.5 * float(system.residual(x) @ system.residual(x))

            from mlmnet import network

            zi, zb = system.training.interior, system.training.boundary
            values = network.eval_batch(system.arch, x, zi)
            lap = network.laplacian_batch(system.arch, x, zi)
            op = operator_terms(problem, zi, values, lap)
            t = system.training.total
            direct = (
                np.sum((op - problem.rhs_interior(zi)) ** 2)
                + problem.penalty
                * np.sum((network.eval_batch(system.arch, x, zb) - problem.rhs_boundary(zb)) ** 2)
            ) / (2.0 * t)
            assert abs(half_norm - direct) < 1e-12 * (1.0 + direct)


def test_boundary_entries_scale_with_sqrt_penalty(rng, monkeypatch):
    base = poisson_1d(nu=3)
    monkeypatch.setattr(pde, "PENALTY_FACTOR", 2 * pde.PENALTY_FACTOR)
    doubled = poisson_1d(nu=3)
    assert doubled.penalty == 2 * base.penalty
    arch = NetworkArch(4, 1)
    s1, s2 = ResidualSystem(base, arch), ResidualSystem(doubled, arch)
    x = rng.uniform(-1, 1, s1.n)
    r1, r2 = s1.residual(x), s2.residual(x)
    n_int = s1.training.interior.shape[0]
    assert np.allclose(r1[:n_int], r2[:n_int])
    assert np.allclose(np.sqrt(2.0) * r1[n_int:], r2[n_int:])


# -- Jacobian -------------------------------------------------------------------


@pytest.mark.parametrize("problem", ALL_PROBLEMS.values(), ids=ALL_PROBLEMS.keys())
def test_jacobian_matches_finite_differences(rng, problem):
    system = small_system(problem, r=8)
    x = rng.uniform(-1, 1, system.n)
    J = system.jacobian(x)
    assert J.shape == (system.m, system.n)
    J_fd = fd_jacobian(system.residual, x, h=1e-6)
    assert rel_err(J, J_fd) < 1e-6


@pytest.mark.parametrize("problem", ALL_PROBLEMS.values(), ids=ALL_PROBLEMS.keys())
def test_params_are_views_of_the_parameter_vector(rng, problem):
    system = small_system(problem, r=8)
    x = rng.uniform(-1, 1, system.n)
    params = network.unpack(system.arch, x)
    for weights in (params.out_weights, params.in_weights, params.hidden_bias):
        assert np.shares_memory(weights, x)
        assert weights.flags.c_contiguous
    before = x.copy()
    system.residual(x)
    system.jacobian(x)
    assert np.array_equal(x, before)


def test_output_bias_column_structure(rng):
    system = small_system(poisson_1d(nu=3), r=4)
    x = rng.uniform(-1, 1, system.n)
    J = system.jacobian(x)
    n_int = system.training.interior.shape[0]
    # the Laplacian kills constants on interior rows; boundary rows see the bias directly
    assert np.allclose(J[:n_int, -1], 0.0)
    expected = np.sqrt(system.problem.penalty / system.training.total)
    assert np.allclose(J[n_int:, -1], expected)


def test_gradient_matches_finite_differences(rng):
    system = small_system(sine_nonlinear_1d(nu=3), r=5)
    x = rng.uniform(-1, 1, system.n)
    loss, grad = loss_and_gradient(system, x)
    assert loss >= 0.0
    fd = fd_gradient(lambda y: half_squared_norm(system, y), x, h=1e-6)
    assert rel_err(grad, fd) < 1e-6


# -- bit identity with the per-quantity network evaluations ------------------------


def operator_terms(problem, z, values, laplacians):
    """D(z, u) = lap_sign * Lap(u) + reaction(z, u), given u and Lap(u) at the points z."""
    terms = problem.lap_sign * laplacians
    if problem.reaction is not None:
        terms = terms + problem.reaction(z, values)
    return terms


def reference_residual(system, p):
    """F(p) composed of one network.*_batch call per quantity: the reference."""
    arch = system.arch
    zi, zb = system.training.interior, system.training.boundary
    values = network.eval_batch(arch, p, zi)
    laplacians = network.laplacian_batch(arch, p, zi)
    r_int = system._int_scale * (operator_terms(system.problem, zi, values, laplacians) - system._g1)
    r_bnd = system._bnd_scale * (network.eval_batch(arch, p, zb) - system._g2)
    return np.concatenate([r_int, r_bnd])


def reference_jacobian(system, p):
    """J(p) composed of one network.*_batch call per quantity: the reference."""
    arch = system.arch
    zi, zb = system.training.interior, system.training.boundary
    problem = system.problem
    j_int = problem.lap_sign * network.laplacian_param_jacobian_batch(arch, p, zi)
    if problem.reaction is not None:
        du = np.broadcast_to(problem.reaction_du(zi, network.eval_batch(arch, p, zi)), len(zi))
        j_int += du[:, None] * network.value_param_jacobian_batch(arch, p, zi)
    j_int *= system._int_scale
    j_bnd = system._bnd_scale * network.value_param_jacobian_batch(arch, p, zb)
    return np.vstack([j_int, j_bnd])


def fused_evaluation_mismatches():
    """(problem, seed, quantity) cases where residual or jacobian differ from the reference."""
    rng = np.random.default_rng(7)
    # poisson2d at r=1024 spans several eval_batch row blocks per point set
    problems = [
        ("poisson1d", poisson_1d(nu=10), 64), ("poisson2d", poisson_2d(nu=5), 1024),
        ("helmholtz1d", helmholtz_1d(nu=3), 32),
        ("helmholtz2d-two-layers", helmholtz_2d(nu=2, velocity=velocity_two_layers), 100),
        ("sine1d", sine_nonlinear_1d(nu=5), 48), ("exp2d", exp_nonlinear_2d(nu=1), 40),
    ]
    mismatches = []
    for name, problem, r in problems:
        system = small_system(problem, r=r)
        for seed in range(2):
            x = rng.uniform(-1, 1, system.n)
            if not np.array_equal(system.residual(x), reference_residual(system, x)):
                mismatches.append((name, seed, "residual"))
            if not np.array_equal(system.jacobian(x), reference_jacobian(system, x)):
                mismatches.append((name, seed, "jacobian"))
    return mismatches


def test_residual_and_jacobian_are_bit_identical_to_per_quantity_evaluation():
    assert call_on_one_blas_thread("test_pde", "fused_evaluation_mismatches") == "[]"


# -- the kept activation bases ---------------------------------------------------


def assert_same_as_fresh(system, p, build):
    """The residual and the Jacobian of `system` at p equal those of a fresh system from `build`."""
    assert np.array_equal(system.residual(p), build().residual(p))
    assert np.array_equal(system.jacobian(p), build().jacobian(p))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_kept_bases_give_the_bits_of_a_fresh_system(name, rng):
    problem = PROBLEMS[name].factory(PROBLEMS[name].default_nu)
    fine = small_system(problem, r=12)
    ops = build_transfer_operators(fine.jacobian(rng.uniform(-1, 1, fine.n)), fine.arch)
    coarse = fine.coarsen(ops)
    for system, build in ((fine, lambda: small_system(problem, r=12)),
                          (coarse, lambda: fine.coarsen(ops))):
        a, b = rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n)
        # a trial residual, then the Jacobian at the accepted point, as a new object
        assert np.array_equal(system.residual(a), build().residual(a))
        assert np.array_equal(system.jacobian(a.copy()), build().jacobian(a))
        # interleaved points A, B, A
        for p in (a, b, a):
            assert_same_as_fresh(system, p, build)
        # the caller writes to its vector in place between calls (a hidden bias)
        system.residual(a)
        a[-2] += 0.25
        assert np.array_equal(system.jacobian(a), build().jacobian(a))
        assert_same_as_fresh(system, a, build)
        # a Jacobian at a point no residual was taken at
        c = rng.uniform(-1, 1, system.n)
        assert np.array_equal(system.jacobian(c), build().jacobian(c))
        assert np.array_equal(system.residual(c), build().residual(c))


def test_the_jacobian_after_the_residual_forms_no_base(rng, monkeypatch):
    system = small_system(helmholtz_1d(nu=3))
    bases = []
    activation_base = network.activation_base

    def counting_base(params, points):
        bases.append(len(points))
        return activation_base(params, points)

    monkeypatch.setattr(network, "activation_base", counting_base)
    n_int, n_bnd = len(system.training.interior), len(system.training.boundary)
    p = rng.uniform(-1, 1, system.n)
    p[0] = 0.0
    system.residual(p)
    assert bases == [n_int, n_bnd]
    system.jacobian(p.copy())  # equal values, another object
    system.residual(p)
    assert bases == [n_int, n_bnd]
    # values that compare equal but differ in their bits (-0.0) are another point
    q = p.copy()
    q[0] = -0.0
    system.jacobian(q)
    assert bases == [n_int, n_bnd] * 2
    system.jacobian(q + 1.0)
    assert bases == [n_int, n_bnd] * 3


def test_the_kept_bases_are_read_only(rng):
    system = small_system(poisson_2d(nu=2))
    p = rng.uniform(-1, 1, system.n)
    system.residual(p)
    for base in system._bases:
        assert base.shape[1] == system.arch.n_hidden
        with pytest.raises(ValueError, match="read-only"):
            base[0, 0] = 1.0
    assert_same_as_fresh(system, p, lambda: small_system(poisson_2d(nu=2)))


# -- error metric ---------------------------------------------------------------


def test_rmse_zero_for_exact_solution():
    system = small_system(constant_solution_problem("poisson", 1, 0.8))
    exact = system.problem.true_solution
    assert system.rmse(constant_network(system, 0.8), exact) == pytest.approx(0.0, abs=1e-15)


def test_rmse_of_constant_offset():
    system = small_system(constant_solution_problem("poisson", 2, 0.5))
    exact = system.problem.true_solution
    assert system.rmse(constant_network(system, 0.6), exact) == pytest.approx(0.1)


def test_rmse_matches_brute_force(rng):
    system = small_system(poisson_1d(nu=3), r=4)
    x = rng.uniform(-1, 1, system.n)
    pts = system.test_grid()

    diff = network.eval_batch(system.arch, x, pts) - system.problem.true_solution(pts)
    brute = np.sqrt(np.mean(diff**2))
    assert abs(system.rmse(x, system.problem.true_solution) - brute) < 1e-12


def test_rmse_grid_excludes_training_points(monkeypatch):
    system = small_system(poisson_1d(nu=20), r=2)
    pts = system.test_grid()
    assert pts.shape == (100, 1)
    train = np.vstack([system.training.interior, system.training.boundary])
    for row in train:
        assert not np.any(np.all(np.abs(pts - row) < 1e-12, axis=1))
    # the 99-point axis k/100 meets the training axis j/40 at k = 5, 10, ..., 95: 19 points go
    monkeypatch.setattr(pde, "TEST_POINTS_PER_AXIS", 99)
    pts99 = system.test_grid()
    assert pts99.shape == (80, 1)
    assert np.abs(pts99[:, None, :] - train[None, :, :]).max(axis=2).min() >= 1e-12


def loop_exclusion_grid(system, points_per_axis):
    """test_grid by one pass per training row: the reference for the vectorised exclusion."""
    axis = np.linspace(0.0, 1.0, points_per_axis + 2)[1:-1]
    if system.problem.dim == 1:
        pts = axis.reshape(-1, 1)
    else:
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
    coincide = np.zeros(pts.shape[0], dtype=bool)
    for row in np.vstack([system.training.interior, system.training.boundary]):
        coincide |= np.all(np.abs(pts - row) < 1e-12, axis=1)
    return pts[~coincide]


def test_rmse_grid_excludes_coinciding_2d_training_points(monkeypatch):
    # training axis 0, 1/4, ..., 1 and test axis 1/8, ..., 7/8 share 1/4, 1/2, 3/4
    system = small_system(helmholtz_2d(nu=2, velocity=velocity_constant), r=2)
    monkeypatch.setattr(pde, "TEST_POINTS_PER_AXIS", 7)
    pts = system.test_grid()
    assert pts.shape == (40, 2)
    train = np.vstack([system.training.interior, system.training.boundary])
    gaps = np.abs(pts[:, None, :] - train[None, :, :]).max(axis=2)
    assert gaps.min() >= 1e-12


@pytest.mark.parametrize(
    "problem, points_per_axis",
    [(helmholtz_2d(nu=2, velocity=velocity_constant), 7),
     (helmholtz_2d(nu=2, velocity=velocity_constant), 100),
     (poisson_2d(nu=5), 99), (poisson_1d(nu=20), 7), (poisson_1d(nu=20), 100),
     (poisson_2d(nu=1.5), 5), (poisson_1d(nu=2.5), 9),
     (helmholtz_2d(nu=2, velocity=velocity_constant), 3), (poisson_2d(nu=5), 9)],
)
def test_test_grid_matches_loop_exclusion(problem, points_per_axis, monkeypatch):
    system = small_system(problem, r=2)
    expected = loop_exclusion_grid(system, points_per_axis)
    monkeypatch.setattr(pde, "TEST_POINTS_PER_AXIS", points_per_axis)
    if not len(expected):
        with pytest.raises(ValueError, match=f"POINTS_PER_AXIS={points_per_axis} lies entirely"):
            system.test_grid()
    else:
        assert np.array_equal(system.test_grid(), expected)


@pytest.mark.parametrize(
    "problem, points_per_axis, size",
    [(poisson_2d(nu=1.5), 5, 21),  # axes k/6 and j/3 share 1/3, 2/3: only 2 x 2 points go
     (poisson_1d(nu=2.5), 9, 5),  # the training axis j/5 holds k/10 for every even k
     (helmholtz_2d(nu=2, velocity=velocity_constant), 3, 0),  # j/4 holds the whole test axis k/4
     (poisson_2d(nu=5), 9, 0)],  # j/10 holds the whole test axis k/10
)
def test_test_grid_drops_a_point_only_when_every_coordinate_is_shared(
    problem, points_per_axis, size, monkeypatch
):
    system = small_system(problem, r=2)
    monkeypatch.setattr(pde, "TEST_POINTS_PER_AXIS", points_per_axis)
    if size == 0:
        with pytest.raises(ValueError, match="lies entirely on training points"):
            system.test_grid()
    else:
        assert system.test_grid().shape == (size, problem.dim)


def test_tensor_grid_rows_are_the_reshape_and_meshgrid_rows():
    axis = np.linspace(0.0, 1.0, 9)[1:-1]
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    for dim, rows in ((1, axis.reshape(-1, 1)), (2, np.column_stack([xs.ravel(), ys.ravel()]))):
        grid = tensor_grid(axis, dim)
        assert grid.shape == rows.shape == (7**dim, dim) and grid.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "problem", [poisson_1d(nu=3), helmholtz_2d(nu=2, velocity=velocity_constant)], ids=["1d", "2d"]
)
def test_coarse_system_trains_on_the_fine_points(problem, rng):
    system = small_system(problem, r=12)
    ops = build_transfer_operators(system.jacobian(rng.uniform(-1, 1, system.n)), system.arch)
    coarse = system.coarsen(ops)
    assert coarse.arch.n_hidden == ops.r_coarse < system.arch.n_hidden
    assert np.array_equal(coarse.training.interior, system.training.interior)
    assert np.array_equal(coarse.training.boundary, system.training.boundary)


def test_rmse_rejects_an_empty_test_grid():
    # training spacing 1/101 contains every k/101, the whole 100-point test axis
    system = small_system(poisson_1d(nu=50.5), r=2)
    with pytest.raises(ValueError, match="TEST_POINTS_PER_AXIS=100 .* when nu=50.5"):
        system.test_grid()
    with pytest.raises(ValueError, match="TEST_POINTS_PER_AXIS=100 .* when nu=50.5"):
        system.rmse(np.zeros(system.n), system.problem.true_solution)


# -- validation -----------------------------------------------------------------


def test_invalid_operator_dim_combinations_rejected():
    def zero(z):
        return np.zeros(z.shape[0])

    base = dict(dim=2, nu=2, rhs_interior=zero, rhs_boundary=zero)
    for bad in (
        dict(dim=3),  # the training and test grids are 1D or 2D
        dict(nu=float("inf")),  # no training grid
        dict(nu=-5.0),  # no training grid either, nor a positive penalty
        dict(lap_sign=2),
        dict(reaction=lambda z, u: np.sin(u)),  # without its derivative
    ):
        with pytest.raises(ValueError):
            PdeProblem(**{**base, **bad})


def test_dimension_mismatch_rejected(rng):
    system = small_system(poisson_1d(nu=3), r=4)
    for bad in (np.zeros(7), np.zeros(system.n + 1), np.zeros((1, system.n))):  # wrong length, 2-D
        for evaluate in (system.residual, system.jacobian):
            with pytest.raises(ValueError, match="parameter vector has shape"):
                evaluate(bad)
        with pytest.raises(ValueError, match="parameter vector has shape"):
            system.rmse(bad, system.problem.true_solution)
