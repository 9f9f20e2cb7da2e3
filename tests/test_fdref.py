import numpy as np
import pytest

from mlmnet.pde import box_source, velocity_constant, velocity_four_layers, velocity_two_layers
from mlmnet.fdref import (
    FdGrid,
    FdSolveError,
    cache_path,
    cached_reference,
    load_reference,
    save_reference,
    solve_helmholtz_fd,
)


def constant_velocity(z):
    return np.full(z.shape[0], 40.0)


def manufactured_rhs(nu, c):
    # -Lap(u) - k^2 u = g1 for u = sin(pi z1) sin(pi z2), constant velocity
    k2 = (2.0 * np.pi * nu / c) ** 2

    def g1(z):
        return (2.0 * np.pi**2 - k2) * np.sin(np.pi * z[:, 0]) * np.sin(np.pi * z[:, 1])

    def u(z):
        return np.sin(np.pi * z[:, 0]) * np.sin(np.pi * z[:, 1])

    return g1, u


def test_zero_source_gives_zero_field():
    grid = solve_helmholtz_fd(1.0, constant_velocity, lambda z: np.zeros(z.shape[0]), 17)
    assert np.all(grid.values == 0.0)


def test_manufactured_solution_accuracy():
    g1, u = manufactured_rhs(1.0, 40.0)
    grid = solve_helmholtz_fd(1.0, constant_velocity, g1, 65)
    xs, ys = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    exact = u(np.column_stack([xs.ravel(), ys.ravel()])).reshape(grid.values.shape)
    assert np.abs(grid.values - exact).max() < 2e-3


def test_second_order_convergence_ratio():
    g1, u = manufactured_rhs(1.0, 40.0)
    errs = []
    for M in (33, 65):
        grid = solve_helmholtz_fd(1.0, constant_velocity, g1, M)
        xs, ys = np.meshgrid(grid.axis, grid.axis, indexing="ij")
        exact = u(np.column_stack([xs.ravel(), ys.ravel()])).reshape(grid.values.shape)
        errs.append(np.abs(grid.values - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_richardson_self_consistency():
    # 64^2-ish vs 128^2-ish grids agree to O(h^2) on common points
    g1, _ = manufactured_rhs(2.0, 40.0)
    coarse = solve_helmholtz_fd(2.0, constant_velocity, g1, 65)
    fine = solve_helmholtz_fd(2.0, constant_velocity, g1, 129)
    diff = np.abs(fine.values[::2, ::2] - coarse.values).max()
    h = 1.0 / 64
    assert diff < 20.0 * h**2 * max(1.0, np.abs(fine.values).max())


def test_poisson_limit_maximum_principle():
    # nu -> 0 gives -Lap(u) = g1 >= 0, hence u >= 0 on an M-matrix grid
    grid = solve_helmholtz_fd(
        0.0, constant_velocity, lambda z: np.ones(z.shape[0]), 33
    )
    assert grid.values.min() >= 0.0


def test_resonant_wavenumber_detected():
    # k^2 equal to a discrete Laplacian eigenvalue makes the operator singular
    M = 17
    h = 1.0 / (M - 1)
    eig = (4.0 / h**2) * (np.sin(np.pi * h / 2) ** 2 + np.sin(np.pi * h / 2) ** 2)
    k = np.sqrt(eig)
    c = 40.0
    nu = k * c / (2.0 * np.pi)
    with pytest.raises(FdSolveError):
        solve_helmholtz_fd(nu, constant_velocity, lambda z: np.ones(z.shape[0]), M)


def velocity_ramp_in_z2(z):
    return 20.0 + 40.0 * z[:, 1]


def velocity_layered_in_z2(z):
    return np.where(z[:, 1] < 0.5, 40.0, 20.0)


def five_point_matrix(ksq, h):
    """Dense matrix of -Lap_h - diag(k^2) on the interior nodes, assembled node by node."""
    inner = ksq.shape[0]
    A = np.zeros((inner * inner, inner * inner))
    for i in range(inner):
        for j in range(inner):
            A[i * inner + j, i * inner + j] = 4.0 / h**2 - ksq[i, j]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < inner and 0 <= j + dj < inner:
                    A[i * inner + j, (i + di) * inner + j + dj] = -1.0 / h**2
    return A


@pytest.mark.parametrize("velocity", [
    velocity_constant, velocity_two_layers, velocity_four_layers, velocity_ramp_in_z2,
], ids=["constant", "two-layers", "four-layers", "ramp-in-z2"])
def test_both_solvers_match_a_dense_solve(velocity):
    # k^2 equal along z2 takes the eigen solver, the ramp in z2 the sparse LU;
    # nu = 30 puts k^2 above the lowest Laplacian eigenvalue somewhere in every field
    nu, M = 30.0, 17
    grid = solve_helmholtz_fd(nu, velocity, box_source, M)
    xs, ys = np.meshgrid(grid.axis[1:-1], grid.axis[1:-1], indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ksq = ((2.0 * np.pi * nu / velocity(pts)) ** 2).reshape(M - 2, M - 2)
    dense = np.linalg.solve(five_point_matrix(ksq, grid.spacing), box_source(pts))
    inner = grid.values[1:-1, 1:-1]
    assert np.abs(inner - dense.reshape(inner.shape)).max() <= 1e-10 * np.abs(dense).max()
    assert np.all(grid.values[[0, -1], :] == 0.0) and np.all(grid.values[:, [0, -1]] == 0.0)


def test_resonance_detected_for_a_velocity_varying_along_z2():
    # with c depending on z2 only, the operator is Lx (x) I + I (x) (Ly - nu^2 W),
    # W = diag((2 pi / c)^2), singular where nu^2 is an eigenvalue of
    # W^(-1/2) (Ly + mu_1 I) W^(-1/2), mu_1 the lowest eigenvalue of Lx = Ly
    M = 17
    h = 1.0 / (M - 1)
    axis = np.linspace(0.0, 1.0, M)[1:-1]
    second = (2.0 * np.eye(M - 2) - np.eye(M - 2, k=1) - np.eye(M - 2, k=-1)) / h**2
    mu_1 = (4.0 / h**2) * np.sin(np.pi * h / 2) ** 2
    w_inv_sqrt = np.diag(velocity_layered_in_z2(np.column_stack([axis, axis])) / (2.0 * np.pi))
    nu = np.sqrt(np.linalg.eigvalsh(w_inv_sqrt @ (second + mu_1 * np.eye(M - 2)) @ w_inv_sqrt)[0])
    with pytest.raises(FdSolveError):
        solve_helmholtz_fd(nu, velocity_layered_in_z2, lambda z: np.ones(z.shape[0]), M)
    # away from resonance the same field solves
    solve_helmholtz_fd(0.9 * nu, velocity_layered_in_z2, lambda z: np.ones(z.shape[0]), M)


def test_sample_at_grid_nodes_exact():
    g1, _ = manufactured_rhs(1.0, 40.0)
    grid = solve_helmholtz_fd(1.0, constant_velocity, g1, 33)
    pts = np.array([[grid.axis[3], grid.axis[7]], [grid.axis[10], grid.axis[20]]])
    vals = grid.sample(pts)
    assert vals[0] == pytest.approx(grid.values[3, 7], abs=1e-14)
    assert vals[1] == pytest.approx(grid.values[10, 20], abs=1e-14)


def test_sample_constant_and_linear_fields(rng):
    axis = np.linspace(0, 1, 21)
    const = FdGrid(axis=axis, values=np.full((21, 21), 3.25))
    pts = rng.uniform(0, 1, size=(40, 2))
    assert np.allclose(const.sample(pts), 3.25)
    xs, _ = np.meshgrid(axis, axis, indexing="ij")
    linear = FdGrid(axis=axis, values=xs)
    assert np.allclose(linear.sample(pts), pts[:, 0], atol=1e-14)


def test_sample_outside_domain_rejected():
    grid = FdGrid(axis=np.linspace(0, 1, 5), values=np.zeros((5, 5)))
    with pytest.raises(ValueError):
        grid.sample(np.array([[1.2, 0.5]]))
    with pytest.raises(ValueError):
        grid.sample(np.array([[0.5, -0.1]]))


def test_cache_round_trip(tmp_path):
    g1, _ = manufactured_rhs(1.0, 40.0)
    first = cached_reference(tmp_path, 1.0, constant_velocity, "constant", g1, 17)
    path = cache_path(tmp_path, 1.0, "constant", 17)
    assert path.exists()
    second = cached_reference(tmp_path, 1.0, constant_velocity, "constant", g1, 17)
    assert np.array_equal(first.values, second.values)
    loaded = load_reference(path)
    assert np.array_equal(loaded.values, first.values)
    assert np.array_equal(loaded.axis, first.axis)


def test_minimum_resolution_enforced():
    with pytest.raises(ValueError):
        solve_helmholtz_fd(1.0, constant_velocity, lambda z: np.zeros(z.shape[0]), 2)
