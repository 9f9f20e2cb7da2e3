import numpy as np
import pytest

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
