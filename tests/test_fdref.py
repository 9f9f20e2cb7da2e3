import numpy as np
import pytest

from mlmnet import fdref, pde
from mlmnet.bench import PROBLEMS
from mlmnet.pde import box_source, velocity_constant, velocity_four_layers, velocity_two_layers
from mlmnet.fdref import (
    FdGrid,
    FdSolveError,
    cache_path,
    cached_reference,
    check_resolution,
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


def test_cache_round_trip(tmp_path, monkeypatch):
    problem = pde.helmholtz_2d(1.0, velocity_constant)
    first = cached_reference(tmp_path, "helmholtz2d-const", problem, 17)
    path = cache_path(tmp_path, "helmholtz2d-const", 1.0, 17)
    assert path == tmp_path / "helmholtz2d-const_nu1_n17.npz" and path.exists()
    assert np.array_equal(
        first.values,
        solve_helmholtz_fd(1.0, velocity_constant, box_source, 17).values,
    )

    # a second call loads the file and solves nothing
    def no_solve(*args, **kwargs):
        raise AssertionError("solved again")

    monkeypatch.setattr(fdref, "solve_helmholtz_fd", no_solve)
    second = cached_reference(tmp_path, "helmholtz2d-const", problem, 17)
    assert np.array_equal(first.values, second.values)
    loaded = load_reference(path)
    assert np.array_equal(loaded.values, first.values)
    assert np.array_equal(loaded.axis, first.axis)


def test_a_save_that_fails_part_way_leaves_nothing_in_the_cache(tmp_path, monkeypatch):
    problem = pde.helmholtz_2d(1.0, velocity_constant)
    savez = np.savez

    def fail_part_way(file, **arrays):
        stream = file if hasattr(file, "write") else open(file, "wb")
        stream.write(b"PK\x03\x04 a partial field")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", fail_part_way)
    with pytest.raises(OSError, match="No space left"):
        cached_reference(tmp_path, "helmholtz2d-const", problem, 17)
    assert list(tmp_path.iterdir()) == []

    # the next call finds no file, so it solves the field and stores it whole
    monkeypatch.setattr(np, "savez", savez)
    grid = cached_reference(tmp_path, "helmholtz2d-const", problem, 17)
    assert [p.name for p in tmp_path.iterdir()] == ["helmholtz2d-const_nu1_n17.npz"]
    assert np.array_equal(load_reference(cache_path(tmp_path, "helmholtz2d-const", 1.0, 17)).values,
                          grid.values)
    assert np.array_equal(grid.values,
                          solve_helmholtz_fd(1.0, velocity_constant, box_source, 17).values)


def damaged_copies(field_bytes, tmp_path):
    """Damaged versions of a saved field's bytes: cut short, a flipped byte, not an archive."""
    np.save(tmp_path / "plain.npy", np.zeros(3))
    np.savez(tmp_path / "other.npz", axis=np.zeros(3))
    np.savez(tmp_path / "small.npz", axis=np.zeros(5), values=np.zeros((5, 5)))
    flipped = bytearray(field_bytes)
    flipped[211] ^= 0xFF
    return {
        "truncated": field_bytes[:5000],
        "empty": b"",
        "flipped byte": bytes(flipped),
        "not an archive": b"hello" * 100,
        "a plain .npy": (tmp_path / "plain.npy").read_bytes(),
        "no values": (tmp_path / "other.npz").read_bytes(),
        "another resolution": (tmp_path / "small.npz").read_bytes(),
    }


def test_a_damaged_cached_field_is_solved_again_and_replaced(tmp_path, monkeypatch):
    problem = pde.helmholtz_2d(2.0, velocity_two_layers)
    cache = tmp_path / "cache"
    solved = cached_reference(cache, "helmholtz2d-two-layers", problem, 33)
    path = cache_path(cache, "helmholtz2d-two-layers", 2.0, 33)
    field_bytes = path.read_bytes()
    solve = fdref.solve_helmholtz_fd
    solves = []

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(fdref, "solve_helmholtz_fd", counting_solve)
    for damage, data in damaged_copies(field_bytes, tmp_path).items():
        path.write_bytes(data)
        solves.clear()
        grid = cached_reference(cache, "helmholtz2d-two-layers", problem, 33)
        assert len(solves) == 1, damage
        assert np.array_equal(grid.values, solved.values), damage
        assert path.read_bytes() == field_bytes, damage
        assert [p.name for p in cache.iterdir()] == [path.name], damage
        # the replaced file loads on the next call, which solves nothing
        again = cached_reference(cache, "helmholtz2d-two-layers", problem, 33)
        assert len(solves) == 1, damage
        assert np.array_equal(again.values, solved.values), damage


def test_any_other_error_reading_a_cached_field_propagates(tmp_path, monkeypatch):
    problem = pde.helmholtz_2d(1.0, velocity_constant)
    cached_reference(tmp_path, "helmholtz2d-const", problem, 17)

    def failing_load(*args, **kwargs):
        raise PermissionError("read denied")

    monkeypatch.setattr(np, "load", failing_load)
    with pytest.raises(PermissionError, match="read denied"):
        cached_reference(tmp_path, "helmholtz2d-const", problem, 17)


def test_load_reference_closes_its_archive(tmp_path, monkeypatch):
    grid = solve_helmholtz_fd(1.0, velocity_constant, box_source, 17)
    save_reference(tmp_path / "f.npz", grid)
    opened = []
    load = np.load

    def recording_load(*args, **kwargs):
        opened.append(load(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(np, "load", recording_load)
    loaded = load_reference(tmp_path / "f.npz")
    assert np.array_equal(loaded.values, grid.values)
    assert opened[0].fid is None  # NpzFile.close drops its file


def test_cache_names_keep_every_digit_of_nu(tmp_path):
    # 17 significant digits: distinct floats get distinct files, 2.0 and 2.5 keep their names
    assert cache_path(tmp_path, "helmholtz2d-two-layers", 2.0, 201) == (
        tmp_path / "helmholtz2d-two-layers_nu2_n201.npz"
    )
    assert cache_path(tmp_path, "helmholtz2d-two-layers", 2.5, 201).name == (
        "helmholtz2d-two-layers_nu2.5_n201.npz"
    )
    assert cache_path(tmp_path, "helmholtz2d-two-layers", 2.000001, 201) != cache_path(
        tmp_path, "helmholtz2d-two-layers", 2.0, 201
    )
    nus = (28.238857824564523, np.nextafter(28.238857824564523, 29.0))
    assert len({cache_path(tmp_path, "helmholtz2d-const", nu, 17) for nu in nus}) == 2


def test_two_problems_at_the_same_nu_and_resolution_cache_to_two_files(tmp_path):
    # the cache is keyed by the registry id: two velocities never share a file
    two, four = (
        cached_reference(tmp_path, name, PROBLEMS[name].factory(2), 17)
        for name in ("helmholtz2d-two-layers", "helmholtz2d-four-layers")
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "helmholtz2d-four-layers_nu2_n17.npz", "helmholtz2d-two-layers_nu2_n17.npz",
    ]
    assert not np.array_equal(two.values, four.values)
    for name, grid in (("helmholtz2d-two-layers", two), ("helmholtz2d-four-layers", four)):
        assert np.array_equal(load_reference(cache_path(tmp_path, name, 2, 17)).values, grid.values)


def test_minimum_resolution_enforced():
    with pytest.raises(ValueError, match="points_per_axis must be at least 3 points per axis"):
        solve_helmholtz_fd(1.0, constant_velocity, lambda z: np.zeros(z.shape[0]), 2)


def test_resolution_bound_is_the_jacobian_limit_on_the_peak_of_a_solve(monkeypatch):
    # 300 * 8 (M - 2)^2 bytes against 2**30: 668^2 = 446224 fits, 669^2 = 447561 does not
    assert fdref.PEAK_ARRAYS == 300
    check_resolution(3, "M")
    check_resolution(670, "M")
    with pytest.raises(ValueError, match="M=671 asks for a peak of 300 arrays of 669 x 669"):
        check_resolution(671, "M")
    # the limit is read at call time
    monkeypatch.setattr(pde, "MAX_JACOBIAN_BYTES", 300 * 8 * 7**2)
    check_resolution(9, "M")
    with pytest.raises(ValueError, match="M=10 asks for a peak of 300 arrays of 8 x 8"):
        check_resolution(10, "M")


def test_an_oversized_resolution_is_refused_before_any_array_is_built(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "linspace", no_arrays)
    with pytest.raises(ValueError, match="points_per_axis=11588 asks for"):
        solve_helmholtz_fd(1.0, constant_velocity, lambda z: np.zeros(z.shape[0]), 11588)
