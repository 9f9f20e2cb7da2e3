import numpy as np
import pytest

from mlmnet import network
from mlmnet.activations import KINDS, Activation
from mlmnet.network import NetworkArch, NetworkParams

from conftest import call_on_one_blas_thread, fd_gradient, rel_err


# Pointwise wrappers over the batch functions, for the checks below.

def _as_points(arch, z):
    pts = np.asarray(z, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != arch.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {arch.dim}")
    return pts


def net_eval(arch, params, z):
    return float(network.eval_batch(arch, params, _as_points(arch, z))[0])


def net_grad_z(arch, params, z):
    return network.grad_z_batch(arch, params, _as_points(arch, z))[0]


def net_laplacian_z(arch, params, z):
    return float(network.laplacian_batch(arch, params, _as_points(arch, z))[0])


def net_param_jacobian(arch, params, z, quantity="value"):
    """d(output)/d(params) ("value") or d(Laplacian)/d(params) ("laplacian") at z."""
    pts = _as_points(arch, z)
    if quantity == "value":
        return network.value_param_jacobian_batch(arch, params, pts)[0]
    return network.laplacian_param_jacobian_batch(arch, params, pts)[0]


def to_vector(params):
    """Flat parameter vector in the layout `NetworkParams.from_vector` reads."""
    return np.concatenate(
        [params.out_weights, params.in_weights.ravel(), params.hidden_bias, [params.out_bias]]
    )


def random_instance(rng, r=4, dim=2, kind="sigmoid"):
    arch = NetworkArch(r, dim, Activation(kind))
    params = NetworkParams(
        out_weights=rng.uniform(-1, 1, r),
        in_weights=rng.uniform(-1, 1, (dim, r)),
        hidden_bias=rng.uniform(-1, 1, r),
        out_bias=rng.uniform(-1, 1),
    )
    return arch, params


def test_zero_output_weights_give_bias():
    arch = NetworkArch(3, 1, Activation("tanh"))
    p = NetworkParams(np.zeros(3), np.ones((1, 3)), np.ones(3), 3.5)
    assert net_eval(arch, p, 0.7) == 3.5
    assert np.all(net_grad_z(arch, p, 0.7) == 0.0)
    assert net_laplacian_z(arch, p, 0.7) == 0.0


def test_single_node_sigmoid_at_origin():
    arch = NetworkArch(1, 1, Activation("sigmoid"))
    p = NetworkParams([1.0], [[0.0]], [0.0], 0.0)
    assert net_eval(arch, p, 7.0) == 0.0


def test_two_logistic_nodes_at_origin():
    arch = NetworkArch(2, 1, Activation("logistic"))
    p = NetworkParams([1.0, 1.0], [[0.0, 0.0]], [0.0, 0.0], 0.0)
    assert net_eval(arch, p, 0.0) == pytest.approx(1.0)


def test_grad_z_chain_rule_at_origin():
    c = 0.37
    arch = NetworkArch(1, 1, Activation("sigmoid"))
    p = NetworkParams([1.0], [[c]], [0.0], 0.0)
    expected = c * Activation("sigmoid")(0.0, order=1)
    assert net_grad_z(arch, p, 0.0)[0] == pytest.approx(expected)


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "logistic", "softplus"])
def test_grad_z_matches_finite_differences(rng, kind):
    arch, p = random_instance(rng, kind=kind)
    z = rng.uniform(0, 1, arch.dim)
    fd = fd_gradient(lambda y: net_eval(arch, p, y), z, h=1e-6)
    assert rel_err(net_grad_z(arch, p, z), fd) < 1e-6


def test_laplacian_zero_without_input_weights(rng):
    arch = NetworkArch(5, 2, Activation("tanh"))
    p = NetworkParams(rng.uniform(-1, 1, 5), np.zeros((2, 5)), rng.uniform(-1, 1, 5), 0.1)
    assert net_laplacian_z(arch, p, [0.3, 0.4]) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_matches_stencil_oracle(rng, dim):
    # 3-point (1D) / 5-point (2D) second-difference oracle with step 1e-4
    arch, p = random_instance(rng, r=6, dim=dim, kind="tanh")
    z = rng.uniform(0.2, 0.8, dim)
    h = 1e-4
    lap_fd = 0.0
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        lap_fd += (net_eval(arch, p, z + e) - 2 * net_eval(arch, p, z) + net_eval(arch, p, z - e)) / h**2
    exact = net_laplacian_z(arch, p, z)
    assert abs(exact - lap_fd) / max(1.0, abs(exact)) < 1e-5


def test_laplacian_linear_in_output_weights(rng):
    arch, p = random_instance(rng, r=5, dim=2)
    z = rng.uniform(0, 1, 2)
    doubled = NetworkParams(2 * p.out_weights, p.in_weights, p.hidden_bias, p.out_bias)
    assert net_laplacian_z(arch, doubled, z) == pytest.approx(2 * net_laplacian_z(arch, p, z))


def test_param_jacobian_constant_components(rng):
    arch, p = random_instance(rng)
    z = rng.uniform(0, 1, arch.dim)
    assert net_param_jacobian(arch, p, z, "value")[-1] == 1.0
    assert net_param_jacobian(arch, p, z, "laplacian")[-1] == 0.0


@pytest.mark.parametrize("quantity", ["value", "laplacian"])
@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "logistic", "softplus"])
def test_param_jacobian_matches_finite_differences(rng, quantity, kind):
    evaluate = {"value": net_eval, "laplacian": net_laplacian_z}[quantity]
    worst = 0.0
    for _ in range(20):
        arch, p = random_instance(rng, r=3, dim=2, kind=kind)
        z = rng.uniform(-1, 1, 2)
        x0 = to_vector(p)

        def scalar_map(vec):
            q = NetworkParams.from_vector(vec, arch.n_hidden, arch.dim)
            return evaluate(arch, q, z)

        fd = fd_gradient(scalar_map, x0, h=1e-6)
        exact = net_param_jacobian(arch, p, z, quantity)
        assert exact.size == arch.n_params
        worst = max(worst, rel_err(exact, fd))
    assert worst < 1e-6


def test_vector_round_trip(rng):
    arch, p = random_instance(rng, r=3, dim=2)
    vec = to_vector(p)
    assert vec.size == arch.n_params
    q = NetworkParams.from_vector(vec, 3, 2)
    assert np.array_equal(to_vector(q), vec)


def test_dimension_mismatch_rejected(rng):
    arch, p = random_instance(rng, r=3, dim=2)
    with pytest.raises(ValueError):
        net_eval(arch, p, [0.1])  # wrong point dimension
    bad = NetworkParams(np.zeros(4), np.zeros((2, 4)), np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        net_eval(arch, bad, [0.1, 0.2])
    with pytest.raises(ValueError):
        NetworkParams.from_vector(np.zeros(10), 3, 2)


# -- shared activation pass -------------------------------------------------------------


def reference_batch(arch, params, points, quantity):
    """One quantity from its own pre-activation and single-order activation calls: the reference."""
    pre = points @ params.in_weights + params.hidden_bias
    v, w = params.out_weights, params.in_weights
    r, dim = arch.n_hidden, arch.dim
    wsq = np.sum(w**2, axis=0)
    if quantity == "grad_z":
        return (arch.activation(pre, 1) * v) @ w.T
    if quantity == "laplacian":
        return arch.activation(pre, 2) @ (v * wsq)
    jac = np.empty((points.shape[0], arch.n_params))
    if quantity == "value_jacobian":
        jac[:, :r] = arch.activation(pre, 0)
        vs1 = arch.activation(pre, 1) * v
        for j in range(dim):
            jac[:, (1 + j) * r : (2 + j) * r] = vs1 * points[:, j : j + 1]
        jac[:, (dim + 1) * r : (dim + 2) * r] = vs1
        jac[:, -1] = 1.0
        return jac
    s2, s3 = arch.activation(pre, 2), arch.activation(pre, 3)
    jac[:, :r] = s2 * wsq
    vs2 = s2 * v
    vs3w = s3 * (v * wsq)
    for j in range(dim):
        jac[:, (1 + j) * r : (2 + j) * r] = 2.0 * w[j] * vs2 + vs3w * points[:, j : j + 1]
    jac[:, (dim + 1) * r : (dim + 2) * r] = vs3w
    jac[:, -1] = 0.0
    return jac


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2])
def test_batch_formulas_are_bit_identical_to_the_reference(rng, kind, dim):
    batch = {
        "grad_z": network.grad_z_batch,
        "laplacian": network.laplacian_batch,
        "value_jacobian": network.value_param_jacobian_batch,
        "laplacian_jacobian": network.laplacian_param_jacobian_batch,
    }
    for r, rows in ((3, 1), (64, 41), (300, 121)):
        arch, params = random_instance(rng, r=r, dim=dim, kind=kind)
        pts = rng.uniform(0, 1, (rows, dim))
        for quantity, fn in batch.items():
            assert np.array_equal(fn(arch, params, pts), reference_batch(arch, params, pts, quantity))


# -- blocked evaluation ---------------------------------------------------------------


def one_shot_eval_batch(arch, params, points):
    """eval_batch's formula over all rows at once: the reference for the blocked form."""
    pre = points @ params.in_weights + params.hidden_bias
    return arch.activation(pre, 0) @ params.out_weights + params.out_bias


def blocked_eval_mismatches():
    """(n_hidden, dim, rows) cases where eval_batch is not bit-identical to the one-shot formula."""
    rng = np.random.default_rng(2024)
    mismatches = []
    for n_hidden in (3, 100, 512):
        block = network.row_blocks(10**6, n_hidden)[0].stop
        for dim in (1, 2):
            arch, params = random_instance(rng, r=n_hidden, dim=dim)
            # none, fewer than one block, one block, an exact multiple, remainders
            for rows in (0, block // 2 + 3, block, 3 * block, 3 * block + 1, 3 * block + 5):
                pts = rng.uniform(-1, 1, (rows, dim))
                blocked = network.eval_batch(arch, params, pts)
                if not np.array_equal(blocked, one_shot_eval_batch(arch, params, pts)):
                    mismatches.append((n_hidden, dim, rows))
    return mismatches


def test_blocked_eval_batch_is_bit_identical_to_one_shot():
    assert call_on_one_blas_thread("test_network", "blocked_eval_mismatches") == "[]"


@pytest.mark.parametrize("n_rows", [0, 1, 2, 63, 64, 65, 66, 129, 1000])
def test_row_blocks_cover_rows_in_aligned_blocks(n_rows):
    blocks = network.row_blocks(n_rows, 512)  # 64 rows per block
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
    assert all(b.start % 8 == 0 for b in blocks)
    assert all(2 <= b.stop - b.start <= 65 for b in blocks) or n_rows == 1
    assert len(network.row_blocks(n_rows, 3)) == min(n_rows, 1)
