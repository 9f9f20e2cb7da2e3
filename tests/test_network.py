import numpy as np
import pytest

from mlmnet import network
from mlmnet.activations import SIGMOID
from mlmnet.network import NetworkArch

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


def net_eval(arch, p, z):
    return float(network.eval_batch(arch, p, _as_points(arch, z))[0])


def net_grad_z(arch, p, z):
    return network.grad_z_batch(arch, p, _as_points(arch, z))[0]


def net_laplacian_z(arch, p, z):
    return float(network.laplacian_batch(arch, p, _as_points(arch, z))[0])


def net_param_jacobian(arch, p, z, quantity="value"):
    """d(output)/d(params) ("value") or d(Laplacian)/d(params) ("laplacian") at z."""
    pts = _as_points(arch, z)
    if quantity == "value":
        return network.value_param_jacobian_batch(arch, p, pts)[0]
    return network.laplacian_param_jacobian_batch(arch, p, pts)[0]


def pack(v, W, b, c):
    """Flat parameter vector of output weights v, input weights W (dim, r), biases b and c."""
    return np.concatenate([np.ravel(v), np.ravel(W), np.ravel(b), [c]])


# The former activation kinds, each as the sigmoid network that computes the
# same function: tanh(x) = S(2x) doubles the input weights and hidden bias, and
# the logistic (1 + S(x))/2 halves the output weights and moves the output bias.
KINDS = ("sigmoid", "tanh", "logistic")


def as_sigmoid_params(kind, v, w, b, c):
    """The parameter vector of the sigmoid network equal to (v, w, b, c) under the former `kind`."""
    if kind == "tanh":
        return pack(v, 2.0 * w, 2.0 * b, c)
    if kind == "logistic":
        return pack(v / 2.0, w, b, c + np.sum(v) / 2.0)
    return pack(v, w, b, c)


def random_instance(rng, r=4, dim=2, kind="sigmoid"):
    arch = NetworkArch(r, dim)
    v, w, b = rng.uniform(-1, 1, r), rng.uniform(-1, 1, (dim, r)), rng.uniform(-1, 1, r)
    return arch, as_sigmoid_params(kind, v, w, b, rng.uniform(-1, 1))


def test_zero_output_weights_give_bias():
    arch = NetworkArch(3, 1)
    p = pack(np.zeros(3), np.ones((1, 3)), np.ones(3), 3.5)
    assert net_eval(arch, p, 0.7) == 3.5
    assert np.all(net_grad_z(arch, p, 0.7) == 0.0)
    assert net_laplacian_z(arch, p, 0.7) == 0.0


def test_single_node_sigmoid_at_origin():
    arch = NetworkArch(1, 1)
    p = pack([1.0], [[0.0]], [0.0], 0.0)
    assert net_eval(arch, p, 7.0) == 0.0


def test_two_logistic_nodes_at_origin():
    arch = NetworkArch(2, 1)
    p = as_sigmoid_params("logistic", np.ones(2), np.zeros((1, 2)), np.zeros(2), 0.0)
    assert net_eval(arch, p, 0.0) == pytest.approx(1.0)


def test_grad_z_chain_rule_at_origin():
    c = 0.37
    arch = NetworkArch(1, 1)
    p = pack([1.0], [[c]], [0.0], 0.0)
    expected = c * SIGMOID(np.zeros(1), order=1)[0]
    assert net_grad_z(arch, p, 0.0)[0] == pytest.approx(expected)


@pytest.mark.parametrize("kind", KINDS)
def test_grad_z_matches_finite_differences(rng, kind):
    arch, p = random_instance(rng, kind=kind)
    z = rng.uniform(0, 1, arch.dim)
    fd = fd_gradient(lambda y: net_eval(arch, p, y), z, h=1e-6)
    assert rel_err(net_grad_z(arch, p, z), fd) < 1e-6


def test_laplacian_zero_without_input_weights(rng):
    arch = NetworkArch(5, 2)
    p = pack(rng.uniform(-1, 1, 5), np.zeros((2, 5)), rng.uniform(-1, 1, 5), 0.1)
    assert net_laplacian_z(arch, p, [0.3, 0.4]) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_matches_stencil_oracle(rng, dim):
    # 3-point (1D) / 5-point (2D) second-difference oracle with step 1e-4
    arch, p = random_instance(rng, r=6, dim=dim)
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
    q = network.unpack(arch, p)
    doubled = pack(2 * q.out_weights, q.in_weights, q.hidden_bias, q.out_bias)
    assert net_laplacian_z(arch, doubled, z) == pytest.approx(2 * net_laplacian_z(arch, p, z))


def test_param_jacobian_constant_components(rng):
    arch, p = random_instance(rng)
    z = rng.uniform(0, 1, arch.dim)
    assert net_param_jacobian(arch, p, z, "value")[-1] == 1.0
    assert net_param_jacobian(arch, p, z, "laplacian")[-1] == 0.0


@pytest.mark.parametrize("quantity", ["value", "laplacian"])
@pytest.mark.parametrize("kind", KINDS)
def test_param_jacobian_matches_finite_differences(rng, quantity, kind):
    evaluate = {"value": net_eval, "laplacian": net_laplacian_z}[quantity]
    worst = 0.0
    for _ in range(20):
        arch, p = random_instance(rng, r=3, dim=2, kind=kind)
        z = rng.uniform(-1, 1, 2)
        fd = fd_gradient(lambda vec: evaluate(arch, vec, z), p, h=1e-6)
        exact = net_param_jacobian(arch, p, z, quantity)
        assert exact.size == arch.n_params
        worst = max(worst, rel_err(exact, fd))
    assert worst < 1e-6


def test_vector_round_trip(rng):
    arch, p = random_instance(rng, r=3, dim=2)
    assert p.size == arch.n_params
    assert np.array_equal(pack(*network.unpack(arch, p)), p)


def test_dimension_mismatch_rejected(rng):
    arch, p = random_instance(rng, r=3, dim=2)
    with pytest.raises(ValueError):
        net_eval(arch, p, [0.1])  # wrong point dimension
    for bad in (np.zeros(10), p[:-1], np.append(p, 0.0), p.reshape(1, -1)):  # wrong length, 2-D
        with pytest.raises(ValueError, match="parameter vector has shape"):
            network.unpack(arch, bad)
        with pytest.raises(ValueError, match="parameter vector has shape"):
            net_eval(arch, bad, [0.1, 0.2])


# -- shared activation pass -------------------------------------------------------------


def reference_batch(arch, p, points, quantity):
    """One quantity from its own pre-activation and single-order activation calls: the reference."""
    params = network.unpack(arch, p)
    pre = points @ params.in_weights + params.hidden_bias
    v, w = params.out_weights, params.in_weights
    r, dim = arch.n_hidden, arch.dim
    wsq = np.sum(w**2, axis=0)
    if quantity == "grad_z":
        return (SIGMOID(pre, 1) * v) @ w.T
    if quantity == "laplacian":
        return SIGMOID(pre, 2) @ (v * wsq)
    jac = np.empty((points.shape[0], arch.n_params))
    if quantity == "value_jacobian":
        jac[:, :r] = SIGMOID(pre, 0)
        vs1 = SIGMOID(pre, 1) * v
        for j in range(dim):
            jac[:, (1 + j) * r : (2 + j) * r] = vs1 * points[:, j : j + 1]
        jac[:, (dim + 1) * r : (dim + 2) * r] = vs1
        jac[:, -1] = 1.0
        return jac
    s2, s3 = SIGMOID(pre, 2), SIGMOID(pre, 3)
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
        arch, p = random_instance(rng, r=r, dim=dim, kind=kind)
        pts = rng.uniform(0, 1, (rows, dim))
        for quantity, fn in batch.items():
            assert np.array_equal(fn(arch, p, pts), reference_batch(arch, p, pts, quantity))


# -- blocked evaluation ---------------------------------------------------------------


def one_shot_eval_batch(arch, p, points):
    """eval_batch's formula over all rows at once: the reference for the blocked form."""
    params = network.unpack(arch, p)
    pre = points @ params.in_weights + params.hidden_bias
    return SIGMOID(pre, 0) @ params.out_weights + params.out_bias


def blocked_eval_mismatches():
    """(n_hidden, dim, rows) cases where eval_batch is not bit-identical to the one-shot formula."""
    rng = np.random.default_rng(2024)
    mismatches = []
    for n_hidden in (3, 100, 512):
        block = network.row_blocks(10**6, n_hidden)[0].stop
        for dim in (1, 2):
            arch, p = random_instance(rng, r=n_hidden, dim=dim)
            # none, fewer than one block, one block, an exact multiple, remainders
            for rows in (0, block // 2 + 3, block, 3 * block, 3 * block + 1, 3 * block + 5):
                pts = rng.uniform(-1, 1, (rows, dim))
                blocked = network.eval_batch(arch, p, pts)
                if not np.array_equal(blocked, one_shot_eval_batch(arch, p, pts)):
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
