"""One-hidden-layer feedforward network with analytic derivatives.

The network maps a point z in R^dim to

    u(z) = sum_i out_weights[i] * sigmoid(<in_weights[:, i], z> + hidden_bias[i]) + out_bias

and exposes closed-form derivatives with respect to both the input point
(gradient, Laplacian) and the stacked parameter vector.  That flat vector
is the network's one representation; its layout is

    [out_weights | in_weights row 0 | ... | in_weights row dim-1 | hidden_bias | out_bias]

i.e. input weights are grouped by input node, matching the block
structure the algebraic coarsening relies on.  `unpack` reads the four
groups as views into the vector, without copying it.

Every evaluation at a point set starts from `activation_base`, the
sigmoid's value tanh(pre/2) at the hidden nodes, and derives the
derivative orders it needs from that base (`activations.ladder`), so a
caller that keeps a base derives more orders from it without a second
activation pass.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activations import ladder

# Hidden activations eval_batch holds at once: 32768 doubles, 256 KiB, so
# a block's pre-activations and activations stay in a 4 MiB L2 cache
# (block-size sweep in CHANGES.md).
BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class NetworkArch:
    """Shape of the network: hidden width and input dimension."""

    n_hidden: int
    dim: int

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def n_params(self):
        return (self.dim + 2) * self.n_hidden + 1


class NetworkParams(NamedTuple):
    """The parameter groups of one network, as `unpack` reads them from its vector.

    out_weights and hidden_bias have length n_hidden; in_weights has shape
    (dim, n_hidden) with row j holding the weights on the edges leaving
    input node j; out_bias is a scalar.
    """

    out_weights: np.ndarray
    in_weights: np.ndarray
    hidden_bias: np.ndarray
    out_bias: float


def unpack(arch, p):
    """The parameter groups of the vector p, views into it; raises unless p.shape == (n_params,)."""
    if p.shape != (arch.n_params,):
        raise ValueError(f"parameter vector has shape {p.shape}, expected ({arch.n_params},)")
    r, dim = arch.n_hidden, arch.dim
    return NetworkParams(
        out_weights=p[:r],
        in_weights=p[r : (dim + 1) * r].reshape(dim, r),
        hidden_bias=p[(dim + 1) * r : (dim + 2) * r],
        out_bias=float(p[-1]),
    )


def row_blocks(n_rows, width):
    """Row slices covering range(n_rows), about BLOCK_ELEMENTS // width rows each.

    Blocks start at multiples of 8 rows, and a lone trailing row joins the
    block before it.  BLAS matrix-vector kernels sum rows in groups (of 4
    in OpenBLAS, 8 covers wider kernels) and numpy evaluates a one-row
    product as a dot product; with both rules each row of a blocked
    product is summed in the same order as in one product over all rows
    on a single BLAS thread.
    """
    step = max(8, BLOCK_ELEMENTS // width // 8 * 8)
    bounds = list(range(0, n_rows, step)) + [n_rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# Evaluation over a (t, dim) block of points.  `activation_base` forms the
# pre-activations and the sigmoid's value tanh(pre/2) of a point set, in
# place in one array; `activations.ladder` derives the derivative orders
# asked for from that base.  The formulas below take the derivatives as
# arguments, so a caller that needs several quantities at the same points
# (the residual and its Jacobian) pays for one pass.  The *_batch
# functions compose the two for a single quantity.

def activation_base(params, points):
    """tanh(pre/2) at the hidden nodes, (t, n_hidden), pre = points @ in_weights + hidden_bias.

    pre is formed in the returned array, by the operations of
    `activations.SIGMOID(pre)` in their order, so the values are the same
    bits.
    """
    base = points @ params.in_weights
    base += params.hidden_bias
    base *= 0.5
    return np.tanh(base, out=base)


def output(params, s0):
    """Network output from the hidden activations s0, shape (t,)."""
    return s0 @ params.out_weights + params.out_bias


def laplacian(params, s2):
    """Spatial Laplacian from the second activation derivatives s2, shape (t,)."""
    return s2 @ (params.out_weights * np.sum(params.in_weights**2, axis=0))


def fill_value_param_jacobian(params, points, s0, s1, out):
    """Write d(output)/d(params) at each row of `points` into `out`, (t, n_params)."""
    dim, r = params.in_weights.shape
    out[:, :r] = s0
    vs1 = np.multiply(s1, params.out_weights, out=out[:, (dim + 1) * r : (dim + 2) * r])
    for j in range(dim):
        np.multiply(vs1, points[:, j : j + 1], out=out[:, (1 + j) * r : (2 + j) * r])
    out[:, -1] = 1.0
    return out


def fill_laplacian_param_jacobian(params, points, s2, s3, out):
    """Write d(Laplacian)/d(params) at each row of `points` into `out`, (t, n_params)."""
    dim, r = params.in_weights.shape
    wsq = np.sum(params.in_weights**2, axis=0)
    np.multiply(s2, wsq, out=out[:, :r])
    vs2 = s2 * params.out_weights
    vs3w = np.multiply(
        s3, params.out_weights * wsq, out=out[:, (dim + 1) * r : (dim + 2) * r]
    )
    for j in range(dim):
        wj = params.in_weights[j]
        np.add(2.0 * wj * vs2, vs3w * points[:, j : j + 1], out=out[:, (1 + j) * r : (2 + j) * r])
    out[:, -1] = 0.0
    return out


def eval_batch(arch, p, points):
    """Network output at each row of `points`, shape (t,).

    Evaluated in row blocks of at most BLOCK_ELEMENTS hidden activations,
    so a large point set (the RMSE test grid) never builds whole
    (t, n_hidden) temporaries.
    """
    params = unpack(arch, p)
    out = np.empty(points.shape[0])
    for rows in row_blocks(points.shape[0], arch.n_hidden):
        out[rows] = output(params, activation_base(params, points[rows]))
    return out


def grad_z_batch(arch, p, points):
    """Spatial gradient at each row of `points`, shape (t, dim)."""
    params = unpack(arch, p)
    (s1,) = ladder(activation_base(params, points), (1,))
    return (s1 * params.out_weights) @ params.in_weights.T


def laplacian_batch(arch, p, points):
    """Spatial Laplacian at each row of `points`, shape (t,)."""
    params = unpack(arch, p)
    (s2,) = ladder(activation_base(params, points), (2,))
    return laplacian(params, s2)


def value_param_jacobian_batch(arch, p, points):
    """d(output)/d(params) at each row of `points`, shape (t, n_params)."""
    params = unpack(arch, p)
    s0, s1 = ladder(activation_base(params, points), (0, 1))
    return fill_value_param_jacobian(params, points, s0, s1, np.empty((len(points), arch.n_params)))


def laplacian_param_jacobian_batch(arch, p, points):
    """d(Laplacian)/d(params) at each row of `points`, shape (t, n_params)."""
    params = unpack(arch, p)
    s2, s3 = ladder(activation_base(params, points), (2, 3))
    return fill_laplacian_param_jacobian(
        params, points, s2, s3, np.empty((len(points), arch.n_params))
    )
