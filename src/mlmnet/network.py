"""One-hidden-layer feedforward network with analytic derivatives.

The network maps a point z in R^dim to

    u(z) = sum_i out_weights[i] * act(<in_weights[:, i], z> + hidden_bias[i]) + out_bias

and exposes closed-form derivatives with respect to both the input point
(gradient, Laplacian) and the stacked parameter vector.  The flat
parameter layout is

    [out_weights | in_weights row 0 | ... | in_weights row dim-1 | hidden_bias | out_bias]

i.e. input weights are grouped by input node, matching the block
structure the algebraic coarsening relies on.
"""

from dataclasses import dataclass

import numpy as np

from .activations import Activation

# Hidden activations eval_batch holds at once: 32768 doubles, 256 KiB, so
# a block's pre-activations and activations stay in a 4 MiB L2 cache
# (block-size sweep in CHANGES.md).
BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class NetworkArch:
    """Shape of the network: hidden width, input dimension, nonlinearity."""

    n_hidden: int
    dim: int
    activation: Activation

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def n_params(self):
        return (self.dim + 2) * self.n_hidden + 1


@dataclass
class NetworkParams:
    """Weights and biases of one network instance.

    out_weights and hidden_bias have length n_hidden; in_weights has shape
    (dim, n_hidden) with row j holding the weights on the edges leaving
    input node j; out_bias is a scalar.
    """

    out_weights: np.ndarray
    in_weights: np.ndarray
    hidden_bias: np.ndarray
    out_bias: float

    def __post_init__(self):
        self.out_weights = np.asarray(self.out_weights, dtype=float)
        self.in_weights = np.atleast_2d(np.asarray(self.in_weights, dtype=float))
        self.hidden_bias = np.asarray(self.hidden_bias, dtype=float)
        self.out_bias = float(self.out_bias)
        r = self.out_weights.shape[0]
        if self.out_weights.ndim != 1 or self.hidden_bias.shape != (r,):
            raise ValueError("out_weights and hidden_bias must be 1-d of equal length")
        if self.in_weights.ndim != 2 or self.in_weights.shape[1] != r:
            raise ValueError("in_weights must have shape (dim, n_hidden)")

    @property
    def n_hidden(self):
        return self.out_weights.shape[0]

    @property
    def dim(self):
        return self.in_weights.shape[0]

    @classmethod
    def from_vector(cls, vec, n_hidden, dim):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != ((dim + 2) * n_hidden + 1,):
            raise ValueError(
                f"parameter vector has length {vec.size}, expected {(dim + 2) * n_hidden + 1}"
            )
        r = n_hidden
        return cls(
            out_weights=vec[:r],
            in_weights=vec[r : (dim + 1) * r].reshape(dim, r),
            hidden_bias=vec[(dim + 1) * r : (dim + 2) * r],
            out_bias=float(vec[-1]),
        )


def _check_match(arch, params):
    if params.n_hidden != arch.n_hidden or params.dim != arch.dim:
        raise ValueError(
            f"parameters of shape (n_hidden={params.n_hidden}, dim={params.dim}) do not "
            f"match architecture (n_hidden={arch.n_hidden}, dim={arch.dim})"
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


# Evaluation over a (t, dim) block of points.  `hidden_activations` forms
# the pre-activations and the activation derivatives of a point set once;
# the formulas below take them as arguments, so a caller that needs several
# quantities at the same points (the residual and its Jacobian) pays for
# one pass.  The *_batch functions compose the two for a single quantity.

def hidden_activations(arch, params, points, orders):
    """Activation derivatives of the given orders at the hidden nodes, each (t, n_hidden)."""
    _check_match(arch, params)
    pre = points @ params.in_weights + params.hidden_bias
    return arch.activation.derivatives(pre, orders)


def output(params, s0):
    """Network output from the hidden activations s0, shape (t,)."""
    return s0 @ params.out_weights + params.out_bias


def laplacian(params, s2):
    """Spatial Laplacian from the second activation derivatives s2, shape (t,)."""
    return s2 @ (params.out_weights * np.sum(params.in_weights**2, axis=0))


def fill_value_param_jacobian(params, points, s0, s1, out):
    """Write d(output)/d(params) at each row of `points` into `out`, (t, n_params)."""
    r, dim = params.n_hidden, params.dim
    out[:, :r] = s0
    vs1 = np.multiply(s1, params.out_weights, out=out[:, (dim + 1) * r : (dim + 2) * r])
    for j in range(dim):
        np.multiply(vs1, points[:, j : j + 1], out=out[:, (1 + j) * r : (2 + j) * r])
    out[:, -1] = 1.0
    return out


def fill_laplacian_param_jacobian(params, points, s2, s3, out):
    """Write d(Laplacian)/d(params) at each row of `points` into `out`, (t, n_params)."""
    r, dim = params.n_hidden, params.dim
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


def eval_batch(arch, params, points):
    """Network output at each row of `points`, shape (t,).

    Evaluated in row blocks of at most BLOCK_ELEMENTS hidden activations,
    so a large point set (the RMSE test grid) never builds whole
    (t, n_hidden) temporaries.
    """
    _check_match(arch, params)
    out = np.empty(points.shape[0])
    for rows in row_blocks(points.shape[0], arch.n_hidden):
        pre = points[rows] @ params.in_weights + params.hidden_bias
        out[rows] = output(params, arch.activation(pre, 0))
    return out


def grad_z_batch(arch, params, points):
    """Spatial gradient at each row of `points`, shape (t, dim)."""
    (s1,) = hidden_activations(arch, params, points, (1,))
    return (s1 * params.out_weights) @ params.in_weights.T


def laplacian_batch(arch, params, points):
    """Spatial Laplacian at each row of `points`, shape (t,)."""
    (s2,) = hidden_activations(arch, params, points, (2,))
    return laplacian(params, s2)


def value_param_jacobian_batch(arch, params, points):
    """d(output)/d(params) at each row of `points`, shape (t, n_params)."""
    s0, s1 = hidden_activations(arch, params, points, (0, 1))
    return fill_value_param_jacobian(params, points, s0, s1, np.empty((len(points), arch.n_params)))


def laplacian_param_jacobian_batch(arch, params, points):
    """d(Laplacian)/d(params) at each row of `points`, shape (t, n_params)."""
    s2, s3 = hidden_activations(arch, params, points, (2, 3))
    return fill_laplacian_param_jacobian(
        params, points, s2, s3, np.empty((len(points), arch.n_params))
    )

