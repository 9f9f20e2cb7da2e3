import io

import numpy as np
import pytest

from mlmnet.activations import Activation
from mlmnet.amg import (
    apply_blockwise,
    build_coupling_matrix,
    build_interpolation,
    build_transfer_operators,
    dump_coarsening,
    ruge_stuben_split,
)
from mlmnet.network import NetworkArch


def tridiagonal(r):
    return np.diag(np.full(r, 2.0)) + np.diag(np.full(r - 1, -1.0), 1) + np.diag(
        np.full(r - 1, -1.0), -1
    )


def random_spd(rng, r):
    X = rng.normal(size=(r, r))
    return X @ X.T + 0.1 * np.eye(r)


# -- coupling matrix ------------------------------------------------------------


def test_coupling_matrix_identity_block():
    # only the output-weight block is nonzero and has unit Gram
    arch = NetworkArch(3, 1, Activation("tanh"))
    J = np.zeros((3, 10))
    J[:, :3] = np.eye(3)
    A = build_coupling_matrix(J, arch)
    assert np.allclose(A, np.eye(3))


def test_coupling_matrix_symmetric(rng):
    arch = NetworkArch(6, 2, Activation("tanh"))
    J = rng.normal(size=(15, arch.n_params))
    A = build_coupling_matrix(J, arch)
    assert np.abs(A - A.T).max() < 1e-14


def test_coupling_matrix_hand_case():
    # r=3, dim=1: blocks chosen so the sum is computable by hand
    arch = NetworkArch(3, 1, Activation("tanh"))
    J = np.zeros((3, 10))
    J[:, 0:3] = np.diag([1.0, 2.0, 0.0])         # output-weight block
    J[:, 3:6] = np.array([[0.0, 1.0, 0.0],       # input-weight block
                          [1.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0]])
    # bias block zero: term skipped
    G_v = np.diag([1.0, 4.0, 0.0])      # inf norm 4
    G_w = np.diag([1.0, 1.0, 0.0])      # inf norm 1
    expected = G_v / 4.0 + G_w / 1.0
    A = build_coupling_matrix(J, arch)
    assert np.allclose(A, expected)
    # d column influence must be absent: change it and nothing moves
    J2 = J.copy()
    J2[:, -1] = 7.0
    assert np.allclose(build_coupling_matrix(J2, arch), expected)


def test_coupling_matrix_excludes_zero_blocks(rng):
    arch = NetworkArch(4, 1, Activation("tanh"))
    J = np.zeros((5, arch.n_params))
    J[:, 8:12] = rng.normal(size=(5, 4))  # only the bias block is active
    A = build_coupling_matrix(J, arch)
    G = J[:, 8:12].T @ J[:, 8:12]
    assert np.allclose(A, G / np.abs(G).sum(axis=1).max())


# -- splitting ------------------------------------------------------------------


def test_identity_matrix_everything_coarse():
    split = ruge_stuben_split(np.eye(7), 0.25)
    assert split.fine.size == 0
    assert np.array_equal(split.coarse, np.arange(7))


def test_tridiagonal_alternating_pattern():
    split = ruge_stuben_split(tridiagonal(9), 0.25)
    assert np.array_equal(split.coarse, [1, 3, 5, 7])
    assert np.array_equal(split.fine, [0, 2, 4, 6, 8])


def test_split_partitions_indices(rng):
    for _ in range(20):
        r = int(rng.integers(2, 25))
        A = random_spd(rng, r)
        split = ruge_stuben_split(A, 0.9)
        merged = np.sort(np.concatenate([split.coarse, split.fine]))
        assert np.array_equal(merged, np.arange(r))
        assert split.coarse.size >= 1
        assert np.intersect1d(split.coarse, split.fine).size == 0


def test_every_fine_node_strongly_coupled_to_coarse(rng):
    for _ in range(20):
        A = random_spd(rng, int(rng.integers(3, 20)))
        split = ruge_stuben_split(A, 0.9)
        coarse = set(split.coarse.tolist())
        for i in split.fine:
            assert any(int(k) in coarse for k in np.flatnonzero(split.strong[i]))


def test_positive_coupling_second_pass():
    # two fine nodes with a dominant positive mutual coupling: one is promoted
    A = np.array([
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, 0.9, 0.0],
        [0.0, 0.9, 2.0, -1.0],
        [0.0, 0.0, -1.0, 2.0],
    ])
    split = ruge_stuben_split(A, 0.9)
    # nodes 1 and 2 are strongly positively coupled; if both landed fine the
    # sweep promotes one of them
    fine = set(split.fine.tolist())
    assert not ({1, 2} <= fine)


# -- interpolation ---------------------------------------------------------------


def test_all_coarse_gives_identity():
    A = np.eye(5)
    split = ruge_stuben_split(A, 0.5)
    ops = build_interpolation(A, split)
    assert np.allclose(ops.prolong * ops.prolong_scale, np.eye(5))
    assert np.allclose(ops.restrict * ops.restrict_scale, np.eye(5))


def test_tridiagonal_linear_interpolation_weights():
    A = tridiagonal(9)
    split = ruge_stuben_split(A, 0.25)
    ops = build_interpolation(A, split)
    P_raw = ops.prolong * ops.prolong_scale
    # interior fine rows carry the classical (1/2, 1/2) weights
    row = P_raw[2]
    cols = {int(k): c for c, k in enumerate(ops.coarse_idx)}
    assert row[cols[1]] == pytest.approx(0.5)
    assert row[cols[3]] == pytest.approx(0.5)
    assert np.count_nonzero(row) == 2
    # a coarse column reproduces the classical (1/2, 1, 1/2) stencil
    col = P_raw[:, cols[3]]
    assert col[2] == pytest.approx(0.5)
    assert col[3] == pytest.approx(1.0)
    assert col[4] == pytest.approx(0.5)


def test_unit_coarse_rows_and_transpose_relation(rng):
    for _ in range(10):
        A = random_spd(rng, 12)
        split = ruge_stuben_split(A, 0.9)
        ops = build_interpolation(A, split)
        # the unscaled restriction is exactly the transposed raw prolongation
        assert np.array_equal(ops.restrict, ops.prolong_raw.T / ops.restrict_scale)
        assert np.array_equal(ops.prolong, ops.prolong_raw / ops.prolong_scale)
        for c, k in enumerate(ops.coarse_idx):
            row = np.zeros(ops.r_coarse)
            row[c] = 1.0
            assert np.array_equal(ops.prolong_raw[int(k)], row)
        assert np.linalg.matrix_rank(ops.prolong) == ops.r_coarse
        assert np.abs(ops.prolong).sum(axis=1).max() == pytest.approx(1.0)


def test_weakly_coupled_node_stays_coarse():
    # node 2 couples only positively and weakly: nothing depends on it, so
    # the split leaves it coarse and the interpolation keeps it so
    A = np.array([
        [2.0, -1.0, 0.01],
        [-1.0, 2.0, 0.01],
        [0.01, 0.01, 1.0],
    ])
    split = ruge_stuben_split(A, 0.9)
    assert 2 in split.coarse.tolist()
    ops = build_interpolation(A, split)
    assert 2 in ops.coarse_idx.tolist()


def test_zero_diagonal_fine_node_promoted():
    # an indefinite coupling matrix: the split leaves node 1 fine, but its
    # interpolation weights would divide by its zero diagonal
    A = np.array([[2.0, -1.0], [-1.0, 0.0]])
    split = ruge_stuben_split(A, 0.9)
    assert split.fine.tolist() == [1]
    ops = build_interpolation(A, split)
    assert ops.coarse_idx.tolist() == [0, 1]
    assert np.all(np.isfinite(ops.prolong))


# -- blockwise application --------------------------------------------------------


def test_identity_operators_round_trip(rng):
    A = np.eye(4)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.5))
    x = rng.normal(size=3 * 4 + 1)
    assert np.allclose(apply_blockwise(ops, x, "restrict"), x)
    assert np.allclose(apply_blockwise(ops, x, "prolong"), x)


def test_output_bias_untouched(rng):
    A = random_spd(rng, 8)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.9))
    x = rng.normal(size=3 * 8 + 1)
    down = apply_blockwise(ops, x, "restrict")
    up = apply_blockwise(ops, down, "prolong")
    assert down[-1] == x[-1]
    assert up[-1] == x[-1]


def test_blockwise_matches_dense_blockdiag(rng):
    # prolong(restrict(x)) equals the explicit block-diagonal product
    A = random_spd(rng, 6)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.9))
    dim = 2
    x = rng.normal(size=(dim + 2) * 6 + 1)
    blocks = [ops.prolong @ ops.restrict] * (dim + 2)
    dense = np.zeros((x.size, x.size))
    for b, blk in enumerate(blocks):
        dense[b * 6 : (b + 1) * 6, b * 6 : (b + 1) * 6] = blk
    dense[-1, -1] = 1.0
    via_ops = apply_blockwise(ops, apply_blockwise(ops, x, "restrict"), "prolong")
    assert np.allclose(via_ops, dense @ x, atol=1e-13)


def test_layout_mismatch_rejected(rng):
    A = random_spd(rng, 5)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.9))
    with pytest.raises(ValueError):
        apply_blockwise(ops, np.zeros(12), "restrict")  # (12-1) not divisible by 5
    with pytest.raises(ValueError):
        apply_blockwise(ops, np.zeros(16), "sideways")


# -- end-to-end + dump -------------------------------------------------------------


def test_build_transfer_operators_from_jacobian(rng):
    arch = NetworkArch(10, 1, Activation("sigmoid"))
    J = rng.normal(size=(12, arch.n_params))
    ops = build_transfer_operators(J, arch)
    assert ops.prolong.shape == (10, ops.r_coarse)
    assert ops.restrict.shape == (ops.r_coarse, 10)
    assert 1 <= ops.r_coarse <= 10


def test_dump_coarsening_layout(rng):
    A = random_spd(rng, 5)
    split = ruge_stuben_split(A, 0.9)
    ops = build_interpolation(A, split)
    out = io.StringIO()
    dump_coarsening(out, A, split, ops)
    text = out.getvalue()
    assert "# coupling matrix A (5x5)" in text
    assert "# coarse indices" in text
    assert "# prolongation P" in text
