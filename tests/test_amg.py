import io
from pathlib import Path

import numpy as np
import pytest

from mlmnet import bench
from mlmnet.amg import (
    Splitting,
    apply_blockwise,
    build_coupling_matrix,
    build_interpolation,
    build_transfer_operators,
    dump_coarsening,
    ruge_stuben_split,
)
from mlmnet.linsolve import FlopCounter
from mlmnet.network import NetworkArch
from mlmnet.pde import ResidualSystem


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
    arch = NetworkArch(3, 1)
    J = np.zeros((3, 10))
    J[:, :3] = np.eye(3)
    A = build_coupling_matrix(J, arch)
    assert np.allclose(A, np.eye(3))


def test_coupling_matrix_symmetric(rng):
    arch = NetworkArch(6, 2)
    J = rng.normal(size=(15, arch.n_params))
    A = build_coupling_matrix(J, arch)
    assert np.abs(A - A.T).max() < 1e-14


def test_coupling_matrix_hand_case():
    # r=3, dim=1: blocks chosen so the sum is computable by hand
    arch = NetworkArch(3, 1)
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
    arch = NetworkArch(4, 1)
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
    assert np.allclose(apply_blockwise(ops.restrict, x, FlopCounter()), x)
    assert np.allclose(apply_blockwise(ops.prolong, x, FlopCounter()), x)


def test_output_bias_untouched(rng):
    A = random_spd(rng, 8)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.9))
    x = rng.normal(size=3 * 8 + 1)
    down = apply_blockwise(ops.restrict, x, FlopCounter())
    up = apply_blockwise(ops.prolong, down, FlopCounter())
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
    counter = FlopCounter()
    via_ops = apply_blockwise(ops.prolong, apply_blockwise(ops.restrict, x, counter), counter)
    assert np.allclose(via_ops, dense @ x, atol=1e-13)
    # each of the dim + 2 blocks charged once per direction, 2 * 6 * r_coarse flops apiece
    assert counter.matvec_flops == 2 * (dim + 2) * 2 * 6 * ops.r_coarse


def test_layout_mismatch_rejected(rng):
    A = random_spd(rng, 5)
    ops = build_interpolation(A, ruge_stuben_split(A, 0.9))
    with pytest.raises(ValueError, match="length 12 does not fit the blocks of a 5-column"):
        apply_blockwise(ops.restrict, np.zeros(12), FlopCounter())  # (12-1) not divisible by 5


# -- end-to-end + dump -------------------------------------------------------------


def test_build_transfer_operators_from_jacobian(rng):
    arch = NetworkArch(10, 1)
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


# -- the split against a loop-based reference ---------------------------------------
#
# `_reference_strength` and `_reference_split` are the dense, loop-based forms of the
# strength test and the two-pass split: one numpy pass over all r nodes per pick and per
# dependent.  The library walks per-node lists instead; the two must give the same
# splittings, and so the same transfer operators, byte for byte.


def _reference_strength(A, eps_amg):
    off = A - np.diag(np.diag(A))
    neg = np.where(off < 0, -off, 0.0)
    sets = []
    for value, row_max in ((neg, neg.max(axis=1)), (off, np.abs(off).max(axis=1))):
        strong = np.zeros(A.shape, dtype=bool)
        rows = row_max > 0
        strong[rows] = value[rows] >= eps_amg * row_max[rows, None]
        np.fill_diagonal(strong, False)
        sets.append(strong)
    return sets[0], sets[1] & (off > 0)


def _reference_split(A, eps_amg=0.9):
    unassigned, coarse, fine = 0, 1, 2
    A = np.asarray(A, dtype=float)
    r = A.shape[0]
    strong_neg, strong_pos = _reference_strength(A, eps_amg)
    state = np.full(r, unassigned)
    measure = strong_neg.sum(axis=0).astype(float)
    while (state == unassigned).any():
        i = int(np.argmax(np.where(state == unassigned, measure, -1.0)))
        state[i] = coarse
        for j in np.flatnonzero(strong_neg[:, i] & (state == unassigned)):
            state[j] = fine
            measure[strong_neg[j] & (state == unassigned)] += 1.0
    for i in range(r):
        if state[i] != fine:
            continue
        candidates = np.flatnonzero(strong_pos[i] & (state == fine))
        if candidates.size:
            state[int(candidates[np.argmax(A[i, candidates])])] = coarse
    return Splitting(
        coarse=np.flatnonzero(state == coarse),
        fine=np.flatnonzero(state == fine),
        strong=strong_neg | strong_pos,
    )


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_split_matches_reference(A, eps_amg=0.9):
    split, expected = ruge_stuben_split(A, eps_amg), _reference_split(A, eps_amg)
    for name in ("coarse", "fine", "strong"):
        assert _same_bytes(getattr(split, name), getattr(expected, name)), name
    ops, expected_ops = build_interpolation(A, split), build_interpolation(A, expected)
    for name in ("prolong", "restrict", "coarse_idx", "prolong_scale", "restrict_scale",
                 "prolong_raw"):
        assert _same_bytes(getattr(ops, name), getattr(expected_ops, name)), name
    return split


def _awkward_coupling(rng, r, kind):
    """A random coupling matrix with ties, exact zeros, zero diagonals or isolated nodes."""
    A = rng.normal(size=(r, r))
    if kind == "ties":
        A = np.round(2.0 * A) / 2.0  # many equal couplings and exact zeros
    elif kind == "gram":
        A = A @ A.T
    elif kind == "sparse":
        A[rng.random((r, r)) < 0.7] = 0.0
        A = A + A.T
    elif kind == "positive":
        A = np.abs(A)
    if r > 1 and kind != "gram":
        A[rng.integers(r)] = 0.0  # a node that couples to nothing
        np.fill_diagonal(A[: r // 2, : r // 2], 0.0)  # zero diagonals
        A[:, rng.integers(r)] = -0.0
    return A


@pytest.mark.parametrize("kind", ["plain", "ties", "gram", "sparse", "positive"])
@pytest.mark.parametrize("eps_amg", [0.9, 0.25, 1.0, 0.0])
def test_split_matches_the_reference_on_awkward_couplings(rng, kind, eps_amg):
    for r in (1, 2, 3, 7, 16, 33):
        for _ in range(4):
            A = _awkward_coupling(rng, r, kind)
            split, expected = ruge_stuben_split(A, eps_amg), _reference_split(A, eps_amg)
            for name in ("coarse", "fine", "strong"):
                assert _same_bytes(getattr(split, name), getattr(expected, name)), (r, name)


def test_split_matches_the_reference_on_ties_and_isolated_nodes():
    # equal measures everywhere: ties go to the lowest index in both
    A = np.ones((6, 6)) * -1.0
    np.fill_diagonal(A, 6.0)
    A[5] = A[:, 5] = 0.0
    split = assert_split_matches_reference(A)
    assert split.coarse.tolist() == [0, 5]


def _start_jacobian(problem, nu, r, seed):
    entry = bench.PROBLEMS[problem]
    pde_problem = entry.factory(entry.default_nu if nu is None else nu)
    system = ResidualSystem(pde_problem, NetworkArch(entry.default_r if r is None else r,
                                                     pde_problem.dim))
    return system, system.jacobian(bench.initial_guess(seed, system.n))


# every problem of campaigns/paper.cfg at its paper nu and r, and the benchmark's workloads
START_POINTS = [(problem, None, None, 0) for problem in bench.PROBLEMS] + [
    (problem, nu, r, seed)
    for problem, nu, r in (("poisson1d", 10, 256), ("poisson1d", 20, 512),
                           ("helmholtz2d-two-layers", 2, 512))
    for seed in range(6)
]


@pytest.mark.parametrize("problem, nu, r, seed", START_POINTS)
def test_split_and_operators_match_the_reference_at_the_start(problem, nu, r, seed):
    system, J = _start_jacobian(problem, nu, r, seed)
    assert_split_matches_reference(build_coupling_matrix(J, system.arch))


def test_paper_campaigns_are_the_problems_checked_at_the_start():
    text = (Path(__file__).parents[1] / "campaigns" / "paper.cfg").read_text()
    problems = [line.split("=")[1].strip() for line in text.splitlines()
                if line.startswith("problem")]
    assert sorted(problems) == sorted(bench.PROBLEMS)
