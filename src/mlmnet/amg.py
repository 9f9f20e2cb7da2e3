"""Algebraic coarsening of the hidden nodes and the transfer operators.

Each hidden node owns a triple of unknowns (output weight, input weights,
bias) that must move between levels together, so the coupling strength is
measured between nodes rather than between raw unknowns: the Jacobian is
cut into its per-kind column blocks and their normalized Gram matrices
are summed into a single node-coupling matrix.  A classical Ruge-Stuben
split of that matrix selects the coarse nodes, walking per-node lists of
strong couplings built once rather than making an r-length pass per
pick, and the usual two-sided interpolation formula fills the fine rows
of the prolongation operator.
It needs a split that leaves each fine node a strong coarse neighbour, as
this split does, and makes a zero-diagonal (so non-PSD) fine node coarse.
The operators act blockwise on parameter vectors; the scalar output bias
is copied between levels unchanged.
"""

from dataclasses import dataclass

import numpy as np

_UNASSIGNED, _COARSE, _FINE = 0, 1, 2


@dataclass
class Splitting:
    """Partition of the hidden-node indices into coarse and fine sets.

    `strong` is the boolean strong-coupling matrix used to build the
    splitting (row i marks the nodes i is strongly coupled to, negative
    couplings from the first pass plus strong positive ones).
    """

    coarse: np.ndarray
    fine: np.ndarray
    strong: np.ndarray


@dataclass
class TransferOperators:
    """Prolongation/restriction pair over hidden-node triples.

    `prolong` and `restrict` are the working operators, already divided
    by their own infinity norm; `prolong_raw` keeps the unscaled
    interpolation (unit rows at the coarse indices), whose transpose is
    exactly the unscaled restriction.  The recorded scales let the
    original pair, and the proportionality factor between the scaled
    restriction and the transposed scaled prolongation, be recovered.
    """

    prolong: np.ndarray
    restrict: np.ndarray
    coarse_idx: np.ndarray
    prolong_scale: float
    restrict_scale: float
    prolong_raw: np.ndarray

    @property
    def r(self):
        return self.prolong.shape[0]

    @property
    def r_coarse(self):
        return self.prolong.shape[1]


def build_coupling_matrix(J, arch):
    """Node-coupling matrix from the per-kind Jacobian column blocks.

    Sums the Gram matrices of the output-weight block, each input-weight
    group and the bias block, each divided by its own infinity norm so the
    summands have comparable size.  Blocks with zero norm are skipped.
    The output-bias column takes no part.
    """
    J = np.asarray(J, dtype=float)
    r = arch.n_hidden
    if J.shape[1] != arch.n_params:
        raise ValueError("Jacobian columns do not match the architecture")
    A = np.zeros((r, r))
    for block in range(arch.dim + 2):
        X = J[:, block * r : (block + 1) * r]
        G = X.T @ X
        scale = np.abs(G).sum(axis=1).max()
        if scale > 0:
            A += G / scale
    return A


def _strength(A, eps_amg):
    """Strong couplings (strong_neg, strong_pos) as boolean matrices, false on the diagonal.

    strong_neg[i, j] when -a_ij >= eps_amg * max over negative a_ik;
    strong_pos[i, j] when a_ij > 0 and a_ij >= eps_amg * max |a_ik|; k != i.
    A row with no negative coupling has no strong negative one, and a
    threshold eps_amg * max <= 0 makes every other entry of a row strong
    negative.  The maxima come from the row minimum and maximum of A with
    a zeroed diagonal, the one r x r copy made.
    """
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    neg_max = -off.min(axis=1)
    abs_max = np.maximum(off.max(axis=1), neg_max)
    neg_threshold = eps_amg * neg_max
    strong_neg = off <= -neg_threshold[:, None]
    strong_neg |= (neg_threshold <= 0)[:, None]
    strong_neg &= (neg_max > 0)[:, None]
    np.fill_diagonal(strong_neg, False)
    strong_pos = off >= (eps_amg * abs_max)[:, None]
    strong_pos &= off > 0
    return strong_neg, strong_pos


def _row_lists(strong):
    """The column indices of each row's true entries, as Python lists in index order."""
    rows, cols = np.divmod(np.flatnonzero(strong), strong.shape[1])
    bounds = np.searchsorted(rows, np.arange(strong.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def ruge_stuben_split(A, eps_amg=0.9):
    """Classical two-pass coarse/fine splitting of the coupling matrix.

    First pass: repeatedly promote the unassigned node on which most
    others strongly (negatively) depend, demote its strong dependents to
    fine and bump the measure of their remaining strong neighbours; ties
    go to the lowest index.  Isolated nodes end up coarse.  Second pass:
    one sweep over the fine nodes promotes, for each strong positive
    fine/fine coupling, the largest such neighbour.  The strength
    threshold `eps_amg` is the paper's 0.9 wherever the solver splits.

    Both passes walk per-node lists of strong couplings, built once, and
    visit neighbours in index order.  `measure` holds -1 at assigned
    nodes, so `np.argmax` picks among the unassigned ones alone.
    """
    A = np.asarray(A, dtype=float)
    r = A.shape[0]
    if A.shape != (r, r) or r < 1:
        raise ValueError("coupling matrix must be square and nonempty")

    strong_neg, strong_pos = _strength(A, eps_amg)
    depends_on = _row_lists(strong_neg)  # the nodes each node strongly depends on
    dependents = [[] for _ in range(r)]  # the nodes strongly depending on each node
    for j, nodes in enumerate(depends_on):
        for k in nodes:
            dependents[k].append(j)
    state = [_UNASSIGNED] * r
    # measure[i]: how many nodes strongly depend on i
    measure = strong_neg.sum(axis=0).astype(float)

    while True:
        i = int(np.argmax(measure))
        if measure[i] < 0:  # every node is assigned
            break
        state[i] = _COARSE
        measure[i] = -1.0
        for j in dependents[i]:
            if state[j] != _UNASSIGNED:
                continue
            state[j] = _FINE
            measure[j] = -1.0
            for k in depends_on[j]:
                if state[k] == _UNASSIGNED:
                    measure[k] += 1.0

    # second pass over strong positive fine/fine couplings
    for i, neighbours in enumerate(_row_lists(strong_pos)):
        if state[i] != _FINE:
            continue
        candidates = [j for j in neighbours if state[j] == _FINE]
        if candidates:
            state[candidates[int(np.argmax(A[i, candidates]))]] = _COARSE

    state = np.array(state)
    return Splitting(
        coarse=np.flatnonzero(state == _COARSE),
        fine=np.flatnonzero(state == _FINE),
        strong=strong_neg | strong_pos,
    )


def build_interpolation(A, split):
    """Transfer operators from a splitting of the coupling matrix.

    `split` must come from `ruge_stuben_split(A, ...)`, which leaves every
    fine node a strong coarse neighbour.  Coarse rows of the prolongation
    are unit rows; each fine row interpolates from its strongly coupled
    coarse neighbours with the classical two-sign weights, which divide by
    its diagonal, so a fine node with zero diagonal (A is then not positive
    semidefinite) is promoted to coarse.  The returned pair is scaled by
    the respective infinity norms.
    """
    A = np.asarray(A, dtype=float)
    coarse = np.zeros(A.shape[0], dtype=bool)
    coarse[split.coarse] = True
    coarse |= np.diag(A) == 0
    coarse_idx = np.flatnonzero(coarse)
    col_of = np.cumsum(coarse) - 1
    P = np.zeros((A.shape[0], coarse_idx.size))
    P[coarse_idx, col_of[coarse_idx]] = 1.0
    for i in np.flatnonzero(~coarse):
        neighbours = np.flatnonzero(A[i] != 0)
        neighbours = neighbours[neighbours != i]
        interp = np.flatnonzero(split.strong[i] & coarse)
        a_int = A[i, interp]
        neg_all = np.minimum(A[i, neighbours], 0.0).sum()
        pos_all = np.maximum(A[i, neighbours], 0.0).sum()
        neg_int = np.minimum(a_int, 0.0).sum()
        pos_int = np.maximum(a_int, 0.0).sum()
        alpha = neg_all / neg_int if neg_int < 0 else 0.0
        beta = pos_all / pos_int if pos_int > 0 else 0.0
        weights = np.where(a_int < 0, -alpha * a_int / A[i, i], -beta * a_int / A[i, i])
        P[i, col_of[interp]] = weights

    R_raw = P.T.copy()
    p_scale = np.abs(P).sum(axis=1).max()
    r_scale = np.abs(R_raw).sum(axis=1).max()
    return TransferOperators(
        prolong=P / p_scale,
        restrict=R_raw / r_scale,
        coarse_idx=coarse_idx,
        prolong_scale=p_scale,
        restrict_scale=r_scale,
        prolong_raw=P,
    )


def build_transfer_operators(J, arch, eps_amg=0.9):
    """Coupling matrix -> splitting -> scaled transfer operators."""
    A = build_coupling_matrix(J, arch)
    split = ruge_stuben_split(A, eps_amg=eps_amg)
    return build_interpolation(A, split)


def apply_blockwise(op, x, counter):
    """Apply a transfer operator, `ops.restrict` or `ops.prolong`, to a parameter-layout vector.

    The operator acts on each block of `op.shape[1]` entries (the output
    weights, each input-weight group, the hidden biases) and is charged to
    `counter` per block; the trailing output-bias entry is copied through.
    """
    x = np.asarray(x, dtype=float)
    size_out, size_in = op.shape
    blocks, rem = divmod(x.size - 1, size_in)
    if rem != 0 or blocks < 3:
        raise ValueError(
            f"vector of length {x.size} does not fit the blocks of a {size_in}-column operator"
        )
    out = np.empty(blocks * size_out + 1)
    for k in range(blocks):
        out[k * size_out : (k + 1) * size_out] = op @ x[k * size_in : (k + 1) * size_in]
        counter.add_matvec(size_out, size_in)
    out[-1] = x[-1]
    return out


def dump_coarsening(stream, A, split, ops):
    """Readable dump of the coupling matrix, the C/F sets and the operators."""
    stream.write(f"# coupling matrix A ({A.shape[0]}x{A.shape[1]})\n")
    np.savetxt(stream, A, fmt="%.12g")
    stream.write(f"# coarse indices ({split.coarse.size})\n")
    stream.write(" ".join(str(int(i)) for i in split.coarse) + "\n")
    stream.write(f"# fine indices ({split.fine.size})\n")
    stream.write(" ".join(str(int(i)) for i in split.fine) + "\n")
    stream.write(
        f"# prolongation P ({ops.prolong.shape[0]}x{ops.prolong.shape[1]}), "
        f"scales: P {ops.prolong_scale:.12g}, R {ops.restrict_scale:.12g}\n"
    )
    np.savetxt(stream, ops.prolong, fmt="%.12g")
