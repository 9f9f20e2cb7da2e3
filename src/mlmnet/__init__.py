"""Approximation of PDE solutions by one-hidden-layer networks trained
with one-level and two-level Levenberg-Marquardt solvers.

The coarse level of the two-level solver is built algebraically: hidden
nodes are coarsened as whole (output-weight, input-weights, bias) triples
through a Ruge-Stuben split of a node-coupling matrix assembled from the
Gauss-Newton blocks at the starting point.
"""

from .amg import (
    Splitting,
    TransferOperators,
    apply_blockwise,
    build_coupling_matrix,
    build_interpolation,
    build_transfer_operators,
    ruge_stuben_split,
)
from .bench import Campaign, ComparisonRow, emit_report, run_campaign
from .fdref import FdGrid, solve_helmholtz_fd
from .linsolve import FlopCounter, InnerSolveResult, NumericalError, cgls_truncated, direct_solve
from .lm import LmConfig, SolveReport, lm_solve
from .mlm import CoarseModel, build_coarse_model, coarse_cycle, go_down, mlm_solve
from .network import NetworkArch
from .pde import (
    PdeProblem,
    ResidualSystem,
    TrainingSet,
    build_training_set,
    exp_nonlinear_2d,
    helmholtz_1d,
    helmholtz_2d,
    poisson_1d,
    poisson_2d,
    sine_nonlinear_1d,
)

__version__ = "0.1.0"
