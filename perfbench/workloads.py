"""The benchmark's workloads: which campaigns run, and what their outputs must satisfy.

A workload is one closed-loop round of two campaigns, `lm` over all its
starting-point seeds and then `mlm` over the same seeds (or the other way
round, see `round_order`).  Everything here is plain data, so the
benchmark's tests can run the same code on shrunken copies.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `mlm_overrides` are solver settings that apply to `mlm` alone.
    `repeats` maps a solver to how many times its campaign runs in one
    untraced round (default once), so that no timing rests on one short call.
    `to_tolerance` names the solvers that must converge (gradient norm at
    or below `epsilon`); the others must stop at their iteration cap or
    converge.  `rmse_bound` maps a solver to the bound on its RMSE
    against the closed-form solution, measured by the benchmark's own
    network evaluation.  `fd_rmse_agreement` is the largest relative gap
    allowed between the program's reported RMSE and the benchmark's RMSE
    at the finite-difference nodes.
    """

    name: str
    why: str
    problem: str
    nu: float
    r: int
    seeds: tuple
    epsilon: float
    mlm_overrides: dict = field(default_factory=dict)
    to_tolerance: tuple = ()
    rmse_bound: dict = field(default_factory=dict)
    fd_rmse_agreement: float = None
    fd_resolution: int = 201
    traces: bool = False
    repeats: dict = field(default_factory=dict)

    def campaign_kwargs(self, solver, seeds):
        """Keyword arguments of `mlmnet.bench.Campaign` for one solver's campaign."""
        overrides = {"epsilon": self.epsilon}
        if solver == "mlm":
            overrides.update(self.mlm_overrides)
        return dict(
            name=f"{self.name}-{solver}",
            problem=self.problem,
            nu=self.nu,
            r=self.r,
            seeds=tuple(seeds),
            solvers=(solver,),
            overrides=overrides,
            fd_resolution=self.fd_resolution,
        )

    def setup_spec(self):
        """What a fresh process needs to build the system and the reference."""
        return {
            "problem": self.problem,
            "nu": self.nu,
            "r": self.r,
            "fd_resolution": self.fd_resolution,
        }


def round_order(workload, seed):
    """Solver order and starting-point seed order of every round of a run.

    The workload seed never changes the work done: it only rotates the
    starting-point seeds and alternates which solver runs first, so runs
    with different workload seeds do the same operations in another order.
    """
    solvers = ("lm", "mlm") if seed % 2 == 0 else ("mlm", "lm")
    k = seed % len(workload.seeds)
    return solvers, workload.seeds[k:] + workload.seeds[:k]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poisson1d-converge",
            why="time to a stated accuracy; CG and residual/Jacobian work dominate, "
            "coarse steps are rare",
            problem="poisson1d",
            nu=10,
            r=256,
            seeds=(0, 1),
            epsilon=1e-4,
            to_tolerance=("lm", "mlm"),
            rmse_bound={"lm": 1e-3, "mlm": 1e-3},
            traces=True,
        ),
        Workload(
            name="poisson1d-full",
            why="paper-size problem; lm runs to its cap in late-phase CG, mlm spends its "
            "time in the dense coarse Gram matrix and Cholesky",
            problem="poisson1d",
            nu=20,
            r=512,
            seeds=(0,),
            epsilon=1e-4,
            mlm_overrides={"max_outer_iter": 60},
            rmse_bound={"lm": 5e-3},
        ),
        Workload(
            name="helmholtz2d-layers",
            why="2D network with a finite-difference reference and the largest coarse "
            "system, where the coarse direct solve dominates mlm",
            problem="helmholtz2d-two-layers",
            nu=2,
            r=512,
            seeds=(0,),
            epsilon=1e-3,
            to_tolerance=("lm", "mlm"),
            fd_rmse_agreement=0.1,
            repeats={"lm": 10},
        ),
    )
}
