"""Span tracing of the program from outside, by patching module attributes.

`Tracer.install` replaces the public functions of the layers listed in
`TARGETS` with wrappers that record one span per call: name, start, end,
the enclosing span, and the matrix-vector flops charged while it was the
innermost open span (through a wrapped `FlopCounter.add_matvec`).  A
function is replaced in every module that holds it, so names imported
directly (`from .linsolve import cgls_truncated` in `lm`, `mlm`, ...) are
traced too.  Spans stay in memory until `write` puts them in one file.
"""

import functools
import json
import time

from mlmnet import activations, amg, bench, fdref, linsolve, lm, mlm, network, pde

import mlmnet

MODULES = (mlmnet, bench, lm, mlm, linsolve, amg, pde, network, activations, fdref)


def _cgls_note(args, kwargs, result):
    J = args[0]
    return (result.iterations, int(result.satisfied), J.shape[0])


def _direct_note(args, kwargs, result):
    return args[0].shape[0]


# (owner, attribute, span name, note taken from the call and its result)
TARGETS = (
    (bench, "run_campaign", "bench.run_campaign", None),
    (bench, "run_seed", "bench.run_seed", None),
    (bench, "build_system", "bench.build_system", None),
    (bench, "reference_for", "bench.reference_for", None),
    (bench, "aggregate", "bench.aggregate", None),
    (lm, "lm_solve", "lm.lm_solve", None),
    (mlm, "mlm_solve", "mlm.mlm_solve", None),
    (mlm, "build_coarse_model", "mlm.build_coarse_model", None),
    (mlm, "coarse_cycle", "mlm.coarse_cycle", None),
    (linsolve, "cgls_truncated", "linsolve.cgls_truncated", _cgls_note),
    (linsolve, "direct_solve", "linsolve.direct_solve", _direct_note),
    (amg, "build_coupling_matrix", "amg.build_coupling_matrix", None),
    (amg, "ruge_stuben_split", "amg.ruge_stuben_split", None),
    (amg, "build_interpolation", "amg.build_interpolation", None),
    (amg, "apply_blockwise", "amg.apply_blockwise", None),
    (pde.ResidualSystem, "residual", "pde.residual", None),
    (pde.ResidualSystem, "jacobian", "pde.jacobian", None),
    (pde.ResidualSystem, "rmse", "pde.rmse", None),
    (network, "eval_batch", "network.eval_batch", None),
    (network, "grad_z_batch", "network.grad_z_batch", None),
    (network, "laplacian_batch", "network.laplacian_batch", None),
    (network, "value_param_jacobian_batch", "network.value_param_jacobian_batch", None),
    (network, "laplacian_param_jacobian_batch", "network.laplacian_param_jacobian_batch", None),
    (activations.Activation, "__call__", "activations.Activation", None),
    (fdref, "solve_helmholtz_fd", "fdref.solve_helmholtz_fd", None),
    (fdref, "load_reference", "fdref.load_reference", None),
)

NAME, START, END, PARENT, FLOPS, NOTE = range(6)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, self flops, note]
        self._open = []
        self._restore = []

    def _wrap(self, name, fn, note):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, note)
            self._patch(owner, attr, wrapper)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        spans, open_ = self.spans, self._open
        add_matvec = linsolve.FlopCounter.add_matvec

        def charged_add_matvec(counter, rows, cols):
            add_matvec(counter, rows, cols)
            if open_:
                spans[open_[-1]][FLOPS] += 2 * int(rows) * int(cols)

        self._patch(linsolve.FlopCounter, "add_matvec", charged_add_matvec)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path, meta):
        """All spans as one JSON file: a name table and rows of
        [name index, start s, end s, parent index, self flops, note]."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [index[s[NAME]], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT],
             s[FLOPS], s[NOTE]]
            for s in self.spans
        ]
        with open(path, "w") as stream:
            json.dump({**meta, "names": names, "spans": rows}, stream, separators=(",", ":"))
            stream.write("\n")


def self_times(spans, lo, hi):
    """Self time and inclusive flops of spans[lo:hi], which must hold whole trees."""
    child_time = [0.0] * (hi - lo)
    incl_flops = [s[FLOPS] for s in spans[lo:hi]]
    # children are recorded after their parent, so a reverse sweep sees
    # every child before its parent
    for k in range(hi - 1, lo - 1, -1):
        s = spans[k]
        parent = s[PARENT]
        if parent >= lo:
            child_time[parent - lo] += s[END] - s[START]
            incl_flops[parent - lo] += incl_flops[k - lo]
    selfs = [spans[lo + k][END] - spans[lo + k][START] - child_time[k] for k in range(hi - lo)]
    return selfs, incl_flops
